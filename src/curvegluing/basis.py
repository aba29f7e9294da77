"""Groebner bases for global orders, standard bases for local orders.

Both run the same pair loop; the difference is the reducer.  Global orders
use the ordinary division algorithm with full tail reduction; local orders
use Mora's weak normal form with the ecart-controlled reductor set, and tails
are never reduced (full reduction need not terminate in a local ring).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import NonGlobalOrder, NonLocalOrder
from .polyalg import (Coeff, Mono, MonomialOrder, Polynomial, exact_quotient,
                      leading_term, m_coprime, m_deg, m_div, m_divides, m_lcm,
                      minimal_indices, monic, spoly)


@dataclass(frozen=True)
class BasisResult:
    """A (standard or Groebner) basis with the order it was computed under."""

    elements: tuple[Polynomial, ...]
    order: MonomialOrder
    minimal: bool

    def leading_monomials(self) -> list[Mono]:
        return [leading_term(g, self.order)[0] for g in self.elements]


class _Reducers:
    """Basis elements with cached leading data; LM lookups dominate."""

    __slots__ = ("order", "polys", "lms", "lcs", "degs")

    def __init__(self, order: MonomialOrder, polys=()):
        self.order = order
        self.polys: list[Polynomial] = []
        self.lms: list[Mono] = []
        self.lcs: list[Coeff] = []
        self.degs: list[int] = []  # total degrees, for ecart
        for p in polys:
            self.add(p)

    def add(self, p: Polynomial):
        m, c = leading_term(p, self.order)
        self.polys.append(p)
        self.lms.append(m)
        self.lcs.append(c)
        self.degs.append(max(m_deg(t) for t in p.terms))

    def fork(self) -> "_Reducers":
        clone = _Reducers(self.order)
        clone.polys = list(self.polys)
        clone.lms = list(self.lms)
        clone.lcs = list(self.lcs)
        clone.degs = list(self.degs)
        return clone

    def __len__(self):
        return len(self.polys)


# --------------------------------------------------------------------------
# global-order reduction and Buchberger
# --------------------------------------------------------------------------

def normal_form_global(f: Polynomial, basis: list[Polynomial],
                       order: MonomialOrder) -> Polynomial:
    """Fully reduced remainder of f modulo basis (global orders only)."""
    if not order.is_global:
        raise NonGlobalOrder("global order required")
    red = _Reducers(order, [g for g in basis if not g.is_zero()])
    return _nf_global(f, red)


def _nf_global(f: Polynomial, red: _Reducers) -> Polynomial:
    order = red.order
    lms = red.lms
    rem: dict[Mono, Coeff] = {}
    h = f
    while h.terms:
        mh, ch = leading_term(h, order)
        for i in range(len(lms)):
            if m_divides(lms[i], mh):
                h = h - red.polys[i].mul_term(
                    exact_quotient(ch, red.lcs[i]), m_div(mh, lms[i]))
                break
        else:
            rem[mh] = ch
            h = h - Polynomial.term(ch, mh)
    return Polynomial(rem, _clean=False)


def buchberger(gens: list[Polynomial], order: MonomialOrder,
               use_chain_criterion: bool = True) -> BasisResult:
    """Groebner basis of the ideal generated by gens, minimalized and monic."""
    if not order.is_global:
        raise NonGlobalOrder("buchberger needs a global order")
    return _complete(gens, order, local=False,
                     use_chain_criterion=use_chain_criterion)


# --------------------------------------------------------------------------
# Mora weak normal form (local orders)
# --------------------------------------------------------------------------

def mora_weak_nf(f: Polynomial, basis: list[Polynomial], order: MonomialOrder,
                 return_unit: bool = False):
    """Mora remainder r with u*f = sum q_i g_i + r for a unit u.

    The reductor set starts at ``basis`` and absorbs intermediate results
    whenever the chosen reducer has larger ecart; that is what makes the
    procedure terminate for local orders.  Either r = 0 or LM(r) is divisible
    by no basis LM.  With ``return_unit`` the pair (r, u) is returned; u has
    constant term 1.
    """
    if not order.is_local:
        raise NonLocalOrder("mora_weak_nf needs a local order")
    red = _Reducers(order, [g for g in basis if not g.is_zero()])
    return _nf_mora(f, red, return_unit)


def _nf_mora(f: Polynomial, red: _Reducers, return_unit: bool = False):
    order = red.order
    red = red.fork()  # intermediate results must not leak to the caller
    n_fixed = len(red)
    # element i of the adjoined tail satisfies tail_i = unit_i * f mod <basis>
    tail_units: list[Polynomial] = []
    one = Polynomial.term(1, (0,) * order.nvars)

    # A reducer c*m*v, with m its LM and v = 1 + (multiples of other
    # monomials), generates the same local ideal as c*m; reduce by c*m, which
    # has ecart 0.  Mora's loop can otherwise run for minutes on such a
    # reducer.  `scale`, the product of the v, turns the result back into a
    # relation among the basis polynomials themselves.
    scale = one
    for i in range(n_fixed):
        g, m, c = red.polys[i], red.lms[i], red.lcs[i]
        if len(g.terms) > 1 and all(m_divides(m, t) for t in g.terms):
            scale = scale * Polynomial({m_div(t, m): exact_quotient(a, c)
                                        for t, a in g.terms.items()})
            red.polys[i] = Polynomial.term(c, m)
            red.degs[i] = m_deg(m)

    h = f
    u = one
    while h.terms:
        mh, ch = leading_term(h, order)
        lms = red.lms
        best = -1
        best_e = 0
        for i in range(len(lms)):
            if m_divides(lms[i], mh):
                e = red.degs[i] - m_deg(lms[i])
                if best < 0 or e < best_e:
                    best, best_e = i, e
        if best < 0:
            break
        ecart_h = max(m_deg(t) for t in h.terms) - m_deg(mh)
        if best_e > ecart_h:
            red.add(h)
            tail_units.append(u)
        t_coeff = exact_quotient(ch, red.lcs[best])
        t_mono = m_div(mh, red.lms[best])
        h = h - red.polys[best].mul_term(t_coeff, t_mono)
        if best >= n_fixed:
            u = u - tail_units[best - n_fixed].mul_term(t_coeff, t_mono)
    if scale is not one:
        h, u = h * scale, u * scale
    if return_unit:
        return h, u
    return h


# --------------------------------------------------------------------------
# shared completion loop
# --------------------------------------------------------------------------

def standard_basis(gens: list[Polynomial], order: MonomialOrder,
                   use_chain_criterion: bool = True) -> BasisResult:
    """Minimal standard basis w.r.t. a local order (tails unreduced)."""
    if not order.is_local:
        raise NonLocalOrder("standard_basis needs a local order")
    return _complete(gens, order, local=True,
                     use_chain_criterion=use_chain_criterion)


def _complete(gens, order, local, use_chain_criterion):
    red = _Reducers(order)
    pairs: list[tuple[int, int, int]] = []  # heap of (lcm degree, i, j)

    def add_element(g):
        red.add(g)
        j = len(red) - 1
        lj = red.lms[j]
        for i in range(j):
            heapq.heappush(pairs, (m_deg(m_lcm(red.lms[i], lj)), i, j))

    for g in gens:
        if not g.is_zero():
            add_element(monic(g, order))

    lms = red.lms
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if m_coprime(lms[i], lms[j]):
            continue  # product criterion
        if use_chain_criterion and _chain_redundant(i, j, lms):
            continue
        s = spoly(red.polys[i], red.polys[j], order)
        r = _nf_mora(s, red) if local else _nf_global(s, red)
        if not r.is_zero():
            add_element(monic(r, order))

    return _minimalize_basis(red.polys, red.lms, order)


def _chain_redundant(i, j, lms):
    """Sound standalone chain criterion.

    Skip (i, j) when some LM(k) divides lcm(i, j) while both lcm(i, k) and
    lcm(j, k) are strict divisors of lcm(i, j): the (i, j) syzygy then lies in
    the module spanned by syzygies with strictly smaller lcm, so induction on
    the lcm needs no bookkeeping about which pairs were already treated.
    """
    lij = m_lcm(lms[i], lms[j])
    for k in range(len(lms)):
        if k == i or k == j:
            continue
        if m_divides(lms[k], lij):
            if m_lcm(lms[i], lms[k]) != lij and m_lcm(lms[j], lms[k]) != lij:
                return True
    return False


def _minimalize_basis(basis, lms, order) -> BasisResult:
    """Divisibility-prune to the unique minimal leading-monomial set.

    Among elements with the same LM, the earliest generated is kept.
    """
    elems = tuple(monic(basis[i], order) for i in minimal_indices(lms))
    return BasisResult(elems, order, minimal=True)


def leading_ideal(result: BasisResult) -> list[Mono]:
    """Minimal monomial generating set of the leading ideal of the basis."""
    lms = result.leading_monomials()
    return sorted(lms[i] for i in minimal_indices(lms))


def interreduce_global(basis: list[Polynomial],
                       order: MonomialOrder) -> list[Polynomial]:
    """Autoreduce a generating set: each element fully reduced by the others.

    Preserves the generated ideal.  Elements reducing to zero are dropped;
    applied to a Groebner basis this yields the reduced basis.
    """
    elems = [monic(g, order) for g in basis if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(elems)):
            others = elems[:i] + elems[i + 1:]
            r = normal_form_global(elems[i], others, order)
            if r.is_zero():
                elems.pop(i)
                changed = True
                break
            r = monic(r, order)
            if r != elems[i]:
                elems[i] = r
                changed = True
    return elems


def is_member_global(f: Polynomial, gens: list[Polynomial],
                     order: MonomialOrder) -> bool:
    """Ideal membership through a Groebner basis of gens."""
    if f.is_zero():
        return True
    gb = buchberger(gens, order)
    return normal_form_global(f, list(gb.elements), order).is_zero()
