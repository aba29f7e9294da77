"""Defining ideals of monomial curves and complete-intersection detection.

The curve t -> (t^n1, ..., t^nk) has a binomial prime kernel.  With three or
more generators it is computed by adjoining the parameter t, completing
<x_i - t^{n_i}> to a Groebner basis under a block order that eliminates t,
keeping the t-free part, interreducing it and pruning redundant generators,
which leaves a minimal presentation.

With two generators (a, b) nothing is eliminated.  <a, b> is N*b glued to
N*a, whose presentation is the single bridge x1^b - x2^a (Rosales, *On
presentations of subsemigroups of N^n*, Semigroup Forum 55, 1997).  The
elimination gives the same list: the t-free part of an elimination basis
is a Groebner basis of the kernel, and interreduced it is the reduced one,
which for a principal ideal is its monic generator with the larger term
leading.  Under degrevlex that is the term of larger degree, b against a,
and the pruner keeps a lone generator.  With one generator, the line, the
kernel is zero.

Every polynomial on that path is a pure difference binomial x^a - x^b, so
it runs on exponent pairs ``(lead, trail)`` and builds a ``Polynomial`` only
for each returned generator.  The result is the list that
``basis.buchberger``, ``basis.interreduce_global`` and ``is_member_global``
give on the same input, in the same order, for two reasons:

- Reduction.  Dividing x^a - x^b reduces its leading term, which is
  whichever of the two terms is larger, so the remainder is
  NF(x^a) - NF(x^b), reached by reducing the larger term until the two meet
  (remainder 0) or the larger is irreducible.  The pair heap, both
  criteria and the first-divisor reducer choice are those of
  ``basis._complete``, so the same elements arise in the same order.
- Membership.  x^a - x^b lies in the ideal of pure difference binomials
  x^u - x^v, (u, v) in B, iff a and b are connected by B-moves
  c -> c - u + v (Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 5;
  Diaconis & Sturmfels 1998).  Every kernel element is homogeneous for the
  semigroup grading deg x_i = n_i > 0, so each fiber is finite, and a
  search of the fiber of a decides what ``is_member_global`` decides: the
  pruner keeps the same generators.

The same completion loop, with ``local=True``, gives the local-order
standard bases behind the tangent cones (:func:`curve_standard_basis`) and
lists what ``basis.standard_basis`` lists.  It takes pure difference
binomials only and refuses any other generator with
:class:`NonBinomialGenerator`; ``basis.standard_basis`` takes any
polynomials.

- Mora's weak normal form.  Rewriting the leading term of x^a - x^b by
  x^l - x^t again leaves a pure difference binomial, so each step moves one
  exponent.  Under a local degree order the lead has the smaller degree,
  so the ecart of x^l - x^t is deg(t) - deg(l).  The reducer is the first
  of least ecart whose lead divides, and the binomial joins the reducers
  first when that ecart exceeds its own, as in ``basis._nf_mora``.
- No monomial times a unit.  A reducer x^l - x^t with l | t is x^l times
  the unit 1 - x^(t-l) of the local ring.  No binomial of a curve's ideal
  has that shape: it is homogeneous for the semigroup grading, where x^l
  and x^t would have different degrees.  Every binomial that becomes a
  reducer is checked, and one of this shape raises
  :class:`SelfCheckFailed`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import add, le, mul, sub

from . import semigroup as sg
from .basis import (BasisResult, _LeadIndex, buchberger, is_member_global,
                    normal_form_global)
from .errors import (ArityMismatch, NonBinomialGenerator,
                     NonHomogeneousBinomial, SelfCheckFailed)
from .polyalg import (Mono, MonomialOrder, Polynomial, degrevlex, elimination,
                      m_deg, minimal_indices)

Binomial = tuple[Mono, Mono]  # (lead, trail): the monic x^lead - x^trail


@dataclass(frozen=True)
class MonomialCurve:
    """A monomial curve with named coordinates bound to semigroup generators.

    ``generators[i]`` is the exponent of the parameterization in variable
    ``names[i]``.  The generator multiset must be the minimal generating set
    of its semigroup; the binding order is free (glued curves keep their
    x-block/y-block layout rather than sorting by value).
    """

    generators: tuple[int, ...]
    names: tuple[str, ...]
    semigroup: sg.NumericalSemigroup = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        if len(self.generators) != len(self.names):
            raise ValueError("one name per generator")
        # validates once: duplicates, a non-minimal set and gcd != 1 all
        # raise ValueError here
        object.__setattr__(self, "semigroup", sg.NumericalSemigroup(
            tuple(sorted(self.generators))))

    @property
    def nvars(self) -> int:
        return len(self.generators)


def curve(raw_generators: list[int] | tuple[int, ...]) -> MonomialCurve:
    """Curve on the minimal generators of <raw>, sorted, named x1..xk."""
    S = sg.minimal_generators(list(raw_generators))
    names = tuple(f"x{i + 1}" for i in range(len(S.generators)))
    return MonomialCurve(S.generators, names)


def defining_ideal(C: MonomialCurve) -> list[Polynomial]:
    """Generators of the kernel of x_i -> t^{n_i}, as monic binomials.

    A curve on one generator (the line) has the zero kernel, and one on
    generators (a, b) the single generator x1^b - x2^a, its larger-degree
    term leading.  With three or more generators it eliminates the parameter
    from <x_i - t^{n_i}> under a block order, keeps the parameter-free part,
    interreduces, and prunes generators that lie in the ideal of the others.
    Every output is checked against the semigroup grading before being
    returned.
    """
    k = C.nvars
    if k == 2:
        a, b = C.generators
        # a != b, so the two terms differ in total degree
        pruned = [((b, 0), (0, a)) if b > a else ((0, a), (b, 0))]
    elif k > 2:
        pruned = _eliminate(C)
    else:
        pruned = []
    gens = [Polynomial({lead: 1, trail: -1}, _clean=False)
            for lead, trail in pruned]
    for g in gens:
        check_kernel_element(g, C)
    return gens


def _eliminate(C: MonomialCurve) -> list[Binomial]:
    """A minimal presentation of C by eliminating the parameter."""
    k = C.nvars
    gens = []  # t^{n_i} - x_i; slot 0 is the parameter
    for i, n in enumerate(C.generators):
        x = [0] * (k + 1)
        x[i + 1] = 1
        gens.append(((n,) + (0,) * k, tuple(x)))
    key = elimination(k + 1, {0}).key
    # interreducing first keeps the parameter degrees small: each x_i - t^n_i
    # rewrites against the smaller exponents before any pairs are formed
    gens = _interreduce_binomials(gens, key)
    eliminated = [(lead[1:], trail[1:])
                  for lead, trail in _complete_binomials(gens, key)
                  if lead[0] == 0 and trail[0] == 0]
    # on parameter-free monomials the block order is degrevlex(k), so every
    # pair keeps its orientation
    eliminated = _interreduce_binomials(eliminated, degrevlex(k).key)
    return _prune_redundant(
        eliminated, lambda g, rest: fiber_connected(*g, rest, C.generators))


def _binomial_nf(a: Mono, b: Mono, reducers: list[Binomial],
                 key) -> Binomial | None:
    """Remainder of x^a - x^b by ``reducers``: oriented, or None for zero.

    The larger term is reduced by the first reducer whose lead divides it
    until the two terms meet or the larger one is irreducible; the smaller
    one is then reduced to the end.  That is ``basis._nf_global`` step for
    step, which always reduces the leading term.
    """
    ka, kb = key(a), key(b)
    while a != b:
        if ka < kb:
            a, b, ka, kb = b, a, kb, ka
        for lead, trail in reducers:
            if all(map(le, lead, a)):
                a = tuple(map(add, map(sub, a, lead), trail))
                ka = key(a)
                break
        else:
            return a, _monomial_nf(b, reducers)
    return None


def _monomial_nf(b: Mono, reducers: list[Binomial]) -> Mono:
    """Rewrite x^b by the first reducer whose lead divides it, to the end."""
    while True:
        for lead, trail in reducers:
            if all(map(le, lead, b)):
                b = tuple(map(add, map(sub, b, lead), trail))
                break
        else:
            return b


def _interreduce_binomials(gens: list[Binomial], key) -> list[Binomial]:
    """``basis.interreduce_global`` on monic binomials, sweep for sweep."""
    elems = list(gens)
    changed = True
    while changed:
        changed = False
        for i in range(len(elems)):
            r = _binomial_nf(*elems[i], elems[:i] + elems[i + 1:], key)
            if r is None:
                elems.pop(i)
                changed = True
                break
            if r != elems[i]:
                elems[i] = r
                changed = True
    return elems


def _complete_binomials(gens: list[Binomial], key,
                        local: bool = False) -> list[Binomial]:
    """``basis._complete`` on monic binomials oriented by ``key``.

    A minimal Groebner basis, or with ``local`` (``key`` then a local degree
    order) a minimal standard basis.  The same ``(lcm degree, i, j)`` pair
    heap, product and chain criteria, reducer choice and minimalization as
    ``basis._complete``; the remainder is ``_binomial_nf`` or, with
    ``local``, Mora's weak normal form ``_mora_nf``.
    """
    polys: list[Binomial] = []
    ecarts: list[int] = []  # of each element, when local
    leads = _LeadIndex()
    pairs: list[tuple[int, int, int]] = []

    def add_element(g):
        if local:
            ecarts.append(_ecart(*g))
        polys.append(g)
        leads.push_pairs(g[0], pairs)

    for g in gens:
        add_element(g)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if leads.chain_redundant(i, j):
            continue
        (li, ti), (lj, tj) = polys[i], polys[j]
        lcm = tuple(map(max, li, lj))
        # S(g_i, g_j) = x^(lcm - lj + tj) - x^(lcm - li + ti)
        a = tuple(map(add, map(sub, lcm, lj), tj))
        b = tuple(map(add, map(sub, lcm, li), ti))
        r = _mora_nf(a, b, polys, ecarts, key) if local else \
            _binomial_nf(a, b, polys, key)
        if r is not None:
            add_element(r)
    return [polys[i] for i in minimal_indices(leads.lms)]


def curve_standard_basis(gens: list[Polynomial],
                         order: MonomialOrder) -> BasisResult:
    """What ``basis.standard_basis`` gives under the local ``order``, for
    pure difference binomials such as a curve's ideal, on exponent pairs.

    A generator that is not ±(x^a - x^b) raises
    :class:`NonBinomialGenerator` naming it.  On a curve's ideal the loop
    never meets a monomial times a unit; meeting one raises
    ``SelfCheckFailed``.
    """
    key = order.key
    pairs = []
    for i, g in enumerate(gens):
        if sorted(g.terms.values()) != [-1, 1]:
            raise NonBinomialGenerator(
                f"generator {i + 1} of {len(gens)}, {g!r}, is not a pure "
                f"difference binomial x^a - x^b")
        a, b = g.terms
        pairs.append((a, b) if key(a) > key(b) else (b, a))
    basis = _complete_binomials(pairs, key, local=True)
    return BasisResult(tuple(Polynomial({lead: 1, trail: -1}, _clean=False)
                             for lead, trail in basis),
                       order, tuple(lead for lead, _ in basis))


def _ecart(lead: Mono, trail: Mono) -> int:
    """Ecart of x^lead - x^trail under a local degree order.

    A lead dividing its trail makes the binomial a monomial times a unit,
    which no graded ideal without monomials holds; it is refused rather
    than reduced (``basis._nf_mora`` rescales such a reducer).
    """
    if all(map(le, lead, trail)):
        raise SelfCheckFailed(
            f"x^{lead} - x^{trail} is a monomial times a unit of the local "
            f"ring: the ideal is not graded or holds a monomial")
    return sum(trail) - sum(lead)


def _mora_nf(a: Mono, b: Mono, reducers: list[Binomial], ecarts: list[int],
             key) -> Binomial | None:
    """Mora's weak normal form of x^a - x^b: oriented, or None for zero.

    ``basis._nf_mora`` step for step: the leading term is rewritten by the
    first reducer of least ecart whose lead divides it, and the current
    binomial joins the reducers first when that ecart exceeds its own.  The
    grown reducers are dropped on return.
    """
    fixed = len(reducers)
    try:
        ka, kb = key(a), key(b)
        while a != b:
            if ka < kb:
                a, b, ka, kb = b, a, kb, ka
            best = best_e = -1
            for i, (lead, _) in enumerate(reducers):
                if all(map(le, lead, a)) and (best < 0 or ecarts[i] < best_e):
                    best, best_e = i, ecarts[i]
                    if not best_e:
                        break  # no ecart is below 0
            if best < 0:
                return a, b
            if best_e > sum(b) - sum(a):
                ecarts.append(_ecart(a, b))
                reducers.append((a, b))
            lead, trail = reducers[best]
            a = tuple(map(add, map(sub, a, lead), trail))
            ka = key(a)
        return None
    finally:
        del reducers[fixed:], ecarts[fixed:]


def fiber_connected(a: Mono, b: Mono, moves: list[Binomial],
                    weights: tuple[int, ...]) -> bool:
    """Is x^a - x^b in the ideal of the binomials x^u - x^v, (u, v) in moves?

    It is iff a reaches b by steps c -> c - u + v or c - v + u that keep c
    non-negative.  The search is finite because every step stays in the
    fiber of a, the exponents of one weighted degree, when the weights are
    positive and every binomial is homogeneous for them; otherwise
    :class:`NonHomogeneousBinomial` is raised before any step.
    """
    def degree(m):
        if len(m) != len(weights):
            raise ArityMismatch(f"exponent {m} against {len(weights)} weights")
        return sum(map(mul, m, weights))

    if min(weights, default=0) <= 0:
        raise NonHomogeneousBinomial(f"weights {weights} are not all positive")
    for u, v in [(a, b), *moves]:
        if degree(u) != degree(v):
            raise NonHomogeneousBinomial(
                f"x^{u} - x^{v} is not homogeneous for weights {weights}")
    steps = [(u, v) for u, v in moves if u != v]
    steps += [(v, u) for u, v in steps]
    seen = {a}
    stack = [a]
    while stack:
        c = stack.pop()
        if c == b:
            return True
        for u, v in steps:
            if all(map(le, u, c)):
                d = tuple(map(add, map(sub, c, u), v))
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
    return False


def _prune_redundant(gens: list, is_member) -> list:
    """Greedily drop generators that ``is_member(g, rest)`` finds redundant.

    Each generator is given by its monomials, such as a ``(lead, trail)``
    pair.  They are sorted by their sorted term degrees and tried from the
    last; each one tested against the others still kept.
    """
    kept = sorted(gens, key=lambda g: sorted(map(m_deg, g)))
    i = len(kept) - 1
    while i >= 0 and len(kept) > 1:
        candidate = kept[i]
        rest = kept[:i] + kept[i + 1:]
        if is_member(candidate, rest):
            kept = rest
        i -= 1
    return kept


def check_kernel_element(g: Polynomial, C: MonomialCurve):
    """g is homogeneous for the semigroup grading and vanishes on the curve.

    Every monomial must carry the same semigroup value, and the coefficients
    must cancel, so that x_i -> t^{n_i} sends g to zero.
    """
    values = {sum(e * n for e, n in zip(m, C.generators)) for m in g.terms}
    if len(values) > 1:
        raise SelfCheckFailed(
            f"kernel element not homogeneous for the semigroup grading: "
            f"values {sorted(values)}")
    if sum(g.terms.values()) != 0:
        raise SelfCheckFailed(
            f"graded element of value {values.pop()} does not vanish on the "
            f"curve: coefficients sum to {sum(g.terms.values())}")


def minimal_generator_count(gens: list[Polynomial], nvars: int) -> int:
    """Size of a minimal generating set among ``gens``; the test reference.

    Precondition: every generator is homogeneous for one positive grading,
    as the semigroup grading makes every kernel and glued generator.  By
    graded Nakayama every irredundant generating set then has the same size,
    so the one greedy pass of ``_prune_redundant`` gives the count: each
    element it keeps was tested against a superset of the final rest.
    """
    order = degrevlex(nvars)
    return len(_prune_redundant(
        [g.terms for g in gens if not g.is_zero()],
        lambda g, rest: is_member_global(
            Polynomial(g), [Polynomial(h) for h in rest], order)))


def is_complete_intersection(C: MonomialCurve) -> bool:
    """True when the defining ideal needs exactly (variables - 1) generators;
    ``defining_ideal`` is graded and irredundant, so minimal (Nakayama)."""
    return len(defining_ideal(C)) == C.nvars - 1


def ideals_equal(gens_a: list[Polynomial], gens_b: list[Polynomial],
                 nvars: int) -> bool:
    """Mutual membership of generators through Groebner bases both ways."""
    order = degrevlex(nvars)
    gb_a = buchberger(gens_a, order) if gens_a else None
    gb_b = buchberger(gens_b, order) if gens_b else None
    if gb_a is None or gb_b is None:
        return not gens_a and not gens_b
    a_elems = list(gb_a.elements)
    b_elems = list(gb_b.elements)
    return (all(normal_form_global(g, a_elems, order).is_zero() for g in gens_b)
            and all(normal_form_global(g, b_elems, order).is_zero()
                    for g in gens_a))
