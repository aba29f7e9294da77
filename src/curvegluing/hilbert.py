"""Hilbert series of monomial quotients and Hilbert functions of curve local rings.

The numerator N(t) of K[x_1..x_n]/<monomials> over (1-t)^n comes from the
pivot recursion N(I) = N(I + <p>) + t^deg(p) * N(I : p); dividing out
(1-t)^(k-1) exactly leaves the reduced numerator h(t) of a one-dimensional
quotient, whose partial sums are the Hilbert function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .polyalg import Mono, m_deg, minimal_indices
from .tangentcone import TangentConeReport, tangent_cone
from .toric import MonomialCurve

IntPoly = list  # univariate integer polynomial, coefficient list by degree


# --------------------------------------------------------------------------
# integer polynomial helpers
# --------------------------------------------------------------------------

def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def poly_shift(a: IntPoly, k: int) -> IntPoly:
    return _trim([0] * k + list(a))


def poly_eval_one(a: IntPoly) -> int:
    return sum(a)


def _trim(a: IntPoly) -> IntPoly:
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return list(a)


def divide_by_one_minus_t(a: IntPoly) -> IntPoly:
    """Exact quotient a(t)/(1-t); raises when (1-t) does not divide a."""
    if poly_eval_one(a) != 0:
        raise DimensionMismatch("(1-t) does not divide the numerator")
    out = []
    acc = 0
    for c in a[:-1]:
        acc += c
        out.append(acc)
    return _trim(out) if out else [0]


# --------------------------------------------------------------------------
# numerator of a monomial quotient
# --------------------------------------------------------------------------

def hilbert_numerator(lms: list[Mono], nvars: int,
                      pivot_rule: str = "frequent") -> IntPoly:
    """N(t) with Hilb(K[x]/<lms>) = N(t)/(1-t)^nvars, lms minimal.

    ``pivot_rule`` picks the splitting monomial: "frequent" uses the most
    frequent variable at its lowest positive power, "first" the first
    variable occurring in two generators.  The result is pivot-independent;
    tests exercise both.
    """
    lms = _minimalize_monomials(lms)
    return _numerator(tuple(lms), nvars, pivot_rule)


def _minimalize_monomials(lms) -> list[Mono]:
    lms = [tuple(m) for m in lms]
    return [lms[i] for i in minimal_indices(lms)]


def _numerator(lms: tuple[Mono, ...], nvars: int, pivot_rule: str) -> IntPoly:
    if not lms:
        return [1]
    if any(m_deg(m) == 0 for m in lms):
        return [0]  # the whole ring is killed
    if len(lms) == 1 or _pairwise_coprime(lms):
        out = [1]
        for m in lms:
            out = poly_mul(out, _one_minus_power(m_deg(m)))
        return out
    var, power = _pick_pivot(lms, nvars, pivot_rule)

    plus: list[Mono] = [_var_power(var, power, nvars)]
    for m in lms:
        if m[var] < power:
            plus.append(m)
    colon: list[Mono] = []
    for m in lms:
        e = list(m)
        e[var] = max(0, e[var] - power)
        colon.append(tuple(e))
    n_plus = _numerator(tuple(_minimalize_monomials(plus)), nvars, pivot_rule)
    n_colon = _numerator(tuple(_minimalize_monomials(colon)), nvars, pivot_rule)
    return poly_add(n_plus, poly_shift(n_colon, power))


def _pairwise_coprime(lms) -> bool:
    for i in range(len(lms)):
        for j in range(i + 1, len(lms)):
            if any(a and b for a, b in zip(lms[i], lms[j])):
                return False
    return True


def _pick_pivot(lms, nvars, pivot_rule) -> tuple[int, int]:
    counts = [0] * nvars
    for m in lms:
        for v in range(nvars):
            if m[v]:
                counts[v] += 1
    if pivot_rule == "frequent":
        var = max(range(nvars), key=lambda v: counts[v])
    elif pivot_rule == "first":
        var = next(v for v in range(nvars) if counts[v] >= 2)
    else:
        raise ValueError(f"unknown pivot rule {pivot_rule!r}")
    power = min(m[var] for m in lms if m[var])
    return var, power


def _one_minus_power(d: int) -> IntPoly:
    out = [0] * (d + 1)
    out[0] = 1
    out[d] = -1
    return out


def _var_power(var: int, power: int, nvars: int) -> Mono:
    e = [0] * nvars
    e[var] = power
    return tuple(e)


# --------------------------------------------------------------------------
# Hilbert data of a curve's local ring
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertData:
    """Hilbert series data of the associated graded ring of a curve."""

    numerator: tuple[int, ...]          # N(t) over (1-t)^k
    reduced_numerator: tuple[int, ...]  # h(t) with series h(t)/(1-t)
    hf_prefix: tuple[int, ...]          # H(0..N)
    multiplicity: int                   # h(1), the stable value of H
    nondecreasing: bool
    first_violation: int | None         # index of the first negative h_i


def hilbert_from_lms(lms: list[Mono], nvars: int,
                     prefix_len: int | None = None) -> HilbertData:
    """HilbertData of K[x]/<lms> assuming Krull dimension one."""
    num = hilbert_numerator(lms, nvars)
    h = list(num)
    for _ in range(nvars - 1):
        h = divide_by_one_minus_t(h)
    mult = poly_eval_one(h)
    if mult <= 0:
        raise DimensionMismatch(
            f"reduced numerator evaluates to {mult} at t=1; dimension is not 1")
    ok, first_bad = nondecreasing_verdict(h)
    if prefix_len is None:
        prefix_len = len(h) - 1 + 3
    prefix = []
    acc = 0
    for n in range(prefix_len + 1):
        acc += h[n] if n < len(h) else 0
        prefix.append(acc)
    return HilbertData(
        numerator=tuple(num),
        reduced_numerator=tuple(h),
        hf_prefix=tuple(prefix),
        multiplicity=mult,
        nondecreasing=ok,
        first_violation=first_bad,
    )


def local_hilbert_function(C: MonomialCurve, prefix_len: int | None = None,
                           report: TangentConeReport | None = None) -> HilbertData:
    """Hilbert function of the curve's local ring via its tangent cone."""
    if report is None:
        report = tangent_cone(C)
    return hilbert_from_lms(list(report.lm_set), C.nvars, prefix_len)


def nondecreasing_verdict(h: IntPoly) -> tuple[bool, int | None]:
    """Nondecreasing iff every coefficient of h is non-negative."""
    for i, c in enumerate(h):
        if c < 0:
            return False, i
    return True, None


def is_nondecreasing(data: HilbertData) -> bool:
    return data.nondecreasing


def product_factorization_check(glued: HilbertData, h1: IntPoly, h2: IntPoly,
                                a1: int) -> bool:
    """Does the glued reduced numerator equal h1 * h2 * (1 + t + ... + t^(a1-1))?"""
    h3 = [1] * a1
    product = poly_mul(poly_mul(list(h1), list(h2)), h3)
    return product == list(glued.reduced_numerator)
