"""Hilbert series of monomial quotients and Hilbert functions of curve local rings.

The numerator N(t) of K[x_1..x_n]/<monomials> over prod (1-t^{w_i}), with
deg x_i = w_i (all ones by default), comes from the pivot recursion
N(I) = N(I + <p>) + t^deg(p) * N(I : p) (Bigatti 1997), computed on
sparse degree maps {degree: coefficient}, so a weighted numerator costs its
number of terms rather than its degree.  Dividing out
(1-t)^(k-1) exactly leaves the reduced numerator h(t) of a one-dimensional
quotient, whose partial sums are the Hilbert function.  With the semigroup
weights the same numerator certifies a presentation of a curve's semigroup
ring (:func:`certifies_defining_ideal`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, WorkBudgetExceeded
from .polyalg import Mono, m_deg, minimal_indices
from .tangentcone import TangentConeReport, tangent_cone
from .toric import MonomialCurve

MAX_HF_PREFIX = 10**6  # the longest Hilbert-function prefix (``--limit``)
IntPoly = list  # univariate integer polynomial, coefficient list by degree
SparsePoly = dict  # univariate integer polynomial, {degree: non-zero coeff}


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


def _trim(a: IntPoly) -> IntPoly:
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def divide_by_one_minus_t(a: IntPoly) -> IntPoly:
    """Exact quotient a(t)/(1-t); raises when (1-t) does not divide a."""
    if sum(a) != 0:
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
                      weights: tuple[int, ...] | None = None) -> IntPoly:
    """N(t) with Hilb(K[x]/<lms>) = N(t)/prod(1-t^{w_i}).

    ``weights`` gives the positive degree w_i of x_i, all ones by default
    (the standard grading, where the denominator is (1-t)^nvars).  The
    recursion splits on the most frequent variable at its lowest positive
    power; the result does not depend on the pivot.
    """
    if weights is None:
        weights = (1,) * nvars
    num = _sparse_numerator(lms, nvars, tuple(weights))
    if not num:
        return [0]
    return [num.get(d, 0) for d in range(max(num) + 1)]


def _sparse_numerator(lms, nvars: int,
                      weights: tuple[int, ...]) -> SparsePoly:
    return _numerator(tuple(_minimalize_monomials(lms)), nvars, weights)


def _minimalize_monomials(lms) -> list[Mono]:
    lms = [tuple(m) for m in lms]
    return [lms[i] for i in minimal_indices(lms)]


def _numerator(lms: tuple[Mono, ...], nvars: int,
               weights: tuple[int, ...]) -> SparsePoly:
    if not lms:
        return {0: 1}
    if any(m_deg(m) == 0 for m in lms):
        return {}  # the whole ring is killed
    if len(lms) == 1 or _pairwise_coprime(lms):
        out = {0: 1}
        for m in lms:
            out = _times_one_minus_power(out, _weighted_deg(m, weights))
        return out
    var, power = _pick_pivot(lms, nvars)

    plus: list[Mono] = [_var_power(var, power, nvars)]
    for m in lms:
        if m[var] < power:
            plus.append(m)
    colon: list[Mono] = []
    for m in lms:
        e = list(m)
        e[var] = max(0, e[var] - power)
        colon.append(tuple(e))
    out = _sparse_numerator(plus, nvars, weights)
    n_colon = _sparse_numerator(colon, nvars, weights)
    _add_shifted(out, n_colon, 1, power * weights[var])
    return out


def _times_one_minus_power(a: SparsePoly, d: int) -> SparsePoly:
    """a(t) * (1 - t^d), one update per term of a."""
    out = dict(a)
    _add_shifted(out, a, -1, d)
    return out


def _add_shifted(acc: SparsePoly, a: SparsePoly, sign: int, d: int) -> None:
    """acc += sign * t^d * a in place, dropping coefficients that cancel."""
    for e, c in a.items():
        c = acc.get(e + d, 0) + sign * c
        if c:
            acc[e + d] = c
        else:
            del acc[e + d]


def _weighted_deg(m: Mono, weights: tuple[int, ...]) -> int:
    return sum(e * w for e, w in zip(m, weights))


def _pairwise_coprime(lms) -> bool:
    for i in range(len(lms)):
        for j in range(i + 1, len(lms)):
            if any(a and b for a, b in zip(lms[i], lms[j])):
                return False
    return True


def _pick_pivot(lms, nvars) -> tuple[int, int]:
    counts = [0] * nvars
    for m in lms:
        for v in range(nvars):
            if m[v]:
                counts[v] += 1
    var = max(range(nvars), key=lambda v: counts[v])
    power = min(m[var] for m in lms if m[var])
    return var, power


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

    reduced_numerator: tuple[int, ...]  # h(t) with series h(t)/(1-t)
    hf_prefix: tuple[int, ...]          # H(0..N)
    multiplicity: int                   # h(1), the stable value of H
    nondecreasing: bool
    first_violation: int | None         # index of the first negative h_i


def check_prefix_len(prefix_len: int | None):
    """Refuse a prefix over ``MAX_HF_PREFIX`` with :class:`WorkBudgetExceeded`."""
    if prefix_len is not None and prefix_len > MAX_HF_PREFIX:
        raise WorkBudgetExceeded(f"a Hilbert-function prefix of length "
                                 f"{prefix_len} is over MAX_HF_PREFIX = "
                                 f"{MAX_HF_PREFIX}")


def hilbert_from_lms(lms: list[Mono], nvars: int,
                     prefix_len: int | None = None) -> HilbertData:
    """HilbertData of K[x]/<lms> assuming Krull dimension one; a
    ``prefix_len`` over ``MAX_HF_PREFIX`` is refused before any work."""
    check_prefix_len(prefix_len)
    h = hilbert_numerator(lms, nvars)
    for _ in range(nvars - 1):
        h = divide_by_one_minus_t(h)
    mult = sum(h)
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


def certifies_defining_ideal(lms: list[Mono], C: MonomialCurve) -> bool:
    """Is the ideal whose leading monomials are ``lms`` the kernel of C?

    Precondition: ``lms`` generate the leading ideal, under some monomial
    order, local or global, of an ideal I generated by elements of the
    kernel P of x_i -> t^{n_i}, each homogeneous for the semigroup grading
    deg x_i = n_i.  A binomial x^a - x^b homogeneous for it lies in P, which
    ``toric.check_kernel_element`` tests.  Then:

    1. I is contained in P, and K[x]/P is the semigroup ring K[S], whose
       Hilbert series is sum_{s in S} t^s = A(t)/(1-t^m), where m is the
       multiplicity and A(t) = sum_{w in Ap(S,m)} t^w.
    2. I is homogeneous for positive weights, so the leading monomial of any
       element of I (or of its localization, which changes it by a unit) is
       that of one of its homogeneous components, again in I.  Elimination
       in each graded piece gives K[x]/in(I) the weighted Hilbert function
       of K[x]/I, whatever the order: its series is N_w(t)/prod(1-t^{n_i}).
    3. K[x]/I maps onto K[x]/P degree by degree, so I = P exactly when the
       series agree: N_w(t) (1-t^m) == A(t) prod(1-t^{n_i}).
    4. m is one of the n_i and Z[t] is a domain, so 1-t^m cancels:
       N_w(t) == A(t) prod_{n_i != m}(1-t^{n_i}).

    Both sides are sparse degree maps.  The right side costs at most
    m * 2^(k-1) coefficient updates for k generators, and the left side is
    the pivot recursion on ``lms``; neither depends on the Frobenius number.
    No Groebner computation is needed beyond the one that produced ``lms``.
    """
    S = C.semigroup
    m = S.multiplicity
    rhs = {w: 1 for w in S.apery}  # one per residue, all distinct
    for n in C.generators:
        if n != m:
            rhs = _times_one_minus_power(rhs, n)
    return _sparse_numerator(lms, C.nvars, tuple(C.generators)) == rhs


def nondecreasing_verdict(h: IntPoly) -> tuple[bool, int | None]:
    """Nondecreasing iff every coefficient of h is non-negative."""
    for i, c in enumerate(h):
        if c < 0:
            return False, i
    return True, None


def product_factorization_check(glued: HilbertData, h1: IntPoly, h2: IntPoly,
                                a1: int) -> bool:
    """Does the glued reduced numerator equal h1 * h2 * (1 + t + ... + t^(a1-1))?"""
    h3 = [1] * a1
    product = poly_mul(poly_mul(list(h1), list(h2)), h3)
    return product == list(glued.reduced_numerator)
