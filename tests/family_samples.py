"""Randomized gluing instances for the property suites, the joint-order
completion that is the tests' reference for the leading-ideal decomposition,
and Kunz's closure, the reference for symmetry.

Everything is driven by a seeded ``random.Random`` so failures replay
exactly; generators retry until the constructed instance validates as nice.
"""

from math import gcd

from curvegluing.gluing import GluingSpec, glued_ideal, validate_gluing
from curvegluing.polyalg import negdegrevlex
from curvegluing.semigroup import minimal_generators
from curvegluing.tangentcone import tangent_cone
from curvegluing.toric import MonomialCurve, curve_standard_basis


def random_semigroup(rng, embdim, max_gen=15):
    """Minimal semigroup with the exact embedding dimension requested.

    Generators are drawn from ``2..max_gen``, so ``embdim`` must be at least
    2: the only semigroup of embedding dimension 1 is the naturals, ``<1>``.

    Such a semigroup exists exactly when ``2*embdim - 1 <= max_gen``:

    - A minimal set with smallest element m has at most m elements, one per
      residue mod m (two with the same residue differ by a multiple of m, so
      the larger is not minimal).  All of them lie in ``[m, max_gen]``, so
      ``embdim <= m <= max_gen - embdim + 1``.
    - Conversely, ``{e, ..., 2e-1}`` is minimal (a sum of two of its
      elements is at least 2e) and has gcd 1 (it holds e and e + 1).

    Otherwise the draw could never succeed, so it raises ``ValueError``.
    """
    if embdim < 2:
        raise ValueError(f"embedding dimension must be at least 2, got {embdim}")
    if 2 * embdim - 1 > max_gen:
        raise ValueError(f"no minimal set of {embdim} generators lies in "
                         f"2..{max_gen}; need max_gen >= {2 * embdim - 1}")
    while True:
        gens = sorted(rng.sample(range(2, max_gen + 1), embdim))
        g = 0
        for n in gens:
            g = gcd(g, n)
        if g != 1:
            continue
        S = minimal_generators(gens)
        if len(S.generators) == embdim:
            return S


def kunz_closure(S) -> bool:
    """Kunz: S is symmetric iff Ap(S, m) is closed under w -> max Ap - w."""
    top = max(S.apery)
    return {top - w for w in S.apery} == set(S.apery)


def random_nice_gluing(rng, dim1=2, dim2=2, max_gen=15) -> GluingSpec:
    """A validated nice gluing with the requested component dimensions."""
    while True:
        s1 = random_semigroup(rng, dim1, max_gen)
        s2 = random_semigroup(rng, dim2, max_gen)
        n1 = s2.generators[0]
        a1 = rng.randint(2, 4)
        q = a1 * n1
        if q in s2.generators:
            continue
        spec = _find_p(rng, s1, s2, q, a1)
        if spec is not None:
            return spec


def _find_p(rng, s1, s2, q, a1):
    # p must be a non-generator member of s1, coprime to q, with a
    # representation of coefficient sum at least a1
    m1 = s1.generators[0]
    candidates = list(range(a1 * m1, a1 * m1 + 12 * m1))
    rng.shuffle(candidates)
    for p in candidates:
        if gcd(p, q) != 1 or p in s1.generators:
            continue
        if s1.contains(p) is None:
            continue
        spec = validate_gluing(s1, s2, p, q)
        if spec.nice:
            return spec
    return None


def paper_priority(nvars: int) -> tuple[int, ...]:
    """v2 > v3 > ... > vn > v1: index order with the first variable lowest."""
    return tuple(range(1, nvars)) + (0,)


def theorem_priority(l: int, k: int) -> tuple[int, ...]:
    """y2 > ... > yk > y1 > x2 > ... > xl > x1 in the joint ring."""
    return tuple(range(l + 1, l + k)) + (l,) + tuple(range(1, l)) + (0,)


def component_curve(spec: GluingSpec, which: int) -> MonomialCurve:
    """Component ``which`` (1 or 2) of the gluing, named x1.. or y1.."""
    gens = spec.s1.generators if which == 1 else spec.s2.generators
    letter = "x" if which == 1 else "y"
    return MonomialCurve(gens, tuple(f"{letter}{i + 1}"
                                     for i in range(len(gens))))


def index_order_cones(spec: GluingSpec):
    """Both component cones, each in its index order (``paper_priority``)."""
    return [tangent_cone(C, paper_priority(C.nvars))
            for C in (component_curve(spec, 1), component_curve(spec, 2))]


def joint_order_decomposition_ok(spec: GluingSpec, reps=None,
                                 rosales=None) -> bool:
    """Is the glued leading ideal LM(G1) + LM(G2) + <y1^a1>?

    Completes the glued ideal a second time, in the joint index order
    (``theorem_priority``), and compares its leads with the component leads
    of ``index_order_cones`` and the bridge's y1^a1.  ``verify_instance``
    reads the same verdict off the Hilbert-series factorization.
    """
    l = len(spec.s1.generators)
    k = len(spec.s2.generators)
    rep1, rep2 = index_order_cones(spec) if reps is None else reps
    rosales = glued_ideal(spec) if rosales is None else rosales
    order = negdegrevlex(l + k, theorem_priority(l, k))
    got = {lead for lead, _ in curve_standard_basis(rosales, order)}
    expect = {(*m, *(0,) * k) for m in rep1.lm_set}
    expect |= {(*(0,) * l, *m) for m in rep2.lm_set}
    a1 = spec.a_witness.coefficients[0]
    expect.add((*(0,) * l, a1, *(0,) * (k - 1)))
    return got == expect
