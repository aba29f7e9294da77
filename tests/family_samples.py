"""Randomized gluing instances for the property suites.

Everything is driven by a seeded ``random.Random`` so failures replay
exactly; generators retry until the constructed instance validates as nice.
"""

from math import gcd

from curvegluing.gluing import GluingSpec, validate_gluing
from curvegluing.semigroup import minimal_generators


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
