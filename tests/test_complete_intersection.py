"""Complete intersection decided from semigroup membership alone.

Delorme's criterion (C. Delorme, Ann. Sci. ENS 9, 1976; Rosales &
Garcia-Sanchez, *Numerical Semigroups*, 2009): a numerical semigroup
minimally generated by A, with |A| >= 2, is a complete intersection iff
A = A1 u A2 (disjoint, both non-empty) with d_i = gcd(A_i), d_2 in <A1/d_1>,
d_1 in <A2/d_2>, and both <A_i/d_i> complete intersections; N = <1> is one.
Each A_i/d_i is again a minimal generating set: a sum of the others equal
to one of them would make A not minimal.

The oracle reads nothing from a presentation, so it checks
``toric.is_complete_intersection`` and the gluing report's
``complete_intersection``, which both count presentation generators.
"""

import random
from functools import lru_cache
from itertools import combinations
from math import gcd

from family_samples import random_nice_gluing, random_semigroup

from curvegluing.gluing import verify_instance
from curvegluing.semigroup import minimal_generators
from curvegluing.toric import curve, is_complete_intersection


def in_semigroup(n, gens):
    """Is n a sum of elements of ``gens``?  Reachability up to n."""
    reach = [True] + [False] * n
    for i in range(1, n + 1):
        reach[i] = any(g <= i and reach[i - g] for g in gens)
    return reach[n]


@lru_cache(maxsize=None)
def delorme_ci(gens):
    """Delorme's criterion on a sorted minimal generating tuple."""
    if len(gens) == 1:
        return True  # <1>
    first, rest = gens[0], gens[1:]
    # A1 holds the first generator, so each split is tried once
    for r in range(len(rest)):
        for picked in combinations(rest, r):
            a1 = (first, *picked)
            a2 = tuple(g for g in rest if g not in picked)
            d1, d2 = gcd(*a1), gcd(*a2)
            s1 = tuple(g // d1 for g in a1)
            s2 = tuple(g // d2 for g in a2)
            if in_semigroup(d2, s1) and in_semigroup(d1, s2) and \
                    delorme_ci(s1) and delorme_ci(s2):
                return True
    return False


class TestDelormeOracle:
    def test_herzog_embedding_dimension_three(self):
        # Herzog (1970): a semigroup of embedding dimension 3 is a complete
        # intersection exactly when it is symmetric
        seen = set()
        for gens in combinations(range(3, 30), 3):
            if gcd(*gens) != 1:
                continue
            S = minimal_generators(gens)
            if len(S.generators) == 3:
                seen.add(delorme_ci(S.generators))
                assert delorme_ci(S.generators) == S.is_symmetric(), gens
        assert seen == {True, False}

    def test_known_verdicts(self):
        assert delorme_ci((1,))
        assert delorme_ci((2, 3))
        assert not delorme_ci((3, 4, 5))
        # the worked gluing of the paper, C(5,12) glued to C(7,8)
        assert delorme_ci((105, 119, 136, 252))


class TestAgainstPresentationSize:
    def test_coprime_pairs(self):
        for a in range(1, 30):
            for b in range(a + 1, 30):
                if gcd(a, b) == 1:
                    C = curve([a, b])
                    assert delorme_ci(C.generators)
                    assert is_complete_intersection(C)

    def test_random_curves(self):
        rng = random.Random(331)
        seen = set()
        for i in range(150):
            S = random_semigroup(rng, 3 + i % 3, max_gen=44)
            verdict = delorme_ci(S.generators)
            seen.add(verdict)
            assert is_complete_intersection(curve(S.generators)) == verdict, \
                S.generators
        assert seen == {True, False}

    def test_nice_gluings(self):
        rng = random.Random(337)
        seen = set()
        for i in range(60):
            spec = random_nice_gluing(rng, dim1=2 + i % 2, dim2=2 + i // 2 % 2)
            verdict = delorme_ci(tuple(sorted(spec.glued_generators)))
            seen.add(verdict)
            report = verify_instance(spec, cross_check_ideal=False)
            assert report.complete_intersection == verdict, spec
        assert seen == {True, False}
