import random
from itertools import combinations_with_replacement

import pytest

from family_samples import random_nice_gluing, random_semigroup

from curvegluing.basis import buchberger, is_member_global
from curvegluing.gluing import glued_ideal
from curvegluing.polyalg import degrevlex, m_divides, parse_polynomial
from curvegluing.toric import (MonomialCurve, curve, defining_ideal,
                               ideals_equal, is_complete_intersection,
                               minimal_generator_count)


class TestDefiningIdeal:
    def test_cuspidal_cubic(self):
        C = curve([2, 3])
        assert [g.terms for g in defining_ideal(C)] == \
            [parse_polynomial("x1^3 - x2^2", C.names).terms]

    def test_5_12(self):
        C = curve([5, 12])
        gens = defining_ideal(C)
        assert len(gens) == 1
        assert gens[0] == parse_polynomial("x1^12 - x2^5", C.names)

    def test_6_7_15_matches_presentation(self):
        C = curve([6, 7, 15])
        gens = defining_ideal(C)
        assert len(gens) == 2
        expected = [parse_polynomial("x1^5 - x3^2", C.names),
                    parse_polynomial("x1*x3 - x2^3", C.names)]
        assert ideals_equal(gens, expected, 3)
        got = {frozenset(g.terms) for g in gens}
        want = {frozenset(g.terms) for g in expected} | \
            {frozenset((-g).terms) for g in expected}
        assert got <= want

    def test_kernel_soundness_random(self):
        rng = random.Random(67)
        for _ in range(25):
            gens = sorted({rng.randint(2, 25) for _ in range(rng.randint(2, 4))})
            gens.append(gens[-1] + 1)
            C = curve(gens)
            for g in defining_ideal(C):
                values = {sum(e * n for e, n in zip(m, C.generators))
                          for m in g.terms}
                assert len(values) == 1

    @pytest.mark.parametrize("gens", [[2, 3], [3, 4, 5], [6, 7, 15], [4, 6, 7]])
    def test_low_degree_kernel_completeness(self, gens):
        # the ideal's filtered dimension up to degree D must match the
        # nullspace dimension of the monomial -> semigroup-value map
        C = curve(gens)
        D = 12
        order = degrevlex(C.nvars)
        gb = buchberger(defining_ideal(C), order)
        lt = gb.leading_monomials()
        n_std = 0
        values = set()
        n_monos = 0
        for d in range(D + 1):
            for mono in _monomials_of_degree(d, C.nvars):
                n_monos += 1
                values.add(sum(e * n for e, n in zip(mono, C.generators)))
                if not any(m_divides(m, mono) for m in lt):
                    n_std += 1
        # computed side: dim of degree-<=D piece = monomials - standard ones
        # oracle side:   monomials - attained semigroup values
        assert n_monos - n_std == n_monos - len(values)


class TestMinimalGeneratorCount:
    def test_principal(self):
        C = curve([2, 3])
        assert minimal_generator_count(defining_ideal(C), 2) == 1

    def test_6_7_15_is_complete_intersection(self):
        C = curve([6, 7, 15])
        assert minimal_generator_count(defining_ideal(C), 3) == 2
        assert is_complete_intersection(C)

    def test_3_4_5_needs_three(self):
        C = curve([3, 4, 5])
        assert minimal_generator_count(defining_ideal(C), 3) == 3
        assert not is_complete_intersection(C)

    def test_glued_family_member(self):
        C = MonomialCurve((16, 24, 28, 35), ("x1", "x2", "y1", "y2"))
        gens = defining_ideal(C)
        assert minimal_generator_count(gens, 4) == 3
        assert is_complete_intersection(C)

    def test_redundant_generator_dropped(self):
        C = curve([2, 3])
        f = parse_polynomial("x1^3 - x2^2", C.names)
        g = f * parse_polynomial("x1 + x2", C.names)
        assert minimal_generator_count([f, g], 2) == 1

    def test_complete_intersection_is_the_presentation_size(self):
        rng = random.Random(71)
        for embdim in (2, 3, 4):
            for _ in range(8):
                C = curve(random_semigroup(rng, embdim).generators)
                reference = minimal_generator_count(defining_ideal(C), embdim)
                assert is_complete_intersection(C) == (reference == embdim - 1)

    def test_line_is_complete_intersection(self):
        C = curve([1])
        assert defining_ideal(C) == []
        assert is_complete_intersection(C)

    def test_matches_fixed_point_loop_on_glued_ideals(self):
        rng = random.Random(61)
        for _ in range(12):
            spec = random_nice_gluing(rng, dim1=rng.randint(2, 3), dim2=2)
            gens = glued_ideal(spec)
            nvars = len(spec.glued_generators)
            # homogeneous multiples give the pruner redundant members to drop
            x1 = (1,) + (0,) * (nvars - 1)
            padded = [gens[0] * gens[-1]] + gens + [gens[1].mul_term(2, x1)]
            for trial in (gens, padded):
                assert minimal_generator_count(trial, nvars) == \
                    _fixed_point_count(trial, nvars)


class TestMonomialCurve:
    def test_block_naming_preserved(self):
        C = MonomialCurve((105, 252, 119, 136), ("x1", "x2", "y1", "y2"))
        assert C.generators == (105, 252, 119, 136)

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            MonomialCurve((2, 3, 4), ("x1", "x2", "x3"))

    @pytest.mark.parametrize("gens", [(3, 5, 3), (4, 6), ()])
    def test_rejects_duplicates_gcd_and_empty(self, gens):
        with pytest.raises(ValueError):
            MonomialCurve(gens, tuple(f"x{i + 1}" for i in range(len(gens))))

    def test_semigroup_is_built_once(self):
        C = MonomialCurve((7, 3, 5), ("x1", "x2", "x3"))
        assert C.semigroup is C.semigroup
        assert C.semigroup.generators == (3, 5, 7)
        assert C == MonomialCurve((7, 3, 5), ("x1", "x2", "x3"))

    def test_curve_sorts_and_minimalizes(self):
        C = curve([12, 5])
        assert C.generators == (5, 12)
        assert C.names == ("x1", "x2")


def _monomials_of_degree(d, n):
    for combo in combinations_with_replacement(range(n), d):
        mono = [0] * n
        for v in combo:
            mono[v] += 1
        yield tuple(mono)


def _fixed_point_count(gens, nvars):
    """Reference: drop any generator in the ideal of the others, until none is."""
    order = degrevlex(nvars)
    kept = [g for g in gens if not g.is_zero()]
    changed = True
    while changed and len(kept) > 1:
        changed = False
        for i in range(len(kept)):
            if is_member_global(kept[i], kept[:i] + kept[i + 1:], order):
                kept.pop(i)
                changed = True
                break
    return len(kept)


def test_random_semigroup_rejects_embedding_dimension_below_two():
    # generators are drawn from 2.., so <1> can never come out of the loop
    for embdim in (1, 0):
        with pytest.raises(ValueError, match="at least 2"):
            random_semigroup(random.Random(0), embdim)


def test_random_semigroup_rejects_too_small_generator_range():
    # 2..4 holds no minimal set of three: {2, 3, 4} minimalizes to {2, 3}
    with pytest.raises(ValueError, match="max_gen >= 5"):
        random_semigroup(random.Random(0), 3, max_gen=4)


def test_random_semigroup_smallest_feasible_range():
    # {3, 4, 5} is the only minimal set of three in 2..5
    S = random_semigroup(random.Random(0), 3, max_gen=5)
    assert S.generators == (3, 4, 5)
