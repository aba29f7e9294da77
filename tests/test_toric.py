import random
from itertools import combinations_with_replacement, product
from math import gcd
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from family_samples import random_nice_gluing, random_semigroup

from curvegluing.basis import buchberger, interreduce_global, is_member_global
from curvegluing.errors import ArityMismatch, NonHomogeneousBinomial
from curvegluing import toric
from curvegluing.gluing import glued_ideal
from curvegluing.polyalg import (Polynomial, degrevlex, elimination,
                                 m_deg, m_divides, parse_polynomial,
                                 polynomial_to_str)
from curvegluing.toric import (MonomialCurve, as_polynomial, curve,
                               defining_ideal, fiber_connected, ideals_equal,
                               is_complete_intersection,
                               minimal_generator_count)


def _polys(gens):
    """Exponent pairs (lead, trail) as the Polynomials x^lead - x^trail."""
    return [as_polynomial(g) for g in gens]


class TestDefiningIdeal:
    def test_cuspidal_cubic(self):
        C = curve([2, 3])
        assert [g.terms for g in _polys(defining_ideal(C))] == \
            [parse_polynomial("x1^3 - x2^2", C.names).terms]

    def test_5_12(self):
        C = curve([5, 12])
        gens = _polys(defining_ideal(C))
        assert len(gens) == 1
        assert gens[0] == parse_polynomial("x1^12 - x2^5", C.names)

    def test_6_7_15_matches_presentation(self):
        C = curve([6, 7, 15])
        gens = _polys(defining_ideal(C))
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
            for g in _polys(defining_ideal(C)):
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
        gb = buchberger(_polys(defining_ideal(C)), order)
        lt = gb.leads
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


def _eliminate_and_prune(C):
    """The Polynomial path that ``defining_ideal`` replaces: eliminate t from
    <x_i - t^{n_i}> with ``buchberger``, keep the t-free part, interreduce,
    and prune greedily with one ``is_member_global`` per candidate."""
    k = C.nvars
    gens = [Polynomial.variable(i + 1, k + 1) - Polynomial.variable(0, k + 1, n)
            for i, n in enumerate(C.generators)]
    order = elimination(k + 1, {0})
    gb = buchberger(interreduce_global(gens, order), order)
    eliminated = [Polynomial({m[1:]: c for m, c in g.terms.items()})
                  for g in gb.elements if all(m[0] == 0 for m in g.terms)]
    xorder = degrevlex(k)
    kept = sorted(interreduce_global(eliminated, xorder),
                  key=lambda g: sorted(map(m_deg, g.terms)))
    i = len(kept) - 1
    while i >= 0 and len(kept) > 1:
        rest = kept[:i] + kept[i + 1:]
        if is_member_global(kept[i], rest, xorder):
            kept = rest
        i -= 1
    return kept


def _listing(gens, names):
    """Each generator's terms in insertion order, and its printed form."""
    return [(list(g.terms.items()), polynomial_to_str(g, names)) for g in gens]


class TestAgainstPolynomialElimination:
    """``defining_ideal`` lists exactly what the Polynomial path lists."""

    @pytest.mark.parametrize("gens", [(6, 7, 15), (5, 12), (2, 3), (4, 5)])
    def test_paper_curves(self, gens):
        C = curve(gens)
        assert _listing(_polys(defining_ideal(C)), C.names) == \
            _listing(_eliminate_and_prune(C), C.names)

    def test_every_coprime_pair_in_both_binding_orders(self):
        # two-generator curves are presented without elimination
        for b in range(3, 60):
            for a in range(2, b):
                if gcd(a, b) != 1:
                    continue
                for gens in ((a, b), (b, a)):
                    C = MonomialCurve(gens, ("x1", "x2"))
                    assert _listing(_polys(defining_ideal(C)), C.names) == \
                        _listing(_eliminate_and_prune(C), C.names), gens

    def test_line(self):
        C = curve([1])
        assert defining_ideal(C) == _eliminate_and_prune(C) == []

    @pytest.mark.parametrize("gens", [(1,), (2, 3), (12, 5), (39, 40)])
    def test_fewer_than_three_generators_do_not_eliminate(self, gens,
                                                          monkeypatch):
        def eliminating(*args, **kwargs):
            raise AssertionError(f"{gens} eliminated")

        monkeypatch.setattr(toric, "_complete_binomials", eliminating)
        monkeypatch.setattr(toric, "_prune_redundant", eliminating)
        defining_ideal(MonomialCurve(gens, ("x", "y")[:len(gens)]))

    def test_random_curves(self):
        rng = random.Random(89)
        for i in range(48):
            S = random_semigroup(rng, 2 + i % 4, max_gen=19)
            C = MonomialCurve(S.generators,
                              tuple(f"y{j + 1}" for j in range(len(S.generators))))
            assert _listing(_polys(defining_ideal(C)), C.names) == \
                _listing(_eliminate_and_prune(C), C.names)


@st.composite
def binomial_lists(draw):
    """Monic binomials (lead, trail) under degrevlex, repeats allowed."""
    n = draw(st.integers(2, 4))
    order = degrevlex(n)
    exps = st.tuples(*[st.integers(0, 2)] * n)
    pool = draw(st.lists(st.tuples(exps, exps).filter(lambda p: p[0] != p[1]),
                         min_size=1, max_size=4))
    bins = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    return order, [tuple(sorted(p, key=order.key, reverse=True)) for p in bins]


class TestBinomialKernel:
    """The exponent-pair completion and interreduction list what
    ``buchberger`` and ``interreduce_global`` list, term order included."""

    @settings(max_examples=80, deadline=None)
    @given(binomial_lists())
    def test_matches_the_polynomial_algorithms(self, drawn):
        order, bins = drawn
        polys = [Polynomial({lead: 1, trail: -1}) for lead, trail in bins]

        def listing(pairs):
            return [[(lead, 1), (trail, -1)] for lead, trail in pairs]

        assert listing(toric._interreduce_binomials(bins, order.key)) == \
            [list(g.terms.items()) for g in interreduce_global(polys, order)]
        assert listing(toric._complete_binomials(bins, order.key)) == \
            [list(g.terms.items()) for g in buchberger(polys, order).elements]


@st.composite
def homogeneous_moves(draw):
    """Positive weights, pure difference binomials homogeneous for them, and
    a query pair: a walk of moves (a member) or two exponents of one degree
    (either)."""
    n = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))

    def fiber(d):
        return [m for m in product(range(d + 1), repeat=n)
                if sum(map(mul, m, weights)) == d]

    moves = []
    for d in draw(st.lists(st.integers(2, 9), min_size=1, max_size=4)):
        exps = fiber(d)
        if len(exps) > 1:
            moves.append(tuple(draw(st.lists(st.sampled_from(exps), min_size=2,
                                             max_size=2, unique=True))))
    if not moves:
        moves.append(((weights[1],) + (0,) * (n - 1),
                      (0, weights[0]) + (0,) * (n - 2)))
    if draw(st.booleans()):
        u, v = draw(st.sampled_from(moves))
        shift = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        a = b = tuple(map(add, u, shift))
        seen = {a}
        for _ in range(draw(st.integers(1, 4))):
            ahead = [tuple(map(add, map(sub, b, p), q))
                     for p, q in moves + [m[::-1] for m in moves]
                     if all(map(int.__le__, p, b))]
            ahead = [c for c in ahead if c not in seen]
            if not ahead:
                break
            b = draw(st.sampled_from(ahead))
            seen.add(b)
    else:
        c = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        exps = fiber(sum(map(mul, c, weights)))
        a, b = draw(st.lists(st.sampled_from(exps), min_size=2, max_size=2,
                             unique=len(exps) > 1))
    return weights, moves, a, b


class TestFiberConnectivity:
    @settings(max_examples=100, deadline=None)
    @given(homogeneous_moves())
    def test_matches_ideal_membership(self, drawn):
        weights, moves, a, b = drawn
        order = degrevlex(len(weights))
        polys = [Polynomial({u: 1, v: -1}) for u, v in moves]
        query = Polynomial.term(1, a) - Polynomial.term(1, b)  # 0 if a == b
        assert fiber_connected(a, b, moves, weights) == \
            is_member_global(query, polys, order)

    def test_members_and_non_members(self):
        # x1^2 - x2 and x2^2 - x3 under weights (1, 2, 4)
        moves = [((2, 0, 0), (0, 1, 0)), ((0, 2, 0), (0, 0, 1))]
        w = (1, 2, 4)
        assert fiber_connected((4, 0, 0), (0, 0, 1), moves, w)
        assert fiber_connected((1, 0, 1), (1, 2, 0), moves, w)
        assert not fiber_connected((0, 0, 1), (2, 1, 0), moves[:1], w)
        assert fiber_connected((1, 0, 0), (1, 0, 0), [], w)

    @pytest.mark.parametrize("a,b,moves,weights", [
        ((1, 0), (0, 1), [], (1, 2)),                 # the pair
        ((1, 0), (0, 1), [((1, 0), (2, 0))], (1, 1)),  # a move: x1 -> x1^2 ...
        ((1, 0), (0, 1), [((1, 0), (0, 1))], (1, 0)),  # a zero weight
    ])
    def test_refuses_what_could_search_forever(self, a, b, moves, weights):
        with pytest.raises(NonHomogeneousBinomial):
            fiber_connected(a, b, moves, weights)

    def test_refuses_an_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            fiber_connected((1, 0), (0, 1), [], (1,))


class TestMinimalGeneratorCount:
    def test_principal(self):
        C = curve([2, 3])
        assert minimal_generator_count(_polys(defining_ideal(C)), 2) == 1

    def test_6_7_15_is_complete_intersection(self):
        C = curve([6, 7, 15])
        assert minimal_generator_count(_polys(defining_ideal(C)), 3) == 2
        assert is_complete_intersection(C)

    def test_3_4_5_needs_three(self):
        C = curve([3, 4, 5])
        assert minimal_generator_count(_polys(defining_ideal(C)), 3) == 3
        assert not is_complete_intersection(C)

    def test_glued_family_member(self):
        C = MonomialCurve((16, 24, 28, 35), ("x1", "x2", "y1", "y2"))
        gens = _polys(defining_ideal(C))
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
                reference = minimal_generator_count(
                    _polys(defining_ideal(C)), embdim)
                assert is_complete_intersection(C) == (reference == embdim - 1)

    def test_line_is_complete_intersection(self):
        C = curve([1])
        assert defining_ideal(C) == []
        assert is_complete_intersection(C)

    def test_matches_fixed_point_loop_on_glued_ideals(self):
        rng = random.Random(61)
        for _ in range(12):
            spec = random_nice_gluing(rng, dim1=rng.randint(2, 3), dim2=2)
            gens = _polys(glued_ideal(spec))
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
