import heapq
import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from curvegluing import semigroup
from curvegluing.errors import (EmptyGenerators, GcdNotOne,
                                NonPositiveGenerator, WorkBudgetExceeded)
from curvegluing.semigroup import (NumericalSemigroup, Representation,
                                   _round_robin, minimal_generators)

from family_samples import kunz_closure


class TestMinimalGenerators:
    def test_drops_redundant(self):
        assert minimal_generators([2, 3, 4]).generators == (2, 3)

    def test_keeps_minimal(self):
        assert minimal_generators([5, 12]).generators == (5, 12)

    def test_15_not_in_6_7(self):
        assert minimal_generators([6, 7, 15]).generators == (6, 7, 15)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            raw = [rng.randint(2, 60) for _ in range(rng.randint(1, 5))]
            raw.append(raw[0] + 1)  # force gcd 1
            S = minimal_generators(raw)
            again = minimal_generators(list(S.generators))
            assert again.generators == S.generators

    def test_gcd_not_one(self):
        with pytest.raises(GcdNotOne):
            minimal_generators([4, 6])

    def test_empty(self):
        with pytest.raises(EmptyGenerators):
            minimal_generators([])

    def test_constructor_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            NumericalSemigroup((2, 3, 4))

    def test_non_positive(self):
        with pytest.raises(NonPositiveGenerator):
            minimal_generators([0, 3])
        with pytest.raises(NonPositiveGenerator):
            NumericalSemigroup((-1, 3))

    @pytest.mark.parametrize("gens,error", [
        ([], EmptyGenerators),
        ([0, 3], NonPositiveGenerator),
        ([-2, 3], NonPositiveGenerator),
        ([4, 6], GcdNotOne),
    ])
    def test_both_entry_points_refuse_alike(self, gens, error):
        with pytest.raises(error) as raw:
            minimal_generators(list(reversed(gens)))
        with pytest.raises(error) as built:
            NumericalSemigroup(tuple(gens))
        # each names the generators as its caller gave them
        if gens:
            assert str(list(reversed(gens))) in str(raw.value)
            assert str(gens) in str(built.value)


class TestMembership:
    def test_17_in_5_12(self):
        rep = minimal_generators([5, 12]).contains(17)
        assert rep == Representation((1, 1), 17)

    def test_zero(self):
        assert minimal_generators([5, 12]).contains(0) == Representation((0, 0), 0)

    def test_13_not_in_5_12(self):
        # exhaustive: 5a + 12b = 13 has no non-negative solution
        assert not any(5 * a + 12 * b == 13 for a in range(4) for b in range(2))
        assert minimal_generators([5, 12]).contains(13) is None

    def test_representation_recomputes(self):
        rng = random.Random(3)
        for _ in range(100):
            gens = sorted({rng.randint(2, 30) for _ in range(3)})
            gens.append(gens[-1] + 1)
            S = minimal_generators(gens)
            n = rng.randint(0, 200)
            rep = S.contains(n)
            if rep is not None:
                assert sum(c * g for c, g in
                           zip(rep.coefficients, S.generators)) == n == rep.value

    def test_membership_against_sieve(self):
        rng = random.Random(23)
        for _ in range(60):
            S = minimal_generators(_random_gens(rng))
            bound = max(S.frobenius, 0) + 2 * S.generators[-1]
            member = _sieve(S.generators, bound)
            for n in range(bound + 1):
                rep = S.contains(n)
                assert (rep is not None) == member[n]
                if rep is not None:
                    assert sum(c * g for c, g in
                               zip(rep.coefficients, S.generators)) == n


class TestAllRepresentations:
    def test_unique_rep(self):
        reps = minimal_generators([2, 3]).all_representations(7)
        assert [r.coefficients for r in reps] == [(2, 1)]

    def test_5_12_of_17(self):
        reps = minimal_generators([5, 12]).all_representations(17)
        assert [r.coefficients for r in reps] == [(1, 1)]

    def test_unary(self):
        reps = minimal_generators([1]).all_representations(5)
        assert [r.coefficients for r in reps] == [(5,)]

    def test_complete_against_brute_force(self):
        S = minimal_generators([4, 6, 7])
        for n in range(40):
            brute = {(a, b, c)
                     for a in range(n // 4 + 1)
                     for b in range(n // 6 + 1)
                     for c in range(n // 7 + 1)
                     if 4 * a + 6 * b + 7 * c == n}
            assert {r.coefficients for r in S.all_representations(n)} == brute


def _max_size_witness(reps):
    """The reference: the longest of every listed factorization, ties going
    to the lexicographically smallest; None when there is none."""
    if not reps:
        return None
    best_size = max(r.size for r in reps)
    return min((r for r in reps if r.size == best_size),
               key=lambda r: r.coefficients)


class TestMaxLengthRepresentation:
    def test_matches_the_enumeration(self):
        rng = random.Random(20)
        draws = [((1,), 0), ((1,), 17), ((4, 5, 6, 7), 0), ((5, 12), 7)]
        while len(draws) < 4000:
            raw = rng.sample(range(1, 40), rng.randint(1, 5))
            if gcd(*raw) == 1:
                draws.append((raw, rng.randint(0, 300)))
        non_members = 0
        for raw, n in draws:
            S = minimal_generators(raw)
            got = S.max_length_representation(n)
            assert got == _max_size_witness(S.all_representations(n)), \
                (S.generators, n)
            non_members += got is None
            if got is not None:
                # the exchange bound: g0 copies of g_i would be longer as
                # g_i copies of g0
                assert all(c < S.generators[0] for c in got.coefficients[1:])
        assert non_members > 50

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            minimal_generators([2, 3]).max_length_representation(-1)

    def test_large_member_needs_a_small_table(self):
        rep = minimal_generators([4, 5, 6, 7]).max_length_representation(
            10**12 + 1)
        assert rep.coefficients == (249999999999, 1, 0, 0)

    def test_witness_budget_is_inclusive(self, monkeypatch):
        # T = 3 * (5 + 6 + 7) = 54: two rows of 55 cells
        S = minimal_generators([4, 5, 6, 7])
        monkeypatch.setattr(semigroup, "MAX_WITNESS_CELLS", 110)
        assert S.max_length_representation(101).coefficients == (24, 1, 0, 0)
        monkeypatch.setattr(semigroup, "MAX_WITNESS_CELLS", 109)
        with pytest.raises(WorkBudgetExceeded, match="MAX_WITNESS_CELLS"):
            S.max_length_representation(101)
        assert S.max_length_representation(3) is None  # no table for these

    def test_two_generators_build_no_table(self, monkeypatch):
        monkeypatch.setattr(semigroup, "MAX_WITNESS_CELLS", 0)
        S = minimal_generators([999, 1000])
        assert S.max_length_representation(10**9).coefficients == (1001000, 1)
        assert minimal_generators([1]).max_length_representation(
            5).coefficients == (5,)


class TestFrobeniusApery:
    def test_2_3(self):
        assert minimal_generators([2, 3]).frobenius_and_apery() == (1, (0, 3))

    def test_two_generator_formula(self):
        # F = ab - a - b for coprime pairs, checked against the sieve
        rng = random.Random(5)
        for _ in range(40):
            a = rng.randint(2, 25)
            b = rng.randint(a + 1, 40)
            if gcd(a, b) != 1:
                continue
            S = minimal_generators([a, b])
            assert S.frobenius == a * b - a - b

    def test_6_7_15_by_sieve(self):
        S = minimal_generators([6, 7, 15])
        frob = S.frobenius
        member = _sieve(S.generators, frob + 200)
        assert not member[frob]
        assert all(member[t] for t in range(frob + 1, frob + 200))
        assert frob == 23

    def test_apery_minimal_per_class(self):
        S = minimal_generators([6, 7, 15])
        frob, apery = S.frobenius_and_apery()
        member = _sieve(S.generators, frob + 6 + 1)
        for r, w in enumerate(apery):
            assert w % 6 == r
            assert member[w]
            assert all(not member[t] for t in range(r, w, 6))

    def test_unary(self):
        assert minimal_generators([1]).frobenius == -1

    def test_random_against_sieve(self):
        rng = random.Random(29)
        for _ in range(60):
            S = minimal_generators(_random_gens(rng))
            m = S.multiplicity
            frob, apery = S.frobenius_and_apery()
            bound = max(frob, 0) + 2 * m
            member = _sieve(S.generators, bound)
            assert frob == max([t for t in range(bound + 1) if not member[t]],
                               default=-1)
            for r, w in enumerate(apery):
                assert w == next(t for t in range(r, bound + 1, m) if member[t])


class TestAperyTable:
    """The round-robin table against Dijkstra."""

    @pytest.mark.parametrize("gens", [
        (1,), (2, 3), (6, 9, 10), (12, 18, 20, 27), (6, 10, 15),
        (4, 6, 9), (10, 12, 15, 16, 17), (8, 12, 14, 19),
    ])
    def test_fixed_sets(self, gens):
        # after the line and the cusp, gcd(g, m) > 1 for some further
        # generator g: its residues split into several cycles, some of them
        # unreached when it is walked
        _check_apery_table(gens)

    def test_random_generator_sets(self):
        rng = random.Random(41)
        for _ in range(150):
            gens = sorted(set(_random_gens(rng)))
            _check_apery_table(tuple(gens))

    def test_redundant_generators(self):
        # ``minimal_generators`` builds the table of a set before pruning it
        rng = random.Random(43)
        for _ in range(60):
            gens = sorted(set(_random_gens(rng)))
            gens = sorted(set(gens + [gens[0] + gens[-1], 2 * gens[1]]))
            _check_apery_table(tuple(gens))


def _check_apery_table(gens):
    assert _round_robin(gens) == _dijkstra_apery(gens)


class TestAperyField:
    """Each semigroup carries Ap(S, m), built once by whoever builds it."""

    def test_one_table_for_a_redundant_set(self, monkeypatch):
        built = []

        def spying(gens):
            built.append(gens)
            return _round_robin(gens)

        monkeypatch.setattr(semigroup, "_round_robin", spying)
        S = minimal_generators([9, 6, 10, 15, 12, 21])
        assert S.generators == (6, 9, 10)
        assert built == [(6, 9, 10, 12, 15, 21)]
        assert S.apery == _round_robin((6, 9, 10))

    def test_table_does_not_enter_equality_hash_or_repr(self):
        S = NumericalSemigroup((4, 5))
        T = NumericalSemigroup((4, 5), (0, 5, 10, 15))
        assert S == T and hash(S) == hash(T) == hash(NumericalSemigroup((4, 5)))
        assert repr(S) == "NumericalSemigroup(generators=(4, 5))"

    def test_a_passed_table_is_checked_for_minimality(self):
        # Ap(<4, 5, 9>, 4) makes 9 = 4 + 5 redundant
        with pytest.raises(ValueError, match="not minimal"):
            NumericalSemigroup((4, 5, 9), _round_robin((4, 5, 9)))


def _dijkstra_apery(gens):
    """Ap(S, gens[0]) as shortest paths: the edge r -> r + g costs g."""
    m = gens[0]
    dist = [None] * m
    heap = [(0, 0)]
    while heap:
        w, r = heapq.heappop(heap)
        if dist[r] is None:
            dist[r] = w
            for g in gens:
                heapq.heappush(heap, (w + g, (w + g) % m))
    return tuple(dist)


class TestWorkBudget:
    def test_oversized_multiplicity_refused(self):
        big = semigroup.MAX_MULTIPLICITY + 1
        with pytest.raises(WorkBudgetExceeded, match="WorkBudget"):
            minimal_generators([big, big + 1])
        with pytest.raises(WorkBudgetExceeded):
            NumericalSemigroup((big, big + 1))

    def test_the_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(semigroup, "MAX_MULTIPLICITY", 5)
        build = semigroup._round_robin  # no cached table
        assert build((5, 7)) == (0, 21, 7, 28, 14)
        with pytest.raises(WorkBudgetExceeded):
            build((6, 7))


class TestSymmetry:
    def test_2_3(self):
        assert minimal_generators([2, 3]).is_symmetric()

    def test_glued_family_member(self):
        assert minimal_generators([16, 24, 28, 35]).is_symmetric()

    def test_3_4_5(self):
        # F = 2 and neither 1 nor 2 - 1 = 1 is a member
        assert not minimal_generators([3, 4, 5]).is_symmetric()

    def test_all_two_generator_semigroups_symmetric(self):
        for a in range(2, 31):
            for b in range(a + 1, 31):
                if gcd(a, b) == 1:
                    assert minimal_generators([a, b]).is_symmetric()

    def test_random_against_kunz(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(80):
            S = minimal_generators(_random_gens(rng))
            f = S.frobenius
            member = _sieve(S.generators, max(f, 0))
            kunz = all(member[z] != member[f - z] for z in range(f + 1))
            assert S.is_symmetric() == kunz == kunz_closure(S)
            seen.add(kunz)
        assert seen == {True, False}


class TestOrderFiltration:
    def test_2_3(self):
        assert minimal_generators([2, 3]).order_filtration_hilbert(3) == [1, 2, 2, 2]

    def test_unary(self):
        assert minimal_generators([1]).order_filtration_hilbert(2) == [1, 1, 1]

    def test_6_7_15(self):
        S = minimal_generators([6, 7, 15])
        assert S.order_filtration_hilbert(6) == [1, 3, 4, 5, 5, 6, 6]

    def test_eventually_constant_at_multiplicity_when_cm(self):
        # two-generator cones are always Cohen-Macaulay, so H stabilizes at m
        S = minimal_generators([5, 12])
        hf = S.order_filtration_hilbert(20)
        assert hf[-5:] == [5] * 5

    def test_stabilization_bound(self):
        rng = random.Random(19)
        for _ in range(20):
            gens = sorted({rng.randint(2, 20) for _ in range(rng.randint(2, 4))})
            gens.append(gens[-1] + 1)
            S = minimal_generators(gens)
            n = 30
            hf = S.order_filtration_hilbert(n)
            tail = hf[-3:]
            assert tail[0] == tail[1] == tail[2]


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=5))
def test_minimal_generators_invariants(raw):
    g = 0
    for n in raw:
        g = gcd(g, n)
    if g != 1:
        raw = raw + [max(raw) * 2 + 1]
    S = minimal_generators(raw)
    gens = S.generators
    assert list(gens) == sorted(set(gens))
    # none of the kept generators is a combination of the others
    for i, x in enumerate(gens):
        others = gens[:i] + gens[i + 1:]
        if others:
            member = _sieve(others, x)
            assert not member[x]


def _random_gens(rng):
    gens = [rng.randint(2, 40) for _ in range(rng.randint(2, 5))]
    return gens + [gens[0] + 1]  # force gcd 1


def _sieve(gens, bound):
    member = [False] * (bound + 1)
    member[0] = True
    for s in range(1, bound + 1):
        member[s] = any(s >= g and member[s - g] for g in gens)
    return member
