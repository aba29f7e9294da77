import random
import tracemalloc
from itertools import combinations_with_replacement

import pytest

from curvegluing.basis import standard_basis
from curvegluing import hilbert
from curvegluing.errors import DimensionMismatch, WorkBudgetExceeded
from curvegluing.gluing import glued_curve, glued_ideal, validate_gluing
from curvegluing.hilbert import (HilbertData, certifies_defining_ideal,
                                 divide_by_one_minus_t, hilbert_from_lms,
                                 hilbert_numerator, local_hilbert_function,
                                 nondecreasing_verdict, poly_mul,
                                 product_factorization_check)
from curvegluing.polyalg import (Polynomial, m_divides, minimal_indices,
                                 negdegrevlex)
from curvegluing.semigroup import minimal_generators
from curvegluing.tangentcone import canonical_priority, tangent_cone
from curvegluing.toric import (MonomialCurve, as_polynomial, curve,
                               defining_ideal)

LMS_32 = [(0, 0, 2), (1, 0, 1), (0, 3, 1), (0, 6, 0)]


def poly_add(a, b):
    """Sum of two coefficient lists, trailing zeros trimmed."""
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
           for i in range(max(len(a), len(b)))]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_shift(a, k):
    """t^k times a coefficient list."""
    return poly_add([0] * k + list(a), [0])


def brute_standard_monomial_counts(lms, nvars, maxdeg):
    """Count monomials outside the ideal, degree by degree."""
    counts = []
    for d in range(maxdeg + 1):
        n = 0
        for combo in combinations_with_replacement(range(nvars), d):
            mono = [0] * nvars
            for v in combo:
                mono[v] += 1
            if not any(m_divides(m, tuple(mono)) for m in lms):
                n += 1
        counts.append(n)
    return counts


def expand_series(numerator, nvars, maxdeg):
    series = (list(numerator) + [0] * (maxdeg + 1))[:maxdeg + 1]
    for _ in range(nvars):
        acc = 0
        out = []
        for c in series:
            acc += c
            out.append(acc)
        series = out
    return series


class TestNumerator:
    def test_principal(self):
        assert hilbert_numerator([(0, 2)], 2) == [1, 0, -1]

    def test_free_ring(self):
        assert hilbert_numerator([], 3) == [1]

    def test_pure_power_sequence(self):
        # pairwise coprime generators: product of (1 - t^deg)
        num = hilbert_numerator([(2, 0), (0, 3)], 2)
        assert num == poly_mul([1, 0, -1], [1, 0, 0, -1])

    def test_component_leading_ideal(self):
        # the 3-variable cone leading ideal; counts frozen from the
        # brute-force standard-monomial oracle
        brute = brute_standard_monomial_counts(LMS_32, 3, 10)
        assert brute == [1, 3, 4, 5, 5, 6, 6, 6, 6, 6, 6]
        num = hilbert_numerator(LMS_32, 3)
        assert expand_series(num, 3, 10) == brute

    def test_pivot_rules_agree(self):
        rng = random.Random(79)
        for _ in range(60):
            nvars = rng.randint(1, 4)
            lms = {tuple(rng.randint(0, 4) for _ in range(nvars))
                   for _ in range(rng.randint(1, 6))}
            lms = [m for m in lms if sum(m) > 0]
            if not lms:
                continue
            got = hilbert_numerator(lms, nvars)
            for rule in ("frequent", "first"):
                assert got == dense_weighted_numerator(lms, nvars,
                                                       (1,) * nvars, rule)

    def test_random_against_brute_force(self):
        rng = random.Random(83)
        for _ in range(60):
            nvars = rng.randint(1, 4)
            lms = {tuple(rng.randint(0, 5) for _ in range(nvars))
                   for _ in range(rng.randint(1, 6))}
            lms = [m for m in lms if 0 < sum(m) <= 6]
            if not lms:
                continue
            num = hilbert_numerator(lms, nvars)
            assert expand_series(num, nvars, 12) == \
                brute_standard_monomial_counts(lms, nvars, 12)


def unweighted_numerator(lms, nvars):
    """The standard-grading recursion with dense (1 - t^d) products."""
    lms = [lms[i] for i in minimal_indices([tuple(m) for m in lms])]
    if not lms:
        return [1]
    if len(lms) == 1 or all(not any(a and b for a, b in zip(u, v))
                            for i, u in enumerate(lms) for v in lms[i + 1:]):
        out = [1]
        for m in lms:
            out = poly_mul(out, [1] + [0] * (sum(m) - 1) + [-1])
        return out
    var = max(range(nvars), key=lambda v: sum(1 for m in lms if m[v]))
    power = min(m[var] for m in lms if m[var])
    pivot = tuple(power if v == var else 0 for v in range(nvars))
    plus = [pivot] + [m for m in lms if m[var] < power]
    colon = [tuple(max(0, e - power) if v == var else e
                   for v, e in enumerate(m)) for m in lms]
    return poly_add(unweighted_numerator(plus, nvars),
                    poly_shift(unweighted_numerator(colon, nvars), power))


def brute_weighted_counts(lms, weights, maxdeg):
    """Standard monomials of each weighted degree 0..maxdeg, by enumeration."""
    counts = [0] * (maxdeg + 1)

    def rec(v, mono, deg):
        if v == len(weights):
            if not any(m_divides(m, tuple(mono)) for m in lms):
                counts[deg] += 1
            return
        e = 0
        while deg + e * weights[v] <= maxdeg:
            rec(v + 1, mono + [e], deg + e * weights[v])
            e += 1

    rec(0, [], 0)
    return counts


def expand_weighted_series(numerator, weights, maxdeg):
    series = (list(numerator) + [0] * (maxdeg + 1))[:maxdeg + 1]
    for w in weights:  # divide by (1 - t^w)
        for i in range(w, maxdeg + 1):
            series[i] += series[i - w]
    return series


def dense_weighted_numerator(lms, nvars, weights, pivot_rule):
    """The pivot recursion on dense coefficient lists, pivots as in hilbert."""
    lms = [lms[i] for i in minimal_indices([tuple(m) for m in lms])]
    if not lms:
        return [1]
    if any(sum(m) == 0 for m in lms):
        return [0]
    if len(lms) == 1 or all(not any(a and b for a, b in zip(u, v))
                            for i, u in enumerate(lms) for v in lms[i + 1:]):
        out = [1]
        for m in lms:  # times (1 - t^d) by one shift-and-subtract pass
            d = sum(e * w for e, w in zip(m, weights))
            prev, out = out, out + [0] * d
            for i, c in enumerate(prev):
                out[i + d] -= c
            out = poly_add(out, [0])  # trims trailing zeros
        return out
    counts = [sum(1 for m in lms if m[v]) for v in range(nvars)]
    if pivot_rule == "frequent":
        var = max(range(nvars), key=lambda v: counts[v])
    else:
        var = next(v for v in range(nvars) if counts[v] >= 2)
    power = min(m[var] for m in lms if m[var])
    pivot = tuple(power if v == var else 0 for v in range(nvars))
    plus = [pivot] + [m for m in lms if m[var] < power]
    colon = [tuple(max(0, e - power) if v == var else e
                   for v, e in enumerate(m)) for m in lms]
    return poly_add(
        dense_weighted_numerator(plus, nvars, weights, pivot_rule),
        poly_shift(dense_weighted_numerator(colon, nvars, weights, pivot_rule),
                   power * weights[var]))


class TestWeightedNumerator:
    def test_unit_weights_match_unweighted_recursion(self):
        rng = random.Random(211)
        for _ in range(80):
            nvars = rng.randint(1, 4)
            lms = {tuple(rng.randint(0, 4) for _ in range(nvars))
                   for _ in range(rng.randint(1, 7))}
            lms = [m for m in lms if sum(m) > 0]
            if not lms:
                continue
            expect = unweighted_numerator(lms, nvars)
            assert hilbert_numerator(lms, nvars) == expect
            assert hilbert_numerator(lms, nvars, weights=(1,) * nvars) == \
                expect
            for rule in ("frequent", "first"):
                assert dense_weighted_numerator(lms, nvars, (1,) * nvars,
                                                rule) == expect

    def test_random_against_brute_force(self):
        rng = random.Random(223)
        for _ in range(50):
            nvars = rng.randint(1, 4)
            weights = tuple(rng.randint(1, 5) for _ in range(nvars))
            lms = {tuple(rng.randint(0, 3) for _ in range(nvars))
                   for _ in range(rng.randint(1, 5))}
            lms = [m for m in lms if sum(m) > 0]
            if not lms:
                continue
            num = hilbert_numerator(lms, nvars, weights=weights)
            assert expand_weighted_series(num, weights, 24) == \
                brute_weighted_counts(lms, weights, 24)
            for rule in ("frequent", "first"):
                assert dense_weighted_numerator(lms, nvars, weights,
                                                rule) == num

    def test_large_weights_match_dense_recursion(self):
        rng = random.Random(227)
        for _ in range(60):
            nvars = rng.randint(1, 5)
            weights = tuple(rng.randint(1, 500) for _ in range(nvars))
            lms = {tuple(rng.randint(0, 4) for _ in range(nvars))
                   for _ in range(rng.randint(1, 7))}
            lms = [m for m in lms if sum(m) > 0]
            if not lms:
                continue
            num = hilbert_numerator(lms, nvars, weights=weights)
            for rule in ("frequent", "first"):
                assert num == dense_weighted_numerator(lms, nvars, weights,
                                                       rule)

    def test_principal_weighted(self):
        # <x^2> with deg x = 3: numerator 1 - t^6
        assert hilbert_numerator([(2, 0)], 2, weights=(3, 5)) == \
            [1, 0, 0, 0, 0, 0, -1]


def polynomial_leads(C, gens):
    """Leading monomials of a standard basis of ``gens`` under the cone's
    order, by the ``Polynomial`` engine: ``tangent_cone`` takes pure
    difference binomials only."""
    order = negdegrevlex(C.nvars, canonical_priority(C))
    return standard_basis(gens, order).leads


class TestCertificate:
    @pytest.mark.parametrize("gens", [[2, 3], [3, 5, 7], [6, 7, 15],
                                      [5, 12], [4, 6, 9], [8, 9, 10, 11]])
    def test_defining_ideal_certified(self, gens):
        C = curve(gens)
        assert certifies_defining_ideal(tangent_cone(C).lm_set, C)

    def test_binding_order_is_free(self):
        C = MonomialCurve((16, 24, 28, 35), ("x1", "x2", "y1", "y2"))
        assert certifies_defining_ideal(tangent_cone(C).lm_set, C)

    def test_proper_subideal_rejected(self):
        C = curve([3, 5, 7])
        gens = defining_ideal(C)
        for dropped in range(len(gens)):
            rest = gens[:dropped] + gens[dropped + 1:]
            rep = tangent_cone(C, ideal_gens=rest)
            assert not certifies_defining_ideal(rep.lm_set, C)

    def test_square_of_generator_rejected(self):
        C = curve([2, 3])
        (g,) = defining_ideal(C)
        square = as_polynomial(g) * as_polynomial(g)
        assert not certifies_defining_ideal(polynomial_leads(C, [square]), C)

    def test_zero_ideal_rejected(self):
        C = curve([2, 3])
        assert not certifies_defining_ideal([], C)

    def test_line_needs_no_generator(self):
        C = curve([1])
        assert certifies_defining_ideal([], C)
        x = Polynomial.variable(0, 1)
        assert not certifies_defining_ideal(polynomial_leads(C, [x]), C)


@pytest.fixture(scope="class")
def family_q_1000():
    """family_q at q = 1000: max Ap(S, m) is 6 029 993, the Apéry set 6000."""
    spec = validate_gluing([6, 7, 15], [1], 6007, 1000)
    return glued_curve(spec), glued_ideal(spec)


def certify_in_bounded_memory(C, lms):
    tracemalloc.start()
    try:
        verdict = certifies_defining_ideal(lms, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # no dense series up to max Ap
    return verdict


class TestCertificateBoundedWork:
    def test_certificate_holds(self, family_q_1000):
        C, gens = family_q_1000
        assert certify_in_bounded_memory(
            C, tangent_cone(C, ideal_gens=gens).lm_set)

    def test_dropped_component_generator_rejected(self, family_q_1000):
        C, gens = family_q_1000
        assert not certify_in_bounded_memory(
            C, tangent_cone(C, ideal_gens=gens[1:]).lm_set)

    def test_squared_bridge_rejected(self, family_q_1000):
        C, gens = family_q_1000
        bridge = as_polynomial(gens[-1])
        squared = [as_polynomial(g) for g in gens[:-1]] + [bridge * bridge]
        assert not certify_in_bounded_memory(C, polynomial_leads(C, squared))


class TestDivision:
    def test_exact(self):
        # (1-t)(1+2t) = 1 + t - 2t^2
        assert divide_by_one_minus_t([1, 1, -2]) == [1, 2]

    def test_inexact_raises(self):
        with pytest.raises(DimensionMismatch):
            divide_by_one_minus_t([1, 1])

    def test_artinian_quotient_rejected(self):
        # <x1, x2> in two variables is zero-dimensional, not a curve cone
        with pytest.raises(DimensionMismatch):
            hilbert_from_lms([(1, 0), (0, 1)], 2)


class TestLocalHilbert:
    def test_cuspidal_cubic(self):
        data = local_hilbert_function(curve([2, 3]))
        assert data.reduced_numerator == (1, 1)
        assert data.hf_prefix[:4] == (1, 2, 2, 2)
        assert data.multiplicity == 2

    def test_6_7_15_matches_oracle(self):
        data = local_hilbert_function(curve([6, 7, 15]), prefix_len=6)
        assert data.hf_prefix == (1, 3, 4, 5, 5, 6, 6)
        assert data.nondecreasing
        oracle = minimal_generators([6, 7, 15]).order_filtration_hilbert(6)
        assert list(data.hf_prefix) == oracle

    def test_glued_family_member(self):
        C = MonomialCurve((16, 24, 28, 35), ("x1", "x2", "y1", "y2"))
        data = local_hilbert_function(C)
        product = poly_mul(poly_mul([1, 1], [1, 1]), [1, 1, 1, 1])
        assert list(data.reduced_numerator) == product == [1, 3, 4, 4, 3, 1]
        assert data.hf_prefix[:7] == (1, 4, 8, 12, 15, 16, 16)
        assert data.multiplicity == 16

    def test_default_prefix_shows_stabilization(self):
        data = local_hilbert_function(curve([6, 7, 15]))
        assert data.hf_prefix[-1] == data.hf_prefix[-2] == data.multiplicity

    def test_oracle_equivalence_random(self):
        rng = random.Random(89)
        for _ in range(25):
            gens = sorted({rng.randint(2, 30) for _ in range(rng.randint(2, 4))})
            gens.append(gens[-1] + 1)
            C = curve(gens)
            data = local_hilbert_function(C, prefix_len=15)
            oracle = C.semigroup.order_filtration_hilbert(15)
            assert list(data.hf_prefix) == oracle


class TestPrefixBudget:
    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(hilbert, "MAX_HF_PREFIX", 6)
        data = local_hilbert_function(curve([6, 7, 15]), prefix_len=6)
        assert data.hf_prefix == (1, 3, 4, 5, 5, 6, 6)
        with pytest.raises(WorkBudgetExceeded, match="MAX_HF_PREFIX = 6"):
            local_hilbert_function(curve([6, 7, 15]), prefix_len=7)

    def test_refused_before_the_numerator(self, monkeypatch):
        computed = []
        monkeypatch.setattr(hilbert, "hilbert_numerator",
                            lambda *args: computed.append(args))
        with pytest.raises(WorkBudgetExceeded, match="MAX_HF_PREFIX"):
            hilbert_from_lms(LMS_32, 3, hilbert.MAX_HF_PREFIX + 1)
        assert computed == []


class TestNondecreasing:
    def test_accepts_nonnegative(self):
        assert nondecreasing_verdict([1, 3, 4]) == (True, None)

    def test_flags_first_negative(self):
        assert nondecreasing_verdict([1, 2, -1, 1]) == (False, 2)

    def test_glued_example_nondecreasing(self):
        C = MonomialCurve((105, 252, 119, 136), ("x1", "x2", "y1", "y2"))
        assert local_hilbert_function(C).nondecreasing


class TestFactorization:
    def test_family_member(self):
        C = MonomialCurve((16, 24, 28, 35), ("x1", "x2", "y1", "y2"))
        glued = local_hilbert_function(C)
        assert product_factorization_check(glued, [1, 1], [1, 1, 1, 1], 2)

    def test_unit_third_factor(self):
        data = HilbertData(reduced_numerator=(1, 2), hf_prefix=(1, 3, 3),
                           multiplicity=3, nondecreasing=True,
                           first_violation=None)
        assert product_factorization_check(data, [1, 2], [1], 1)

    def test_regular_second_component(self):
        # gluing C(6,7,15) with the line: h2 = 1 and h3 = 1 + t
        spec_glued = MonomialCurve((12, 14, 30, 19), ("x1", "x2", "x3", "y1"))
        glued = local_hilbert_function(spec_glued)
        h1 = list(local_hilbert_function(curve([6, 7, 15])).reduced_numerator)
        assert product_factorization_check(glued, h1, [1], 2)

    def test_mismatch_detected(self):
        data = HilbertData(reduced_numerator=(1, 1), hf_prefix=(1, 2, 2),
                           multiplicity=2, nondecreasing=True,
                           first_violation=None)
        assert not product_factorization_check(data, [1, 1], [1, 1], 2)
