import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curvegluing import basis as basis_module
from curvegluing.basis import (MORA_STEP_BUDGET, _LeadIndex, buchberger,
                               interreduce_global, is_member_global,
                               leading_ideal, mora_weak_nf,
                               normal_form_global, standard_basis)
from curvegluing.errors import (NonGlobalOrder, NonLocalOrder,
                                WorkBudgetExceeded)
from curvegluing.polyalg import (Polynomial, degrevlex, elimination,
                                 leading_monomial, m_divides,
                                 monic, negdegrevlex, parse_polynomial, spoly)

NAMES3 = ("x1", "x2", "x3")
NAMES4 = ("x1", "x2", "y1", "y2")
ORDER32 = negdegrevlex(3, priority=(1, 2, 0))   # x2 > x3 > x1
ORDER22 = negdegrevlex(4, priority=(1, 3, 2, 0))  # x2 > y2 > y1 > x1


def coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


def P3(t):
    return parse_polynomial(t, NAMES3)


def P4(t):
    return parse_polynomial(t, NAMES4)


def lm_set(basis):
    return set(basis.leads)


IDEAL_32 = [P3("x1^5 - x3^2"), P3("x1*x3 - x2^3")]
LMS_32 = {(0, 0, 2), (1, 0, 1), (0, 3, 1), (0, 6, 0)}

IDEAL_22 = [P4("x1^12 - x2^5"), P4("y1^8 - y2^7"), P4("x1*x2 - y1^3")]
LMS_22 = {(1, 1, 0, 0), (0, 5, 0, 0), (0, 0, 15, 0), (0, 0, 0, 7),
          (0, 4, 3, 0), (0, 3, 6, 0), (0, 2, 9, 0), (0, 1, 12, 0)}


class TestBuchberger:
    def test_single_element(self):
        order = degrevlex(3)
        f = P3("x1^3 - x2^2")
        basis = buchberger([f], order)
        assert list(basis.elements) == [f]

    def test_elimination_of_parameter(self):
        # t^2 - x1, t^3 - x2 with t in the first block: x1^3 - x2^2 appears
        names = ("t", "x1", "x2")
        order = elimination(3, {0})
        gens = [parse_polynomial("t^2 - x1", names),
                parse_polynomial("t^3 - x2", names)]
        basis = buchberger(gens, order)
        target = parse_polynomial("x1^3 - x2^2", names)
        assert any(g == target for g in basis.elements)

    def test_degrevlex_basis_of_a_parametrization(self):
        # no elimination order, so t stays in the basis
        names = ("t", "x1", "x2")
        gens = [parse_polynomial("t^2 - x1", names),
                parse_polynomial("t^3 - x2", names)]
        basis = buchberger(gens, degrevlex(3))
        assert list(basis.elements) == [
            parse_polynomial(t, names)
            for t in ("t^2 - x1", "t*x1 - x2", "x1^2 - t*x2")]
        assert basis.leads == ((2, 0, 0), (1, 1, 0), (0, 2, 0))

    def test_binomial_closure(self):
        rng = random.Random(61)
        for _ in range(30):
            gens = [_random_binomial(rng, 3) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            basis = buchberger(gens, degrevlex(3))
            assert all(len(g.terms) <= 2 for g in basis.elements)

    def test_rejects_local_order(self):
        with pytest.raises(NonGlobalOrder):
            buchberger([P3("x1 - x2")], ORDER32)

    def test_spoly_criterion_on_result(self):
        order = degrevlex(3)
        basis = buchberger(IDEAL_32, order)
        elems = list(basis.elements)
        for f, g in itertools.combinations(elems, 2):
            assert normal_form_global(spoly(f, g, order), elems, order).is_zero()

    def test_chain_criterion_agrees(self):
        order = degrevlex(3)
        with_chain = buchberger(IDEAL_32, order, use_chain_criterion=True)
        without = buchberger(IDEAL_32, order, use_chain_criterion=False)
        assert lm_set(with_chain) == lm_set(without)


def _chain_by_definition(i, j, lms):
    """Some LM(k), k != i, j, divides lcm(i, j) while lcm(i, k) and
    lcm(j, k) are both strict divisors of it."""
    def lcm(a, b):
        return tuple(map(max, a, b))

    lij = lcm(lms[i], lms[j])
    return any(k not in (i, j) and m_divides(lk, lij)
               and lcm(lms[i], lk) != lij and lcm(lms[j], lk) != lij
               for k, lk in enumerate(lms))


class TestLeadIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=12)),
        st.lists(st.booleans(), min_size=12, max_size=12))
    def test_chain_criterion_matches_its_definition(self, lms, query):
        # queries between appends: the index catches up lazily
        leads = _LeadIndex()
        pairs = []
        for n, lm in enumerate(lms):
            leads.push_pairs(lm, pairs)
            if query[n]:
                for i, j in itertools.combinations(range(n + 1), 2):
                    assert leads.chain_redundant(i, j) == \
                        _chain_by_definition(i, j, lms[:n + 1])
        # every non-coprime pair is pushed once, keyed by its lcm degree
        assert sorted(pairs) == sorted(
            (sum(map(max, lms[i], lms[j])), i, j)
            for i, j in itertools.combinations(range(len(lms)), 2)
            if not coprime(lms[i], lms[j]))


class TestMoraWeakNF:
    def test_self_reduction(self):
        g = P3("x1*x3 - x2^3")
        assert mora_weak_nf(g, [g], ORDER32).is_zero()

    def test_member_of_standard_basis(self):
        basis = standard_basis(IDEAL_32, ORDER32)
        f = P3("x2^6 - x1^7")
        assert mora_weak_nf(f, list(basis.elements), ORDER32).is_zero()

    def test_coprime_leading_monomials_reduce_to_zero(self):
        # the product criterion, checked against the actual reduction
        basis = standard_basis(IDEAL_22, ORDER22)
        elems = list(basis.elements)
        lms = basis.leads
        pairs = [(i, j) for i in range(len(elems)) for j in range(i)
                 if coprime(lms[i], lms[j])]
        assert pairs
        for i, j in pairs:
            s = spoly(elems[i], elems[j], ORDER22)
            assert mora_weak_nf(s, elems, ORDER22).is_zero()

    def test_remainder_leading_monomial_not_divisible(self):
        basis = standard_basis(IDEAL_32, ORDER32)
        elems = list(basis.elements)
        lms = basis.leads
        f = P3("x1^2 + x2*x3")
        r = mora_weak_nf(f, elems, ORDER32)
        assert not r.is_zero()
        rlm = leading_monomial(r, ORDER32)
        assert not any(m_divides(m, rlm) for m in lms)

    def test_unit_has_constant_term_one(self):
        basis = standard_basis(IDEAL_32, ORDER32)
        r, u = mora_weak_nf(P3("x2^6 - x1^7"), list(basis.elements), ORDER32,
                            return_unit=True)
        assert r.is_zero()
        assert u.terms.get((0, 0, 0)) == 1

    def test_unit_relation(self):
        # u*f - r must be in the ideal; check by reducing against the basis
        basis = standard_basis(IDEAL_32, ORDER32)
        elems = list(basis.elements)
        f = P3("x3^3 + x1*x2")
        r, u = mora_weak_nf(f, elems, ORDER32, return_unit=True)
        diff = u * f - r
        assert mora_weak_nf(diff, elems, ORDER32).is_zero()

    def test_rejects_global_order(self):
        with pytest.raises(NonLocalOrder):
            mora_weak_nf(P3("x1"), [P3("x1 - x2")], degrevlex(3))


class TestStandardBasis:
    def test_single_binomial(self):
        f = P3("x1^3 - x2^2")
        basis = standard_basis([f], ORDER32)
        assert len(basis.elements) == 1

    def test_component_curve_basis(self):
        basis = standard_basis(IDEAL_32, ORDER32)
        assert lm_set(basis) == LMS_32

    def test_glued_curve_basis(self):
        basis = standard_basis(IDEAL_22, ORDER22)
        assert lm_set(basis) == LMS_22

    def test_minimality(self):
        basis = standard_basis(IDEAL_22, ORDER22)
        lms = basis.leads
        for i, m in enumerate(lms):
            for j, other in enumerate(lms):
                if i != j:
                    assert not m_divides(other, m)

    def test_input_order_invariance(self):
        for perm in itertools.permutations(IDEAL_22):
            assert lm_set(standard_basis(list(perm), ORDER22)) == LMS_22

    def test_completeness_witness(self):
        # every s-polynomial of basis elements has weak normal form zero
        basis = standard_basis(IDEAL_22, ORDER22)
        elems = list(basis.elements)
        for f, g in itertools.combinations(elems, 2):
            s = spoly(f, g, ORDER22)
            assert mora_weak_nf(s, elems, ORDER22).is_zero()

    def test_original_generators_reduce_to_zero(self):
        basis = standard_basis(IDEAL_22, ORDER22)
        elems = list(basis.elements)
        for f in IDEAL_22:
            assert mora_weak_nf(f, elems, ORDER22).is_zero()

    def test_binomial_closure(self):
        basis = standard_basis(IDEAL_22, ORDER22)
        assert all(len(g.terms) <= 2 for g in basis.elements)

    def test_monic_normalization(self):
        basis = standard_basis(IDEAL_22, ORDER22)
        for g in basis.elements:
            assert g.terms[leading_monomial(g, ORDER22)] == 1

    def test_rejects_global_order(self):
        with pytest.raises(NonLocalOrder):
            standard_basis(IDEAL_32, degrevlex(3))


class TestLeadingIdeal:
    def test_divisibility_pruning(self):
        basis = buchberger([P3("x1"), P3("x1*x2")], degrevlex(3))
        assert leading_ideal(basis) == [(1, 0, 0)]

    def test_component_example(self):
        basis = standard_basis(IDEAL_32, ORDER32)
        assert set(leading_ideal(basis)) == LMS_32


class TestInterreduce:
    def test_preserves_ideal(self):
        order = degrevlex(3)
        gens = [P3("x1^2 - x2"), P3("x1^3 - x3"), P3("x1^5 - x2*x3")]
        reduced = interreduce_global(gens, order)
        gb_a = buchberger(gens, order)
        for g in reduced:
            assert normal_form_global(g, list(gb_a.elements), order).is_zero()
        gb_b = buchberger(reduced, order)
        for g in gens:
            assert normal_form_global(g, list(gb_b.elements), order).is_zero()


def _random_binomial(rng, nvars):
    a = tuple(rng.randint(0, 4) for _ in range(nvars))
    b = tuple(rng.randint(0, 4) for _ in range(nvars))
    return Polynomial.term(1, a) - Polynomial.term(1, b)


# small ideals with rational coefficients in three variables
rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), rationals, min_size=1, max_size=3
).map(Polynomial).filter(bool)
small_ideals = st.lists(small_polys, min_size=1, max_size=3)


def exactly_represented(f: Polynomial) -> bool:
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in f.terms.values())


class TestExactReduction:
    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_ideals)
    def test_global_normal_form_is_exact(self, f, basis):
        r = normal_form_global(f, basis, degrevlex(3))
        assert exactly_represented(r)

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_ideals)
    def test_mora_normal_form_is_exact(self, f, basis):
        r, u = mora_weak_nf(f, basis, negdegrevlex(3), return_unit=True)
        assert exactly_represented(r) and exactly_represented(u)


class TestMonomialTimesUnitReducer:
    """A reducer c*m*(1 + ...) is reduced by as c*m, its local equivalent.

    Each case ran for seconds to minutes before: the reducers x1*(unit),
    x2*(unit) and the unit itself have a large ecart.
    """

    @pytest.mark.parametrize("f, basis", [
        ("2*x1*x2^2*x3^2 + x1^2*x2 - x1^2*x2*x3",
         ["-x1 + 4*x1^2*x2^2*x3^2", "5*x2*x3^2 + 5/2*x2^2*x3 - 3/2*x1*x3^2"]),
        ("4*x2^2*x3 - 2*x1^2*x2*x3^2",
         ["5*x1*x2^2*x3^2 - 4*x1^2 - 3/2*x1^2*x3^2",
          "-4/3*x2 + x1*x2^2*x3^2 + 4/3*x1^2*x2"]),
        ("-5/2*x2^2 - 1/2*x2^2*x3 + 4/3*x1*x2^2*x3^2",
         ["-2/3 - 5/3*x1^2*x2*x3^2 - 2*x1^2*x2^2",
          "4/3*x2*x3 - 1/2*x1*x2^2 - 1/3*x1^2*x2*x3^2"]),
    ], ids=["x1_times_unit", "x2_times_unit", "unit"])
    def test_local_member_reduces_to_zero(self, f, basis):
        f, basis = P3(f), [P3(g) for g in basis]
        r, u = mora_weak_nf(f, basis, negdegrevlex(3), return_unit=True)
        assert r.is_zero()
        assert u.terms.get((0, 0, 0)) == 1
        assert is_member_global(u * f, basis, degrevlex(3))

    def test_relation_holds_among_the_polynomials(self):
        # x1 - x1^2*x2 = x1*(1 - x1*x2): the remainder of x1 + x2 is x2 times
        # that unit, so that u*f - r is a multiple of the reducer itself
        order = negdegrevlex(3)
        f, g = P3("x1 + x2"), P3("x1 - x1^2*x2")
        r, u = mora_weak_nf(f, [g], order, return_unit=True)
        assert r == P3("x2 - x1*x2^2")
        assert u.terms.get((0, 0, 0)) == 1
        assert is_member_global(u * f - r, [g], degrevlex(3))


class TestMoraStepBudget:
    """Mora's normal form refuses to run past ``MORA_STEP_BUDGET`` steps.

    Each input below ran for minutes before the budget, with coefficients
    of thousands of bits; no reducer is a monomial times a unit.
    """

    @pytest.mark.parametrize("gens, priority", [
        (["x2^4 - x2^3*x3", "x3^5 - x1*x2*x3",
          "-2*x2 + x1^3*x2*x3^2 - 3*x1*x3^2"], (2, 0, 1)),
        (["x2*x3^3 - x3^5", "x1*x2*x3 - x2^3*x3",
          "2*x3 + 3*x1^3*x2^2 - 2*x1^3*x2^2*x3"], (1, 0, 2)),
        # its 1000th step comes after 37 s
        (["x1^6 - x1^2*x2", "x1^5 - x1*x3", "x3 - x1^4",
          "2*x1^2*x2^2 + x1^2*x2*x3 - 3*x1^2*x2*x3^2"], (2, 0, 1)),
    ], ids=["draw_1", "draw_2", "draw_3"])
    def test_stalling_standard_basis_refused(self, gens, priority):
        # draws of test_tangentcone.py::test_every_engine
        start = time.perf_counter()
        with pytest.raises(WorkBudgetExceeded, match=str(MORA_STEP_BUDGET)):
            standard_basis([P3(g) for g in gens], negdegrevlex(3, priority))
        assert time.perf_counter() - start < 5

    def test_stalling_normal_form_refused(self):
        # f is itself a basis element, but the first element has the least
        # ecart and Mora's loop reduces by it
        f = P3("-3*x2*x3 - 5*x1^2*x2 + 4/3*x1^2*x2^2")
        basis = [P3("5*x2*x3 + 3*x1*x3^2 + x1^2*x3"), f,
                 P3("2*x1 - 5/3*x2^2*x3^2 + 3/2*x1^2*x3^2")]
        start = time.perf_counter()
        with pytest.raises(WorkBudgetExceeded, match=str(MORA_STEP_BUDGET)):
            mora_weak_nf(f, basis, negdegrevlex(3))
        assert time.perf_counter() - start < 5

    def test_budget_counts_reduction_steps(self, monkeypatch):
        # x1 reduces by x1 - x2^2 in one step, to x2^2
        f, g = P3("x1"), P3("x1 - x2^2")
        monkeypatch.setattr(basis_module, "MORA_STEP_BUDGET", 1)
        assert mora_weak_nf(f, [g], negdegrevlex(3)) == P3("x2^2")
        monkeypatch.setattr(basis_module, "MORA_STEP_BUDGET", 0)
        with pytest.raises(WorkBudgetExceeded):
            mora_weak_nf(f, [g], negdegrevlex(3))


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestAgainstSympy:
    """The reduced degrevlex basis equals sympy's reduced grevlex basis."""

    @settings(max_examples=40, deadline=None)
    @given(gens=small_ideals)
    def test_reduced_basis_matches_sympy(self, sympy, gens):
        order = degrevlex(3)
        ours = interreduce_global(list(buchberger(gens, order).elements),
                                  order)
        xs = sympy.symbols("x1:4")
        exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                     * sympy.Mul(*(x ** e for x, e in zip(xs, m)))
                     for m, c in g.terms.items()) for g in gens]
        theirs = [Polynomial({m: Fraction(int(c.p), int(c.q))
                              for m, c in p.terms()})
                  for p in sympy.groebner(exprs, *xs, order="grevlex").polys]
        assert _canonical(ours, order) == _canonical(theirs, order)


def _canonical(basis, order):
    return sorted(tuple(sorted(monic(g, order).terms.items())) for g in basis)
