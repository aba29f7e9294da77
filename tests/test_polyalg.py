import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from curvegluing.errors import ArityMismatch, ZeroPolynomial
from curvegluing.polyalg import (Polynomial, degrevlex, ecart, elimination,
                                 leading_monomial, leading_term,
                                 least_degree_form, m_deg, m_divides, m_mul,
                                 minimal_indices, negdegrevlex,
                                 parse_polynomial, polynomial_to_str, spoly)

NAMES4 = ("x1", "x2", "y1", "y2")
ORDER22 = negdegrevlex(4, priority=(1, 3, 2, 0))  # x2 > y2 > y1 > x1


def P(text, names=NAMES4):
    return parse_polynomial(text, names)


def M(text, names=NAMES4):
    poly = parse_polynomial(text, names)
    (mono, coeff), = poly.terms.items()
    assert coeff == 1
    return mono


class TestCompare:
    def test_lower_degree_wins_locally(self):
        # the pinned orientation: x1*x2 beats y1^3 although y1 outranks x1
        assert ORDER22.compare(M("x1*x2"), M("y1^3")) > 0

    def test_reflexive(self):
        m = M("x2^4*y1^3")
        assert ORDER22.compare(m, m) == 0

    def test_example_three_two_orientation(self):
        o = negdegrevlex(3, priority=(1, 2, 0))  # x2 > x3 > x1
        names = ("x1", "x2", "x3")
        assert o.compare(M("x1*x3", names), M("x2^3", names)) > 0

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            ORDER22.compare((1, 0), (0, 1, 0, 0))

    def test_total_order_on_random_pairs(self):
        rng = random.Random(23)
        monos = [tuple(rng.randint(0, 6) for _ in range(4)) for _ in range(300)]
        seen = 0
        for _ in range(10_000):
            a, b = rng.choice(monos), rng.choice(monos)
            c = ORDER22.compare(a, b)
            assert c == -ORDER22.compare(b, a)
            if c == 0:
                assert a == b
            seen += 1
        assert seen == 10_000

    def test_transitive_sample(self):
        rng = random.Random(29)
        for _ in range(2000):
            a, b, c = (tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(3))
            if ORDER22.compare(a, b) >= 0 and ORDER22.compare(b, c) >= 0:
                assert ORDER22.compare(a, c) >= 0

    def test_one_is_largest_locally(self):
        one = (0, 0, 0, 0)
        rng = random.Random(31)
        for _ in range(500):
            m = tuple(rng.randint(0, 9) for _ in range(4))
            if m != one:
                assert ORDER22.compare(one, m) > 0

    def test_multiplicative_tiebreak(self):
        rng = random.Random(37)
        for _ in range(2000):
            a = tuple(rng.randint(0, 5) for _ in range(4))
            b = tuple(rng.randint(0, 5) for _ in range(4))
            if m_deg(a) != m_deg(b):
                continue
            c = tuple(rng.randint(0, 5) for _ in range(4))
            assert ORDER22.compare(a, b) == ORDER22.compare(m_mul(a, c), m_mul(b, c))


class TestLeadingMonomial:
    def test_local_picks_low_degree(self):
        assert leading_monomial(P("x1^12 - x2^5"), ORDER22) == M("x2^5")

    def test_y_block(self):
        assert leading_monomial(P("y1^8 - y2^7"), ORDER22) == M("y2^7")

    def test_constant(self):
        assert leading_monomial(P("5"), ORDER22) == (0, 0, 0, 0)

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            leading_term(Polynomial.zero(), ORDER22)

    def test_multiplicative(self):
        rng = random.Random(41)
        orders = [ORDER22, degrevlex(4), elimination(4, {0})]
        for _ in range(300):
            f = _random_poly(rng)
            g = _random_poly(rng)
            if f.is_zero() or g.is_zero():
                continue
            for order in orders:
                lm_fg = leading_monomial(f * g, order)
                assert lm_fg == m_mul(leading_monomial(f, order),
                                      leading_monomial(g, order))


class TestLeastDegreeForm:
    def test_mixed(self):
        assert least_degree_form(P("x1*x2 - y1^3")) == P("x1*x2")

    def test_homogeneous_fixed(self):
        f = P("x1*x2 - y1*y2")
        assert least_degree_form(f) == f

    def test_example_component(self):
        names = ("x1", "x2", "x3")
        f = parse_polynomial("x1^5 - x3^2", names)
        assert least_degree_form(f) == parse_polynomial("-x3^2", names)

    def test_idempotent(self):
        rng = random.Random(43)
        for _ in range(200):
            f = _random_poly(rng)
            if f.is_zero():
                continue
            ldf = least_degree_form(f)
            assert least_degree_form(ldf) == ldf
            # LM lies inside the least-degree form for any local order
            assert leading_monomial(f, ORDER22) in ldf.terms


class TestSpolyEcart:
    def test_self_pair_vanishes(self):
        f = P("x1^3 - x2^2")
        assert spoly(f, f, ORDER22).is_zero()

    def test_proportional_pair(self):
        f = P("x1^3 - x2^2")
        g = P("x2^2 - x1^3")
        assert spoly(f, g, degrevlex(4)).is_zero()

    def test_spoly_cancels_leading_terms(self):
        order = degrevlex(4)
        rng = random.Random(47)
        for _ in range(200):
            f, g = _random_poly(rng), _random_poly(rng)
            if f.is_zero() or g.is_zero():
                continue
            s = spoly(f, g, order)
            if s.is_zero():
                continue
            from curvegluing.polyalg import m_lcm
            lcm = m_lcm(leading_monomial(f, order), leading_monomial(g, order))
            assert order.compare(leading_monomial(s, order), lcm) < 0

    def test_ecart_values(self):
        assert ecart(P("x1*x2 - y1^3"), ORDER22) == 1
        assert ecart(P("x1*x2 - y1*y2"), ORDER22) == 0
        names = ("x1", "x2", "x3", "y1")
        o = negdegrevlex(4, priority=(3, 1, 2, 0))  # y1 > x2 > x3 > x1
        f = parse_polynomial("y1^5 - x1^5*x2", names)
        assert ecart(f, o) == 1


class TestArithmetic:
    def test_associativity_distributivity(self):
        rng = random.Random(53)
        for _ in range(150):
            f, g, h = (_random_poly(rng) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h

    def test_exact_coefficients(self):
        f = Polynomial({(1, 0, 0, 0): Fraction(1, 3)})
        g = Polynomial({(0, 1, 0, 0): Fraction(3, 7)})
        assert (f * g).terms[(1, 1, 0, 0)] == Fraction(1, 7)

    def test_cancellation(self):
        f = P("x1*x2 - y1^3")
        assert (f - f).is_zero()


class TestTextualSyntax:
    @pytest.mark.parametrize("text", [
        "x1^12 - x2^5",
        "x1*x2 - y1^3",
        "3*x1^2*y2 + 7",
        "y1^15 - x1^17",
        "-x1 + 2",
    ])
    def test_round_trip(self, text):
        f = P(text)
        assert P(polynomial_to_str(f, NAMES4)) == f

    def test_juxtaposition(self):
        assert P("x1x2 - y1^3") == P("x1*x2 - y1^3")

    def test_rational_coefficients(self):
        f = P("3/2*x1 - 1/7")
        assert f.terms[M("x1")] == Fraction(3, 2)
        assert P(polynomial_to_str(f, NAMES4)) == f

    @given(st.lists(
        st.tuples(st.integers(-9, 9),
                  st.tuples(*[st.integers(0, 5)] * 4)),
        min_size=0, max_size=6))
    def test_round_trip_random(self, rows):
        f = Polynomial.zero()
        for c, m in rows:
            f = f + Polynomial.term(c, m)
        assert P(polynomial_to_str(f, NAMES4)) == f


class TestMinimalIndices:
    def test_input_order_preserved(self):
        monos = [M("x1*x2^2"), M("y1^3"), M("x2"), M("x1^2")]
        assert minimal_indices(monos) == [1, 2, 3]

    def test_earliest_equal_monomial_kept(self):
        monos = [M("x1^2"), M("y2"), M("x1^2"), M("y2")]
        assert minimal_indices(monos) == [0, 1]

    def test_agrees_with_brute_force(self):
        rng = random.Random(59)
        for _ in range(300):
            monos = [tuple(rng.randint(0, 3) for _ in range(4))
                     for _ in range(rng.randint(0, 12))]
            brute = [i for i, m in enumerate(monos)
                     if not any(m_divides(p, m) and (p != m or j < i)
                                for j, p in enumerate(monos) if j != i)]
            assert minimal_indices(monos) == brute


def _random_poly(rng, nvars=4):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        m = tuple(rng.randint(0, 4) for _ in range(nvars))
        c = rng.randint(-4, 4)
        if c:
            terms[m] = terms.get(m, 0) + c
    return Polynomial(terms)
