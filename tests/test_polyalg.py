import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from curvegluing.errors import ArityMismatch, MalformedPolynomial, ZeroPolynomial
from curvegluing.polyalg import (Polynomial, degrevlex, ecart, elimination,
                                 exact_quotient, leading_monomial,
                                 leading_term, least_degree_form, m_deg,
                                 m_divides, m_mul, minimal_indices, monic,
                                 negdegrevlex, parse_polynomial,
                                 polynomial_to_str, spoly)

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


def exactly_represented(f: Polynomial) -> bool:
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in f.terms.values())


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
rational_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4), rationals, max_size=4
).map(Polynomial)
nonzero_rational_polys = rational_polys.filter(bool)


class TestExactCoefficients:
    @given(rational_polys, rational_polys, rationals,
           st.tuples(*[st.integers(0, 2)] * 4))
    def test_arithmetic_never_leaves_exact_coefficients(self, f, g, c, m):
        assert exactly_represented(f) and exactly_represented(g)
        for h in (f + g, f - g, -f, f * g, f.mul_term(c, m), f.scale(c)):
            assert exactly_represented(h)

    @given(nonzero_rational_polys, nonzero_rational_polys)
    def test_monic_and_spoly_stay_exact(self, f, g):
        for order in (degrevlex(4), ORDER22):
            assert exactly_represented(monic(f, order))
            assert leading_term(monic(f, order), order)[1] == 1
            assert exactly_represented(spoly(f, g, order))

    def test_monic_divides_exactly(self):
        f = monic(P("2*x1 - 3"), degrevlex(4))
        assert f.terms == {M("x1"): 1, (0, 0, 0, 0): Fraction(-3, 2)}
        assert type(f.terms[M("x1")]) is int
        assert type(f.terms[(0, 0, 0, 0)]) is Fraction

    def test_integral_results_become_ints(self):
        half = Polynomial.term(Fraction(1, 2), M("x1"))
        assert type((half + half).terms[M("x1")]) is int
        assert type(half.scale(4).terms[M("x1")]) is int
        assert type(Polynomial({M("x1"): Fraction(6, 3)}).terms[M("x1")]) is int

    def test_exact_quotient(self):
        assert exact_quotient(6, 3) == 2 and type(exact_quotient(6, 3)) is int
        assert exact_quotient(1, -1) == -1
        assert type(exact_quotient(1, -1)) is int
        assert exact_quotient(3, 2) == Fraction(3, 2)
        assert exact_quotient(Fraction(3, 2), Fraction(3, 4)) == 2
        assert type(exact_quotient(Fraction(3, 2), Fraction(3, 4))) is int
        assert exact_quotient(Fraction(1, 2), 3) == Fraction(1, 6)
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                exact_quotient(1, zero)
            with pytest.raises(ZeroDivisionError):
                exact_quotient(Fraction(1, 2), zero)

    def test_floats_are_refused(self):
        x1 = M("x1")
        with pytest.raises(TypeError):
            Polynomial.term(0.5, x1)
        with pytest.raises(TypeError):
            Polynomial({x1: 1.0})
        with pytest.raises(TypeError):
            P("x1 - 1").mul_term(1 / 3, x1)

    def test_int_and_integral_fraction_are_the_same_polynomial(self):
        m = M("x1*y2")
        as_int = Polynomial({m: 3, (0, 0, 0, 0): -1}, _clean=False)
        as_fraction = Polynomial({m: Fraction(3, 1),
                                  (0, 0, 0, 0): Fraction(-1, 1)}, _clean=False)
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)


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

    def test_rational_round_trip_is_textual(self):
        f = P("3/2*x1 - x2")
        assert f.terms == {M("x1"): Fraction(3, 2), M("x2"): -1}
        assert polynomial_to_str(f, NAMES4) == "3/2*x1 - x2"

    @given(st.lists(
        st.tuples(st.integers(-9, 9),
                  st.tuples(*[st.integers(0, 5)] * 4)),
        min_size=0, max_size=6))
    def test_round_trip_random(self, rows):
        f = Polynomial.zero()
        for c, m in rows:
            f = f + Polynomial.term(c, m)
        assert P(polynomial_to_str(f, NAMES4)) == f


@st.composite
def written_polynomials(draw):
    """A text in the grammar and the polynomial it denotes over NAMES4.

    The polynomial is built from the drawn factors with ``Polynomial.term``
    and ``+``, not by any parser, so it is an independent oracle.
    """
    pieces, f = [], Polynomial.zero()
    for k in range(draw(st.integers(1, 4))):
        negative = draw(st.booleans())
        if k == 0:
            signs = ["-", "- ", " -"] if negative else ["", "+", "+ ", " "]
        else:
            signs = [" - ", "-", "- "] if negative else [" + ", "+", " +"]
        pieces.append(draw(st.sampled_from(signs)))
        coeff, mono = Fraction(-1 if negative else 1), [0] * 4
        for j in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["int", "int/int", "var", "var^int"]))
            sp = draw(st.sampled_from(["", " "]))
            if kind == "int":
                n = draw(st.integers(0, 30))
                text, coeff = str(n), coeff * n
            elif kind == "int/int":
                a, b = draw(st.integers(0, 30)), draw(st.integers(1, 9))
                text, coeff = f"{a}{sp}/{sp}{b}", coeff * Fraction(a, b)
            else:
                v = draw(st.integers(0, 3))
                e = draw(st.integers(0, 6)) if kind == "var^int" else 1
                text = NAMES4[v] + (f"{sp}^{sp}{e}" if kind == "var^int" else "")
                mono[v] += e
            if j:
                # bare juxtaposition only before a name, where tokens cannot merge
                joins = ["*", " * ", " *", "* ", " "] + [""] * text[0].isalpha()
                pieces.append(draw(st.sampled_from(joins)))
            pieces.append(text)
        f = f + Polynomial.term(coeff, tuple(mono))
    return "".join(pieces), f


class TestGrammar:
    @given(written_polynomials())
    def test_valid_text_denotes_its_polynomial(self, written):
        text, f = written
        assert P(text) == f

    @pytest.mark.parametrize("text", [
        "2 3 x1", "2*3*x1", "6x1", "x1 6", "3 / 9 * 18 x1", "6 x1 x2^0",
    ])
    def test_juxtaposed_factors_multiply(self, text):
        assert P(text) == P("6*x1")

    def test_names_split_greedily(self):
        names = ("a", "b", "ab")
        a, b, ab = (Polynomial.variable(i, 3) for i in range(3))
        assert parse_polynomial("ab", names) == ab
        assert parse_polynomial("aab^2", names) == a * ab * ab
        assert parse_polynomial("ba", names) == b * a

    def test_zero_and_constant_terms(self):
        assert P("0").is_zero() and P("x1 - x1").is_zero()
        assert P("x1^0") == P("1") == Polynomial.term(1, (0, 0, 0, 0))

    # each case parsed without error before the grammar was made strict
    @pytest.mark.parametrize("text", [
        "", "   ",                              # empty or blank
        "x1 +", "-", "3-", "x1^2 - ",           # a sign with no term after it
        "x1 - - x2", "++x1", "x1 + -3",         # two signs in a row
        "x1*", "*x1", "x1 * * x2", "2*-x1",     # a '*' not between factors
        "x1 + * x2",
    ])
    def test_dangling_operators_rejected(self, text):
        with pytest.raises(MalformedPolynomial):
            P(text)

    @pytest.mark.parametrize("text", [
        "x1 + z9", "x12",           # no split into known names
        "x1^", "x1^-2", "2^3",      # no integer exponent on a variable
        "3/x1",                     # no integer denominator
    ])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(MalformedPolynomial):
            P(text)


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
