import random
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from family_samples import random_nice_gluing, random_semigroup

from curvegluing import gluing, toric
from curvegluing.basis import buchberger, standard_basis
from curvegluing.errors import (InvalidPriority, NonBinomialGenerator,
                                SelfCheckFailed)
from curvegluing.gluing import (_paper_priority, _theorem_priority,
                                glued_curve, glued_ideal)
from curvegluing.hilbert import local_hilbert_function
from curvegluing.polyalg import (Polynomial, degrevlex, leading_term,
                                 least_degree_form, negdegrevlex,
                                 parse_polynomial, polynomial_to_str)
from curvegluing.semigroup import minimal_generators
from curvegluing.tangentcone import canonical_priority, tangent_cone
from curvegluing.toric import (MonomialCurve, curve, curve_standard_basis,
                               defining_ideal)

GLUED_22 = MonomialCurve((105, 252, 119, 136), ("x1", "x2", "y1", "y2"))


class TestVerdicts:
    def test_plane_curve_cm(self):
        assert tangent_cone(curve([5, 12])).is_cohen_macaulay

    def test_glued_example_not_cm(self):
        rep = tangent_cone(GLUED_22)
        assert not rep.is_cohen_macaulay
        witness_lm = parse_polynomial("x1*x2", GLUED_22.names)
        assert rep.witness is not None
        (lm, _) = max(rep.witness.terms.items())
        assert (1, 1, 0, 0) in rep.witness.terms
        assert least_degree_form(rep.witness) == witness_lm

    def test_6_7_15_not_cm(self):
        rep = tangent_cone(curve([6, 7, 15]))
        assert not rep.is_cohen_macaulay
        assert least_degree_form(rep.witness) == \
            parse_polynomial("x1*x3", rep.curve.names)


class TestConeGenerators:
    def test_glued_example_matches_published_cone(self):
        gens = [parse_polynomial(t, GLUED_22.names)
                for t in ("x1^12 - x2^5", "y1^8 - y2^7", "x1*x2 - y1^3")]
        rep = tangent_cone(GLUED_22, priority=(1, 3, 2, 0),  # x2>y2>y1>x1
                           ideal_gens=gens)
        published = ["x1*x2", "x2^5", "y1^15", "y2^7", "x2^4*y1^3",
                     "x2^3*y1^6", "x2^2*y1^9", "x2*y1^12"]
        want = {frozenset(parse_polynomial(t, GLUED_22.names).terms)
                for t in published}
        got = {frozenset(g.terms) for g in rep.cone_generators}
        assert got == want

    def test_cone_ideal_independent_of_presentation(self):
        # the eliminated presentation gives different tails but the same cone
        from curvegluing.toric import ideals_equal

        rep = tangent_cone(GLUED_22, priority=(1, 3, 2, 0))
        published = [parse_polynomial(t, GLUED_22.names)
                     for t in ("x1*x2", "x2^5", "y1^15", "y2^7", "x2^4*y1^3",
                               "x2^3*y1^6", "x2^2*y1^9", "x2*y1^12")]
        assert ideals_equal(list(rep.cone_generators), published, 4)

    def test_cuspidal_cubic_cone(self):
        rep = tangent_cone(curve([2, 3]))
        assert [g.terms for g in rep.cone_generators] == \
            [parse_polynomial("x2^2", ("x1", "x2")).terms]
        hd = local_hilbert_function(rep.curve, prefix_len=4, report=rep)
        assert hd.hf_prefix == (1, 2, 2, 2, 2)

    def test_least_degree_forms_of_basis(self):
        rep = tangent_cone(curve([6, 7, 15]))
        assert tuple(least_degree_form(g) for g in rep.basis.elements) == \
            rep.cone_generators


class TestPriorities:
    def test_canonical_puts_smallest_last(self):
        assert canonical_priority(GLUED_22) == (1, 3, 2, 0)
        assert canonical_priority(curve([6, 7, 15])) == (2, 1, 0)

    def test_wrong_lowest_variable_rejected(self):
        with pytest.raises(InvalidPriority):
            tangent_cone(curve([6, 7, 15]), priority=(0, 1, 2))

    def test_verdict_stable_across_orders(self):
        # the published order and the theorem-proof order must agree
        for priority in [(1, 3, 2, 0), (3, 2, 1, 0)]:
            rep = tangent_cone(GLUED_22, priority=priority)
            assert not rep.is_cohen_macaulay

    def test_verdict_stable_on_random_curves(self):
        import itertools
        rng = random.Random(71)
        for _ in range(15):
            gens = sorted({rng.randint(2, 18) for _ in range(3)})
            gens.append(gens[-1] + 1)
            C = curve(gens)
            smallest = min(range(C.nvars), key=lambda v: C.generators[v])
            uppers = [v for v in range(C.nvars) if v != smallest]
            verdicts = set()
            for perm in itertools.permutations(uppers):
                rep = tangent_cone(C, priority=(*perm, smallest))
                verdicts.add(rep.is_cohen_macaulay)
            assert len(verdicts) == 1


class TestCrossModuleInvariants:
    def test_cm_implies_multiplicity_is_smallest_generator(self):
        rng = random.Random(73)
        checked_cm = 0
        for _ in range(30):
            gens = sorted({rng.randint(2, 25) for _ in range(rng.randint(2, 4))})
            gens.append(gens[-1] + 1)
            C = curve(gens)
            rep = tangent_cone(C)
            hd = local_hilbert_function(C, report=rep)
            if rep.is_cohen_macaulay:
                checked_cm += 1
                assert hd.multiplicity == min(C.generators)
                assert hd.nondecreasing
        assert checked_cm > 5

    def test_stabilized_oracle_value_matches_cm_multiplicity(self):
        for gens in ([2, 3], [5, 12], [4, 5, 7]):
            C = curve(gens)
            rep = tangent_cone(C)
            if not rep.is_cohen_macaulay:
                continue
            S = minimal_generators(gens)
            hf = S.order_filtration_hilbert(25)
            assert hf[-1] == min(gens)


def draw_homogeneous_binomials(data, n):
    """Pure difference binomials in n variables, homogeneous for random
    positive weights, as a curve's ideal is for the semigroup grading."""
    weights = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))

    def fiber(d):
        return [m for m in product(range(d + 1), repeat=n)
                if sum(map(mul, m, weights)) == d]

    gens = []
    for d in data.draw(st.lists(st.integers(2, 8), min_size=1, max_size=4)):
        exps = fiber(d)
        if len(exps) > 1:
            u, v = data.draw(st.lists(st.sampled_from(exps), min_size=2,
                                      max_size=2, unique=True))
            gens.append(Polynomial({u: 1, v: -1}))
    return gens


def _listing(elements, names, order):
    """Each basis element's term dict and its printed form."""
    return [(g.terms, polynomial_to_str(g, names, order)) for g in elements]


def assert_same_basis(gens, order, names):
    """The exponent-pair completion lists what ``standard_basis`` lists."""
    got = curve_standard_basis(gens, order)
    want = standard_basis(gens, order)
    assert got.order == want.order and got.leads == want.leads
    assert _listing(got.elements, names, order) == \
        _listing(want.elements, names, order)


class TestBinomialStandardBasis:
    """``toric.curve_standard_basis`` runs ``toric._complete_binomials`` with
    ``local=True`` on pure difference binomials; ``basis.standard_basis`` on
    the same generators is the reference, element by element."""

    @pytest.mark.parametrize("gens", [(6, 7, 15), (5, 12), (2, 3), (4, 5),
                                      (3, 4, 5), (105, 252, 119, 136)])
    def test_paper_and_scan_curves(self, gens):
        C = curve(gens)
        for priority in (canonical_priority(C), _paper_priority(C.nvars)):
            assert_same_basis(defining_ideal(C),
                              negdegrevlex(C.nvars, priority), C.names)

    def test_random_curves(self):
        rng = random.Random(97)
        for i in range(40):
            C = curve(random_semigroup(rng, 2 + i % 4, max_gen=23).generators)
            for priority in (canonical_priority(C),
                             _paper_priority(C.nvars)):
                assert_same_basis(defining_ideal(C),
                                  negdegrevlex(C.nvars, priority), C.names)

    def test_glued_sets(self):
        rng = random.Random(103)
        for i in range(30):
            spec = random_nice_gluing(rng, dim1=2 + i % 2, dim2=2 + i // 2 % 2)
            C = glued_curve(spec)
            theorem = _theorem_priority(len(spec.s1.generators),
                                        len(spec.s2.generators))
            for priority in (canonical_priority(C), theorem):
                assert_same_basis(glued_ideal(spec),
                                  negdegrevlex(C.nvars, priority), C.names)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_homogeneous_binomials(self, data):
        n = data.draw(st.integers(2, 4))
        gens = draw_homogeneous_binomials(data, n)
        priority = tuple(data.draw(st.permutations(range(n))))
        names = tuple(f"x{i + 1}" for i in range(n))
        assert_same_basis(gens, negdegrevlex(n, priority), names)

    @pytest.mark.parametrize("priority, pairs", [
        # weights (2, 2, 1, 2)
        ((2, 0, 3, 1), [((3, 0, 1, 0), (0, 0, 3, 2)),
                        ((4, 0, 0, 0), (0, 1, 2, 2)),
                        ((0, 2, 3, 0), (0, 0, 7, 0))]),
        # weights (1, 2, 2, 2)
        ((2, 1, 0, 3), [((0, 0, 2, 0), (0, 0, 1, 1)),
                        ((0, 3, 1, 0), (4, 0, 1, 1)),
                        ((0, 1, 0, 0), (2, 0, 0, 0)),
                        ((2, 2, 1, 0), (2, 2, 0, 1))]),
        # weights (2, 2, 4, 1)
        ((1, 0, 2, 3), [((0, 0, 2, 0), (1, 1, 1, 0)),
                        ((0, 1, 1, 2), (0, 3, 0, 2)),
                        ((1, 1, 0, 0), (0, 1, 0, 2))]),
        # weights (1, 2, 1, 3)
        ((3, 1, 2, 0), [((1, 1, 2, 0), (0, 0, 5, 0)),
                        ((2, 1, 0, 0), (2, 0, 2, 0))]),
    ])
    def test_reducer_choice_decides_the_tails(self, priority, pairs):
        # found by search: on these, taking the first or the last divisor,
        # or the last of least ecart, in place of the first of least ecart
        # leaves a different trail in the basis
        assert_same_basis([Polynomial({a: 1, b: -1}) for a, b in pairs],
                          negdegrevlex(4, priority), ("x1", "x2", "x3", "x4"))

    def test_other_generators_are_refused(self):
        C = curve([2, 3])
        (g,) = defining_ideal(C)
        order = negdegrevlex(2, canonical_priority(C))
        x = Polynomial.variable(0, 2)
        for gens in ([g * g], [x], [g, x], [g.scale(2)]):
            with pytest.raises(NonBinomialGenerator) as exc:
                curve_standard_basis(gens, order)
            # the refusal names the offending generator
            assert repr(gens[-1]) in str(exc.value)
            with pytest.raises(NonBinomialGenerator):
                tangent_cone(C, ideal_gens=gens)


class TestLeadsAreTheLeadingMonomials:
    """``BasisResult.leads`` is what ``leading_term`` reads off each element,
    whichever engine computed the basis."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_engine(self, data):
        n = data.draw(st.integers(2, 3))
        gens = draw_homogeneous_binomials(data, n)
        extra = data.draw(st.booleans())
        if extra:
            # any other polynomial is for the Polynomial engines alone
            monos = st.tuples(*[st.integers(0, 3)] * n)
            coeffs = st.integers(-3, 3).filter(bool)
            gens.append(Polynomial(data.draw(st.dictionaries(
                monos, coeffs, min_size=1, max_size=3))))
        priority = tuple(data.draw(st.permutations(range(n))))
        local = negdegrevlex(n, priority)
        results = [buchberger(gens, degrevlex(n, priority)),
                   standard_basis(gens, local)]
        if not extra:
            results.append(curve_standard_basis(gens, local))
        for result in results:
            assert result.leads == tuple(leading_term(g, result.order)[0]
                                         for g in result.elements)


class TestMonomialTimesUnitRefused:
    """No graded ideal without monomials holds x^l - x^t with l | t, so the
    exponent-pair Mora loop refuses one instead of rescaling it."""

    def test_generator(self):
        order = negdegrevlex(2)
        with pytest.raises(SelfCheckFailed, match="monomial times a unit"):
            toric._complete_binomials([((1, 0), (2, 0))], order.key,
                                      local=True)

    def test_remainder(self):
        # S(x1 - x2, x1 - x2^2) = x2^2 - x2, irreducible: x2 * (x2 - 1)
        order = negdegrevlex(2)
        gens = [((1, 0), (0, 1)), ((1, 0), (0, 2))]
        with pytest.raises(SelfCheckFailed, match="monomial times a unit"):
            toric._complete_binomials(gens, order.key, local=True)

    def test_grown_reducer(self):
        # h = x2 - x2^3 (ecart 2) meets its only reducer x2 - x1^4 (ecart 3):
        # Mora would add h to the reducers
        order = negdegrevlex(2)
        reducers, ecarts = [((0, 1), (4, 0))], [3]
        with pytest.raises(SelfCheckFailed, match="monomial times a unit"):
            toric._mora_nf((0, 1), (0, 3), reducers, ecarts, order.key)
        assert reducers == [((0, 1), (4, 0))] and ecarts == [3]

    def test_curve_callers_still_refuse(self, monkeypatch):
        # on a curve's ideal a refused reducer is a bug: the cones, the
        # gluing's leading-ideal check and verify_instance raise it
        spec = gluing.validate_gluing([2, 3], [4, 5], 7, 8)
        reps = [tangent_cone(C, _paper_priority(C.nvars))
                for C in (gluing.component_curve(spec, 1),
                          gluing.component_curve(spec, 2))]
        rosales = glued_ideal(spec)
        C = curve([6, 7, 15])

        def refuse(lead, trail):
            raise SelfCheckFailed("monomial times a unit (refused)")

        monkeypatch.setattr(toric, "_ecart", refuse)
        with pytest.raises(SelfCheckFailed, match="monomial times a unit"):
            tangent_cone(C)
        with pytest.raises(SelfCheckFailed, match="monomial times a unit"):
            gluing._leading_decomposition_ok(spec, *reps, rosales,
                                             glued_curve(spec))
        with pytest.raises(SelfCheckFailed, match="monomial times a unit"):
            gluing.verify_instance(spec)
