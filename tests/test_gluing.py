import json
import multiprocessing
import pickle
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from curvegluing import semigroup as sg
from curvegluing.basis import standard_basis
from curvegluing.errors import (EmptyRange, GcdNotOne, GcdViolation,
                                GeneratorCollision, GluingError,
                                MalformedConfig, MalformedPolynomial,
                                NotInSemigroup, PIsMinimalGenerator,
                                QIsMinimalGenerator, SelfCheckFailed,
                                TheoremViolation, WorkBudgetExceeded)
from curvegluing.gluing import (FamilyTemplate, GluingSpec, glued_curve,
                                glued_ideal,
                                parse_linear, report_to_record, scan_family,
                                scan_instance, validate_gluing,
                                verify_instance)
from curvegluing.hilbert import certifies_defining_ideal
from curvegluing.polyalg import negdegrevlex, parse_polynomial
from curvegluing.tangentcone import canonical_priority, tangent_cone
from curvegluing.toric import (as_polynomial, check_kernel_element,
                               defining_ideal, ideals_equal,
                               minimal_generator_count)

from family_samples import (joint_order_decomposition_ok, kunz_closure,
                            random_nice_gluing, random_semigroup)
from record_gluing_digests import PATH as GLUING_DIGESTS


def _polys(gens):
    """Exponent pairs (lead, trail) as the Polynomials x^lead - x^trail."""
    return [as_polynomial(g) for g in gens]


def _pair(text, names):
    """``text``, a binomial x^lead - x^trail, as the pair (lead, trail)."""
    lead, trail = parse_polynomial(text, names).terms
    return lead, trail


def theorems_hold(report) -> bool:
    """No applicable theorem is contradicted, as ``all_theorems_hold`` reads."""
    return report.theorem1_confirmed is not False and \
        report.theorem2_confirmed is not False


class TestValidation:
    def test_example_gluing_not_nice(self):
        spec = validate_gluing([5, 12], [7, 8], 17, 21)
        assert not spec.nice
        assert spec.b_witness.coefficients == (1, 1)
        assert spec.a_witness.coefficients == (3, 0)

    def test_family_gluing_nice(self):
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        assert spec.nice
        assert spec.a_witness.coefficients == (2, 0)
        assert spec.b_witness.coefficients == (2, 1)
        assert spec.b_witness.size >= spec.a_witness.coefficients[0]

    def test_gcd_violation(self):
        with pytest.raises(GcdViolation):
            validate_gluing([2, 3], [4, 5], 6, 8)

    def test_p_is_generator(self):
        with pytest.raises(PIsMinimalGenerator):
            validate_gluing([2, 3], [4, 5], 3, 8)

    def test_q_is_generator(self):
        with pytest.raises(QIsMinimalGenerator):
            validate_gluing([2, 3], [4, 5], 7, 5)

    def test_p_not_member(self):
        with pytest.raises(NotInSemigroup):
            validate_gluing([3, 4], [4, 5], 5, 8)

    def test_q_not_member(self):
        with pytest.raises(NotInSemigroup):
            validate_gluing([2, 3], [4, 5], 7, 11)

    @pytest.mark.parametrize("s1, p, message", [
        ([3, 4], 5, "p = 5 is not in S1 [3, 4]"),  # neither is a member
        ([2, 3], 7, "q = 11 is not in S2 [4, 5]"),
    ])
    def test_p_is_checked_before_q(self, s1, p, message):
        with pytest.raises(NotInSemigroup) as exc:
            validate_gluing(s1, [4, 5], p, 11)
        assert str(exc.value) == f"NotInSemigroup: {message}"

    def test_generator_collision(self):
        # 5*3 = 3*5 collides before the generator-membership clauses fire
        with pytest.raises(GeneratorCollision):
            validate_gluing([2, 3], [4, 5], 3, 5)

    def test_unary_second_component_requires_q_at_least_two(self):
        with pytest.raises(QIsMinimalGenerator):
            validate_gluing([6, 7, 15], [1], 13, 1)

    def test_unary_family_witnesses(self):
        for q in (2, 3, 8, 30):
            if q % 7 == 0:
                continue
            spec = validate_gluing([6, 7, 15], [1], 6 * q + 7, q)
            assert spec.nice
            assert spec.a_witness.coefficients == (q,)
            assert spec.b_witness.coefficients == (q, 1, 0)

    def test_niceness_asymmetry(self):
        assert not validate_gluing([5, 12], [7, 8], 17, 21).nice
        assert not validate_gluing([7, 8], [5, 12], 21, 17).nice
        assert validate_gluing([2, 3], [4, 5], 7, 8).nice
        assert not validate_gluing([4, 5], [2, 3], 8, 7).nice


class TestGluedObjects:
    def test_glued_curve_2_2(self):
        spec = validate_gluing([5, 12], [7, 8], 17, 21)
        C = glued_curve(spec)
        assert C.generators == (105, 252, 119, 136)
        assert C.names == ("x1", "x2", "y1", "y2")

    def test_glued_curve_family(self):
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        assert glued_curve(spec).generators == (16, 24, 28, 35)
        spec32 = validate_gluing([6, 7, 15], [1], 19, 2)
        assert glued_curve(spec32).generators == (12, 14, 30, 19)

    def test_glued_ideal_2_2(self):
        spec = validate_gluing([5, 12], [7, 8], 17, 21)
        C = glued_curve(spec)
        gens = _polys(glued_ideal(spec))
        published = [parse_polynomial(t, C.names)
                     for t in ("x1^12 - x2^5", "y1^8 - y2^7", "x1*x2 - y1^3")]
        got = {frozenset(g.terms) for g in gens} | \
            {frozenset((-g).terms) for g in gens}
        assert all(frozenset(p.terms) in got for p in published)
        assert len(gens) == 3

    def test_bridge_binomial_unary_family(self):
        for q in (2, 5, 8):
            spec = validate_gluing([6, 7, 15], [1], 6 * q + 7, q)
            C = glued_curve(spec)
            gens = _polys(glued_ideal(spec))
            bridge = parse_polynomial(f"y1^{q} - x1^{q}*x2", C.names)
            assert any(g == bridge or g == -bridge for g in gens)

    def test_glued_ideal_matches_elimination(self):
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        C = glued_curve(spec)
        assert ideals_equal(_polys(glued_ideal(spec)),
                            _polys(defining_ideal(C)), C.nvars)

    def test_remark_smallest_generator(self):
        rng = random.Random(97)
        for _ in range(20):
            spec = random_nice_gluing(rng)
            qm1 = spec.q * spec.s1.generators[0]
            pn1 = spec.p * spec.s2.generators[0]
            assert qm1 < pn1
            assert qm1 == min(spec.glued_generators)


class TestVerifyInstance:
    def test_example_2_2(self):
        spec = validate_gluing([5, 12], [7, 8], 17, 21)
        report = verify_instance(spec)
        assert report.c1_cm and report.c2_cm
        assert not report.theorem1_applicable  # not nice
        assert not report.glued_cm
        assert report.glued_hf_nondecreasing
        assert report.ideal_cross_check
        assert report.gorenstein
        assert report.complete_intersection
        assert not report.rossi_candidate
        assert theorems_hold(report)

    def test_family_2_9(self):
        for r in (1, 2, 3):
            spec = validate_gluing([2, 3], [4, 5], 4 * r + 3, 8)
            report = verify_instance(spec)
            assert report.theorem1_applicable and report.theorem1_confirmed
            assert report.theorem2_applicable and report.theorem2_confirmed
            assert report.leading_ideal_decomposition_ok
            assert report.factorization_ok
            assert report.remark_smallest_ok
            assert report.gorenstein and report.complete_intersection

    def test_family_2_9_r1_series(self):
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        report = verify_instance(spec)
        assert list(report.glued_hilbert.reduced_numerator) == [1, 3, 4, 4, 3, 1]
        assert report.glued_hilbert.multiplicity == 16

    def test_family_3_2(self):
        for q in (2, 3):
            spec = validate_gluing([6, 7, 15], [1], 6 * q + 7, q)
            report = verify_instance(spec)
            assert not report.c1_cm
            assert report.c2_cm
            assert not report.theorem1_applicable
            assert report.theorem2_applicable and report.theorem2_confirmed
            assert not report.glued_cm
            assert report.glued_hf_nondecreasing
            assert report.factorization_ok
            assert report.gorenstein and report.complete_intersection

    def test_oracle_agreement_on_glued_curve(self):
        spec = validate_gluing([5, 12], [7, 8], 17, 21)
        report = verify_instance(spec, hf_prefix_len=20)
        glued = glued_curve(spec)
        oracle = glued.semigroup.order_filtration_hilbert(20)
        assert list(report.glued_hilbert.hf_prefix) == oracle


class TestCornerShapes:
    def test_first_component_is_the_line(self):
        # S1 = <1>: the x-block is a single variable; q = 2*3 makes it nice
        spec = validate_gluing([1], [3, 4, 5], 7, 6)
        assert spec.nice
        assert spec.b_witness.coefficients == (7,)
        report = verify_instance(spec)
        assert report.c1_cm
        assert theorems_hold(report)

    def test_second_component_three_generators_cm(self):
        # three-generator second component with a Cohen-Macaulay cone
        spec = validate_gluing([2, 3], [4, 5, 7], 9, 8)
        report = verify_instance(spec)
        assert report.c2_cm
        if report.theorem2_applicable:
            assert report.theorem2_confirmed


ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def certified(spec, gens=None) -> bool:
    C = glued_curve(spec)
    gens = glued_ideal(spec) if gens is None else gens
    return certifies_defining_ideal(tangent_cone(C, ideal_gens=gens).lm_set, C)


def config_specs(max_members):
    """The first valid members of each config, keyed by its path under the
    repository root (elimination is cheap)."""
    specs = []
    for name, count in max_members.items():
        tpl = FamilyTemplate.from_config(json.loads((ROOT / name).read_text()))
        for v in range(tpl.start, tpl.start + count):
            try:
                specs.append(validate_gluing(list(tpl.s1), list(tpl.s2),
                                             tpl.p_expr(v), tpl.q_expr(v)))
            except GluingError:
                pass
    return specs


# every member of the four scan configs
SCAN_CONFIG_MEMBERS = {"configs/family_q.json": 29,
                       "configs/family_r.json": 25,
                       "bench/configs/family_q_80.json": 79,
                       "bench/configs/family_r_150.json": 150}


def small_nice_gluings(seed, dims, count):
    """Seeded nice gluings whose glued generators sum to at most 300.

    Elimination cost grows quickly with the generators; this bound keeps
    the oracle side of the comparison well under a second per instance.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        spec = random_nice_gluing(rng, *dims, max_gen=7)
        if sum(spec.glued_generators) <= 300:
            out.append(spec)
    return out


class TestHilbertCertificate:
    """The certificate against elimination, the independent oracle."""

    def test_agrees_with_elimination_on_shipped_configs(self):
        specs = config_specs({"configs/family_q.json": 5,
                              "configs/family_r.json": 10})
        assert len(specs) == 15
        for spec in specs:
            C = glued_curve(spec)
            assert ideals_equal(_polys(glued_ideal(spec)),
                                _polys(defining_ideal(C)), C.nvars)
            assert certified(spec)

    def test_agrees_with_elimination_on_nice_gluings(self):
        for dims in ((2, 2), (3, 2), (2, 3)):
            for spec in small_nice_gluings(307, dims, 3):
                C = glued_curve(spec)
                assert ideals_equal(_polys(glued_ideal(spec)),
                                    _polys(defining_ideal(C)), C.nvars)
                assert certified(spec)

    def test_rejects_squared_bridge(self):
        specs = [validate_gluing([5, 12], [7, 8], 17, 21)] + \
            small_nice_gluings(311, (3, 2), 3)
        for spec in specs:
            gens = _polys(glued_ideal(spec))
            bridge = gens[-1]
            # not a pure difference binomial: the Polynomial engine's leads
            C = glued_curve(spec)
            order = negdegrevlex(C.nvars, canonical_priority(C))
            leads = standard_basis(gens[:-1] + [bridge * bridge], order).leads
            assert not certifies_defining_ideal(leads, C)

    def test_rejects_dropped_component_generator(self):
        specs = [validate_gluing([5, 12], [7, 8], 17, 21)] + \
            small_nice_gluings(313, (2, 3), 3)
        for spec in specs:
            gens = glued_ideal(spec)
            assert not certified(spec, gens[1:])

    def test_non_graded_generator_rejected(self):
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        C = glued_curve(spec)
        with pytest.raises(SelfCheckFailed, match="homogeneous"):
            check_kernel_element(_pair("x1^2 - y1", C.names), C)
        check_kernel_element(_pair("x1^3 - x2^2", C.names), C)

    def test_verify_rejects_non_graded_generator(self, monkeypatch):
        import curvegluing.gluing as gl

        real = gl.glued_ideal

        def tampered(spec, g1=None, g2=None):
            gens = real(spec, g1, g2)
            C = glued_curve(spec)
            return gens + [_pair("x1 - y1", C.names)]

        monkeypatch.setattr(gl, "glued_ideal", tampered)
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        with pytest.raises(SelfCheckFailed):
            verify_instance(spec, cross_check_ideal=True)

    def test_verify_rejects_uncertified_ideal(self, monkeypatch):
        import curvegluing.gluing as gl

        real = gl.glued_ideal
        monkeypatch.setattr(gl, "glued_ideal",
                            lambda spec, g1=None, g2=None:
                            real(spec, g1, g2)[1:])
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        with pytest.raises(SelfCheckFailed, match="certificate"):
            verify_instance(spec, cross_check_ideal=True)

    def test_no_elimination_of_the_glued_curve(self, monkeypatch):
        import curvegluing.gluing as gl
        import curvegluing.tangentcone as tc
        import curvegluing.toric as toric

        eliminated = []
        real = toric.defining_ideal

        def spy(C):
            eliminated.append(C.generators)
            return real(C)

        for module in (gl, tc, toric):
            monkeypatch.setattr(module, "defining_ideal", spy)
        spec = validate_gluing([5, 12], [7, 8], 17, 21)
        report = verify_instance(spec, cross_check_ideal=True)
        assert report.ideal_cross_check is True
        assert sorted(eliminated) == [(5, 12), (7, 8)]


class TestPresentationSize:
    """``complete_intersection`` read off the glued presentation's size,
    against the pruned count of ``minimal_generator_count``."""

    def _check(self, spec) -> bool:
        gens = glued_ideal(spec)
        nvars = len(spec.glued_generators)
        pruned = minimal_generator_count(_polys(gens), nvars)
        assert len(gens) == pruned
        report = verify_instance(spec, cross_check_ideal=False)
        assert report.complete_intersection == (pruned == nvars - 1)
        return report.complete_intersection

    def test_every_member_of_the_shipped_configs(self):
        specs = config_specs({"configs/family_q.json": 29,
                              "configs/family_r.json": 25})
        assert len(specs) == 50
        assert all(self._check(spec) for spec in specs)

    def test_seeded_nice_gluings(self):
        for dims in ((2, 2), (3, 2), (2, 3)):
            for spec in small_nice_gluings(307, dims, 3):
                self._check(spec)

    def test_non_nice_example(self):
        assert self._check(validate_gluing([5, 12], [7, 8], 17, 21))

    @pytest.mark.parametrize("s1,s2,p,q", [
        ([3, 4, 5], [2, 3], 7, 5),
        ([3, 4, 5], [2, 3], 7, 4),
        ([2, 3], [3, 4, 5], 5, 7),
        ([2, 3], [3, 4, 5], 5, 6),
    ])
    def test_non_complete_intersection_component(self, s1, s2, p, q):
        assert not self._check(validate_gluing(s1, s2, p, q))

    def test_no_membership_test_in_the_glued_ring(self, monkeypatch):
        import curvegluing.toric as toric

        arities = []  # ring variables of every input generator
        real_complete = toric._complete_binomials
        real_prune = toric._prune_redundant

        def eliminating(gens, key, local=False):
            # the elimination runs on (lead, trail) pairs with the parameter
            # t in slot 0; the local completions of the cones are not one
            if not local:
                arities.extend(len(g[0]) - 1 for g in gens)
            return real_complete(gens, key, local)

        def pruning(gens, is_member):
            # the pruner runs on the eliminated (lead, trail) pairs
            arities.extend(len(lead) for lead, _ in gens)
            return real_prune(gens, is_member)

        monkeypatch.setattr(toric, "_complete_binomials", eliminating)
        monkeypatch.setattr(toric, "_prune_redundant", pruning)
        # two-generator curves are presented without elimination, so the
        # second gluing has a component, (6, 7, 15), that still eliminates
        for s1, s2, p, q in (([5, 12], [7, 8], 17, 21),
                             ([6, 7, 15], [2, 3], 13, 5)):
            spec = validate_gluing(s1, s2, p, q)
            report = verify_instance(spec, cross_check_ideal=True)
            assert report.ideal_cross_check is True
        # the glued rings: 2 + 2 and 3 + 2 variables
        assert arities and 4 not in arities and 5 not in arities

    def test_no_polynomial_completion_on_the_verify_path(self, monkeypatch):
        import curvegluing.basis as basis
        import curvegluing.polyalg as polyalg

        called = []

        def spying(name, real):
            def spy(*args, **kwargs):
                called.append(name)
                return real(*args, **kwargs)
            return spy

        monkeypatch.setattr(basis, "_complete",
                            spying("_complete", basis._complete))
        # basis binds spoly by name, so both bindings are spied
        spoly = spying("spoly", polyalg.spoly)
        for module in (polyalg, basis):
            monkeypatch.setattr(module, "spoly", spoly)
        spec = random_nice_gluing(random.Random(101), dim1=2, dim2=2)
        report = verify_instance(spec, cross_check_ideal=True)
        assert report.ideal_cross_check is True
        # the nice path ran: both cones, the glued cone and the
        # leading-ideal decomposition under the theorem order
        assert report.leading_ideal_decomposition_ok is True
        assert called == []

    def test_leading_monomials_read_from_the_basis(self, monkeypatch):
        # every verdict reads the leading monomials the completion recorded;
        # none is derived again from a polynomial, and no least-degree form
        # is built on the verify path
        import curvegluing.polyalg as polyalg

        called = []
        modules = [m for name, m in sys.modules.items()
                   if name == "curvegluing" or name.startswith("curvegluing.")]
        for name in ("leading_term", "least_degree_form"):
            real = getattr(polyalg, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                called.append(_name)
                return _real(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy)
        spec = random_nice_gluing(random.Random(101), dim1=2, dim2=2)
        report = verify_instance(spec, cross_check_ideal=True)
        assert report.ideal_cross_check is True
        assert report.leading_ideal_decomposition_ok is True
        assert called == []

    def test_no_polynomial_is_built_on_the_verify_path(self, monkeypatch):
        # a curve's ideal stays exponent pairs from presentation to verdict;
        # a Polynomial is built only to print one
        from curvegluing.polyalg import Polynomial

        rng = random.Random(109)
        specs = [random_nice_gluing(rng, dim1=2 + i % 2, dim2=2 + i // 2 % 2)
                 for i in range(20)]
        specs.append(validate_gluing([6, 7, 15], [1], 13, 2))
        built = []
        real = Polynomial.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "__init__", spy)
        for spec in specs:
            report = verify_instance(spec, cross_check_ideal=True)
            assert report.ideal_cross_check is True
        assert len(built) == 0


class TestTheoremSuites:
    def test_nice_gluings_of_plane_curves_stay_cm(self):
        rng = random.Random(101)
        for _ in range(25):
            spec = random_nice_gluing(rng, dim1=2, dim2=2)
            report = verify_instance(spec, cross_check_ideal=False)
            assert report.theorem1_applicable
            assert report.theorem1_confirmed
            assert report.remark_smallest_ok

    def test_monotonicity_with_three_generator_first_component(self):
        rng = random.Random(103)
        for _ in range(15):
            spec = random_nice_gluing(rng, dim1=3, dim2=2)
            report = verify_instance(spec, cross_check_ideal=False)
            assert report.theorem2_applicable
            assert report.theorem2_confirmed
            assert report.leading_ideal_decomposition_ok
            assert report.factorization_ok


def digest_specs() -> list[GluingSpec]:
    """The 153 gluings of ``tests/gluing_digests.json``."""
    return [validate_gluing(*row["gluing"])
            for row in json.loads(GLUING_DIGESTS.read_text())]


class TestLeadingDecompositionFromTheIdentity:
    """``leading_ideal_decomposition_ok`` is read off the Hilbert-series
    factorization; the joint-order completion of ``family_samples`` is the
    reference it must agree with wherever Theorem 2 applies."""

    @staticmethod
    def assert_agrees(specs) -> int:
        applicable = 0
        for spec in specs:
            report = verify_instance(spec, cross_check_ideal=False)
            if report.theorem2_applicable:
                applicable += 1
                assert report.leading_ideal_decomposition_ok is \
                    report.factorization_ok is \
                    joint_order_decomposition_ok(spec), spec
            else:
                assert report.leading_ideal_decomposition_ok is None, spec
        return applicable

    def test_digest_gluings(self):
        assert self.assert_agrees(digest_specs()) == 146

    def test_config_members(self):
        # every member: q = 2..30 and r = 1..25
        specs = config_specs({"configs/family_q.json": 29,
                              "configs/family_r.json": 25})
        assert len(specs) == 50
        assert self.assert_agrees(specs) == 50

    def test_field_is_read_from_the_identity(self, monkeypatch):
        import curvegluing.gluing as gl

        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        assert joint_order_decomposition_ok(spec)
        monkeypatch.setattr(gl, "product_factorization_check",
                            lambda *args: False)
        report = verify_instance(spec)
        assert report.theorem2_applicable
        assert report.factorization_ok is False
        assert report.leading_ideal_decomposition_ok is False


def test_glued_hilbert_function_matches_the_order_filtration():
    # the semigroup-side oracle shares no code with the standard basis
    specs = digest_specs()
    assert len(specs) == 153
    for spec in specs:
        # built before verify_instance puts the identity's table in the
        # cache, so the oracle reads a round-robin table
        S = sg.NumericalSemigroup(tuple(sorted(spec.glued_generators)))
        prefix = verify_instance(spec, cross_check_ideal=False) \
            .glued_hilbert.hf_prefix
        oracle = S.order_filtration_hilbert(len(prefix) - 1)
        assert list(prefix) == oracle, spec


class TestGorensteinFromTheComponents:
    """``gorenstein`` against the components' symmetry and Kunz's closure."""

    def test_digest_gluings(self):
        both = set()
        for spec in digest_specs():
            S = glued_curve(spec).semigroup
            assert S.is_symmetric() == kunz_closure(S), spec
            assert S.is_symmetric() == (spec.s1.is_symmetric()
                                        and spec.s2.is_symmetric()), spec
            both.add(S.is_symmetric())
        assert both == {True, False}

    def test_a_mismatch_is_a_self_check(self, monkeypatch):
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        assert verify_instance(spec).gorenstein
        real = sg.NumericalSemigroup.is_symmetric
        monkeypatch.setattr(sg.NumericalSemigroup, "is_symmetric",
                            lambda S: S.generators != (4, 5) and real(S))
        with pytest.raises(SelfCheckFailed, match="symmetry of the glued") \
                as exc:
            verify_instance(spec)
        assert exc.value.bundle == {"s1": [2, 3], "s2": [4, 5], "p": 7,
                                    "q": 8}


def test_glued_curve_rejects_a_non_minimal_glued_set():
    # q * (2, 3) + p * (1,) = (2, 3, 5), and 5 = 2 + 3 is not minimal
    s1, s2 = sg.NumericalSemigroup((2, 3)), sg.NumericalSemigroup((1,))
    spec = GluingSpec(s1, s2, p=5, q=1,
                      b_witness=sg.Representation((1, 1), 5),
                      a_witness=sg.Representation((1,), 1), nice=False)
    with pytest.raises(SelfCheckFailed, match="not a minimal generating set"):
        glued_curve(spec)


def test_glued_curve_reports_a_non_minimal_set_as_a_self_check(monkeypatch):
    import curvegluing.gluing as gl

    def refuse(gens, names, semigroup):
        raise ValueError(f"{sorted(gens)} is not minimal")

    monkeypatch.setattr(gl, "MonomialCurve", refuse)
    with pytest.raises(SelfCheckFailed, match="not a minimal generating set"):
        glued_curve(validate_gluing([2, 3], [4, 5], 7, 8))


class TestGluedAperyTable:
    """The table of a glued tuple, built from the gluing identity, against
    the round robin, which stays the reference."""

    @staticmethod
    def assert_matches_the_round_robin(spec):
        glued = tuple(sorted(spec.glued_generators))
        apery = glued_curve(spec).semigroup.apery
        assert apery == sg._round_robin(glued), spec

    def test_digest_gluings(self):
        specs = digest_specs()
        assert len(specs) == 153
        for spec in specs:
            self.assert_matches_the_round_robin(spec)

    def test_scan_config_members(self):
        specs = config_specs(SCAN_CONFIG_MEMBERS)
        assert len(specs) == 25 + 25 + 68 + 150
        for spec in specs:
            self.assert_matches_the_round_robin(spec)

    @staticmethod
    def assert_representations_sum(spec, rng):
        # the glued semigroup's ``contains`` walks the identity's table
        S = glued_curve(spec).semigroup
        gens, apery = S.generators, S.apery
        for n in list(apery) + [rng.randint(0, 3 * max(apery))
                                for _ in range(20)]:
            rep = S.contains(n)
            if n < apery[n % S.multiplicity]:
                assert rep is None, (spec, n)
                continue
            assert rep.value == n
            assert sum(c * g for c, g in zip(rep.coefficients, gens)) == n, \
                (spec, n)

    def test_representations_on_digest_gluings(self):
        rng = random.Random(59)
        for spec in digest_specs():
            self.assert_representations_sum(spec, rng)

    def test_representations_on_scan_config_members(self):
        rng = random.Random(61)
        for spec in config_specs(SCAN_CONFIG_MEMBERS):
            self.assert_representations_sum(spec, rng)

    def test_multiplicity_p_n1(self):
        # m = 8 = p*n1 < q*m1 = 10: Ap(S, 8) = 4*Ap(<2, 3>, 2) + 5*Ap(<2, 3>, 4)
        spec = validate_gluing([2, 3], [2, 3], 4, 5)
        assert glued_curve(spec).semigroup.apery == \
            (0, 25, 10, 27, 12, 37, 22, 15)
        self.assert_matches_the_round_robin(spec)

    def test_seeded_gluings_past_p_n1(self):
        # no digest or pool gluing has p*n1 < q*m1; these are not nice
        rng = random.Random(53)
        found = 0
        while found < 40:
            s1 = random_semigroup(rng, rng.randint(2, 3), 12)
            s2 = random_semigroup(rng, rng.randint(2, 3), 12)
            p = rng.randint(s1.generators[0] + 1, 40)
            q = rng.randint(2, 6 * s2.generators[0])
            try:
                spec = validate_gluing(s1, s2, p, q)
            except GluingError:
                continue
            if p * s2.generators[0] < q * s1.generators[0]:
                assert not spec.nice
                found += 1
                self.assert_matches_the_round_robin(spec)

    def test_glued_curve_reads_the_identity(self, monkeypatch):
        built = []
        real = sg.glued_apery

        def spying(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(sg, "glued_apery", spying)
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        apery = glued_curve(spec).semigroup.frobenius_and_apery()[1]
        assert len(built) == 1 and apery is built[0]

    def test_budget_is_the_glued_multiplicity(self, monkeypatch):
        spec = validate_gluing([2, 3], [2, 3], 4, 5)
        monkeypatch.setattr(sg, "MAX_MULTIPLICITY", 7)
        with pytest.raises(WorkBudgetExceeded,
                           match=r"Ap\(S, 8\) needs a table of 8 residues"):
            glued_curve(spec)
        monkeypatch.setattr(sg, "MAX_MULTIPLICITY", 8)
        assert glued_curve(spec).semigroup.multiplicity == 8

    @pytest.mark.parametrize("gens,table,match", [
        # Ap(<4, 5>, 4) with its largest element raised by 4: F(S2) reads 15
        ((4, 5), (0, 5, 10, 19), "Frobenius number 141, not"),
        # 8*2 = 16 = 8*0 mod 16: two sums share each residue
        ((2, 3), (0, 2), "misses a residue mod 16"),
    ])
    def test_self_checks(self, gens, table, match):
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        # the component on ``gens`` carries the wrong table
        wrong = sg.NumericalSemigroup(gens, table)
        spec = replace(spec, **{"s1" if gens == (2, 3) else "s2": wrong})
        with pytest.raises(SelfCheckFailed, match=match) as exc:
            glued_curve(spec)
        assert exc.value.bundle == {"s1": [2, 3], "s2": [4, 5], "p": 7,
                                    "q": 8}

    def test_family_scan_builds_no_glued_table_by_the_round_robin(
            self, monkeypatch):
        built = []
        real = sg._round_robin

        def spying(gens):
            built.append(gens)
            return real(gens)

        monkeypatch.setattr(sg, "_round_robin", spying)
        tpl = FamilyTemplate.from_config(
            json.loads((CONFIGS / "family_q.json").read_text()))
        glued = {tuple(sorted(r["glued_generators"]))
                 for r in scan_family(tpl) if not r["skipped"]}
        assert len(glued) == 25
        assert glued.isdisjoint(built)
        # the components' tables and each member's Ap(<1>, q)
        assert {(6, 7, 15), (1,)} <= set(built)


class TestLinearExpr:
    @pytest.mark.parametrize("text,value,expect", [
        ("4*r + 3", 2, 11),
        ("8", 5, 8),
        ("r", 9, 9),
        ("6*q + 7", 3, 25),
        ("2q - 1", 4, 7),
    ])
    def test_parse_and_eval(self, text, value, expect):
        param = "q" if "q" in text else "r"
        assert parse_linear(text, param)(value) == expect

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            parse_linear("4*s + 3", "r")

    @pytest.mark.parametrize("text", [
        "q^2", "3/2*q", "qq",                  # not linear with int coefficients
        "-", "6*q +", "3-", "6*q - - 7", "",   # dangling or doubled operators
    ])
    def test_rejects_text_that_is_not_integer_linear(self, text):
        with pytest.raises(MalformedPolynomial):
            parse_linear(text, "q")

    @pytest.mark.parametrize("text", ["q*6 + 7", "6 q + 7", "2*3*q + 7",
                                      "12/2 q + 7", "7 + 6q", "+6*q + 7"])
    def test_any_integer_linear_form_of_the_grammar(self, text):
        expr = parse_linear(text, "q")
        assert (expr.coeff, expr.const, expr.text) == (6, 7, text)


class TestFamilyConfig:
    BASE = {"s1": [2, 3], "s2": [4, 5], "parameter": "r",
            "p": "4*r + 3", "q": "8", "range": [1, 3]}

    def test_valid_config(self):
        tpl = FamilyTemplate.from_config(self.BASE)
        assert (tpl.start, tpl.stop, tpl.s1) == (1, 3, (2, 3))

    def test_missing_key_named(self):
        cfg = {k: v for k, v in self.BASE.items() if k != "range"}
        with pytest.raises(MalformedConfig, match="range"):
            FamilyTemplate.from_config(cfg)

    def test_reversed_range_rejected(self):
        with pytest.raises(EmptyRange):
            FamilyTemplate.from_config({**self.BASE, "range": [5, 1]})

    @pytest.mark.parametrize("key,value", [
        ("range", [1]), ("range", "1..3"), ("s1", [2, "3"]),
        ("parameter", 3), ("p", "4*s + 3"), ("output", 7)])
    def test_malformed_values(self, key, value):
        with pytest.raises(MalformedConfig):
            FamilyTemplate.from_config({**self.BASE, key: value})

    def test_not_an_object(self):
        with pytest.raises(MalformedConfig):
            FamilyTemplate.from_config([1, 2])

    @pytest.mark.parametrize("param", ["q_1", "", "r s", "1r"])
    def test_parameter_must_be_one_variable_name(self, param):
        with pytest.raises(MalformedConfig, match="parameter"):
            FamilyTemplate.from_config({**self.BASE, "parameter": param,
                                        "p": f"4*{param} + 3"})

    @pytest.mark.parametrize("param,p,q", [
        ("q", "6*q + 7", "2*q + 1"), ("q", "6*q + 7", "q + 1"),
        ("q", "6*q + 7", "7"), ("p", "2*p", "5")])
    def test_parameter_named_like_a_key_must_be_that_key(self, param, p, q):
        with pytest.raises(MalformedConfig, match=f"clashes with the key "
                           f"'{param}'"):
            FamilyTemplate.from_config({**self.BASE, "parameter": param,
                                        "p": p, "q": q})

    @pytest.mark.parametrize("param,p,q", [
        ("q", "6*q + 7", "q"), ("q", "6*q + 7", "1*q + 0"),
        ("p", "p", "8"), ("p", "1 * p", "2*p + 1")])
    def test_parameter_as_its_own_key_is_kept(self, param, p, q):
        tpl = FamilyTemplate.from_config({**self.BASE, "parameter": param,
                                          "p": p, "q": q})
        own = tpl.p_expr if param == "p" else tpl.q_expr
        assert own(5) == 5

    @pytest.mark.parametrize("key,value", [
        ("p", "-"), ("p", "4*r +"), ("q", "3-"), ("q", "r^2")])
    def test_malformed_expression_names_its_key(self, key, value):
        with pytest.raises(MalformedConfig, match=f"{key}: "):
            FamilyTemplate.from_config({**self.BASE, key: value})


class TestScan:
    TPL32_CONFIG = {"s1": [6, 7, 15], "s2": [1], "parameter": "q",
                    "p": "6*q + 7", "q": "q", "range": [2, 12]}
    TPL32 = FamilyTemplate.from_config(TPL32_CONFIG)

    def test_skips_invalid_parameters(self):
        records = scan_family(self.TPL32)
        skipped = {r["q"]: r["reason"] for r in records if r["skipped"]}
        assert skipped == {7: "GcdViolation"}
        verified = [r for r in records if not r["skipped"]]
        assert len(verified) == 10

    def test_records_in_parameter_order(self):
        records = scan_family(self.TPL32)
        assert [r["q"] for r in records] == list(range(2, 13))

    def test_parallel_matches_serial(self):
        serial = scan_family(self.TPL32)
        parallel = scan_family(self.TPL32, jobs=2)
        assert serial == parallel

    def test_family_2_9_scan(self):
        tpl = FamilyTemplate.from_config({
            "s1": [2, 3], "s2": [4, 5], "parameter": "r",
            "p": "4*r + 3", "q": "8", "range": [1, 25]})
        records = scan_family(tpl)
        assert all(not r["skipped"] for r in records)
        assert all(r["glued_cm"] and r["gorenstein"] for r in records)

    def test_falsified_instance_aborts_with_bundle(self, monkeypatch):
        import curvegluing.gluing as gl

        real = scan_instance

        def sabotage(template, value, cross_check_ideal=False):
            rec = real(template, value, cross_check_ideal)
            if not rec.get("skipped") and value == 3:
                rec["theorem2_confirmed"] = False
            return rec

        monkeypatch.setattr(gl, "scan_instance", sabotage)
        with pytest.raises(TheoremViolation) as exc:
            gl.scan_family(self.TPL32)
        assert exc.value.bundle["q"] == 3

    def test_self_check_failure_carries_bundle(self, monkeypatch):
        import curvegluing.gluing as gl

        def broken(spec, cross_check_ideal=True, hf_prefix_len=None):
            raise SelfCheckFailed("planted", {"stage": "test"})

        monkeypatch.setattr(gl, "verify_instance", broken)
        with pytest.raises(SelfCheckFailed) as exc:
            scan_instance(self.TPL32, 4)
        assert exc.value.bundle == {"q": 4, "p": 31, "stage": "test"}

    def test_bundle_survives_pickling(self):
        exc = pickle.loads(pickle.dumps(SelfCheckFailed("m", {"q": 4})))
        assert (str(exc), exc.bundle) == ("m", {"q": 4})

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched module only when forked")
    def test_self_check_bundle_survives_process_pool(self, monkeypatch):
        import curvegluing.gluing as gl

        real = gl.verify_instance

        def broken(spec, cross_check_ideal=True, hf_prefix_len=None):
            if spec.q == 5:
                raise SelfCheckFailed("planted")
            return real(spec, cross_check_ideal, hf_prefix_len)

        monkeypatch.setattr(gl, "verify_instance", broken)
        with pytest.raises(SelfCheckFailed) as exc:
            scan_family(self.TPL32, jobs=2)
        assert exc.value.bundle == {"q": 5, "p": 37}

    @pytest.mark.parametrize("budget,refused", [(10, False), (9, True)])
    def test_member_budget_is_inclusive(self, monkeypatch, budget, refused):
        import curvegluing.gluing as gl

        tpl = FamilyTemplate.from_config({**self.TPL32_CONFIG,
                                          "range": [2, 11]})
        monkeypatch.setattr(gl, "MAX_SCAN_MEMBERS", budget)
        if refused:
            listed = []
            monkeypatch.setattr(gl, "scan_instance",
                                lambda *args: listed.append(args))
            with pytest.raises(WorkBudgetExceeded,
                               match="holds 10 members; the budget is "
                                     "MAX_SCAN_MEMBERS = 9"):
                scan_family(tpl)
            assert listed == []
        else:
            assert len(scan_family(tpl)) == 10

    def test_record_round_trips_through_json(self):
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        record = report_to_record(verify_instance(spec))
        assert json.loads(json.dumps(record)) == record


class TestValidatedOnce:
    """A semigroup is validated, and its Apéry set built, once."""

    def test_calls_per_tuple_on_one_verify(self, monkeypatch):
        counts = {}
        for name in ("_check_generators", "_minimalize", "_round_robin"):
            real = getattr(sg, name)

            def spying(gens, *args, name=name, real=real):
                key = (name, gens)
                counts[key] = counts.get(key, 0) + 1
                return real(gens, *args)

            monkeypatch.setattr(sg, name, spying)
        spec = validate_gluing([5, 12], [7, 8], 17, 21)
        verify_instance(spec)
        glued = tuple(sorted(spec.glued_generators))
        for gens in ((5, 12), (7, 8)):
            # ``minimal_generators`` checks the raw list, the constructor
            # the minimal one; one round robin serves both
            assert counts[("_check_generators", gens)] <= 2
            assert counts[("_minimalize", gens)] <= 2
            assert counts[("_round_robin", gens)] == 1
        assert counts[("_check_generators", glued)] == 1
        assert counts[("_minimalize", glued)] == 1
        assert ("_round_robin", glued) not in counts
        # the auxiliary Ap(S2, q) of the gluing identity
        assert counts[("_round_robin", (21, 7, 8))] == 1
        assert {gens for _, gens in counts} == {(5, 12), (7, 8), glued,
                                                 (21, 7, 8)}


class TestComponentCache:
    """Each component is analysed once per process, failures every time."""

    @staticmethod
    def spy(monkeypatch, name, modules):
        seen = []
        real = getattr(modules[-1], name)

        def spying(C, *args, **kwargs):
            seen.append(C.generators)
            return real(C, *args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, spying)
        return seen

    def test_second_gluing_reuses_both_components(self, monkeypatch):
        import curvegluing.gluing as gl
        import curvegluing.tangentcone as tc
        import curvegluing.toric as toric

        first = validate_gluing([5, 12], [7, 8], 17, 21)
        second = validate_gluing([5, 12], [7, 8], 22, 23)
        cold = report_to_record(verify_instance(second))
        gl._component_analysis.cache_clear()
        verify_instance(first)
        eliminated = self.spy(monkeypatch, "defining_ideal", (gl, tc, toric))
        cones = self.spy(monkeypatch, "tangent_cone", (gl, tc))
        warm = report_to_record(verify_instance(second))
        glued = second.glued_generators
        assert eliminated == [] and cones == [glued]
        assert warm == cold

    def test_family_scan_presents_each_component_once(self, monkeypatch):
        import curvegluing.gluing as gl
        import curvegluing.tangentcone as tc
        import curvegluing.toric as toric

        eliminated = self.spy(monkeypatch, "defining_ideal", (gl, tc, toric))
        tpl = FamilyTemplate.from_config(
            json.loads((CONFIGS / "family_q.json").read_text()))
        records = scan_family(tpl)
        assert sum(not r["skipped"] for r in records) > 2
        assert sorted(eliminated) == [(1,), (6, 7, 15)]

    def test_one_completion_per_curve(self, monkeypatch):
        import curvegluing.gluing as gl
        import curvegluing.tangentcone as tc
        import curvegluing.toric as toric

        completed = []
        real = toric.curve_standard_basis

        def spying(gens, order):
            completed.append(order.priority)
            return real(gens, order)

        for module in (gl, tc, toric):
            if hasattr(module, "curve_standard_basis"):
                monkeypatch.setattr(module, "curve_standard_basis", spying)
        spec = validate_gluing([3, 4, 5], [4, 5], 7, 8)
        glued = canonical_priority(glued_curve(spec))
        assert glued == (2, 4, 1, 3, 0)  # glued generators 24, 32, 40, 28, 35
        verify_instance(spec)
        # both components, then the glued curve, each in the canonical order
        assert completed == [(2, 1, 0), (1, 0), glued]
        completed.clear()
        verify_instance(spec)
        assert completed == [glued]

    def test_failing_component_raises_on_every_call(self, monkeypatch):
        import curvegluing.gluing as gl
        import curvegluing.tangentcone as tc
        import curvegluing.toric as toric

        def refuse(lead, trail):
            raise SelfCheckFailed("monomial times a unit (refused)")

        monkeypatch.setattr(toric, "_ecart", refuse)
        cones = self.spy(monkeypatch, "tangent_cone", (gl, tc))
        spec = validate_gluing([2, 3], [4, 5], 7, 8)
        for _ in range(2):
            with pytest.raises(SelfCheckFailed, match="monomial times a unit"):
                verify_instance(spec)
        # the first component's cone fails, and is tried again, both times
        assert cones == [(2, 3), (2, 3)]

    def test_prefix_length_does_not_key_the_analysis(self, monkeypatch):
        import curvegluing.gluing as gl
        import curvegluing.tangentcone as tc
        import curvegluing.toric as toric

        eliminated = self.spy(monkeypatch, "defining_ideal", (gl, tc, toric))
        spec = validate_gluing([5, 12], [7, 8], 17, 21)
        short = verify_instance(spec, hf_prefix_len=4)
        long = verify_instance(spec, hf_prefix_len=30)
        assert eliminated == [(5, 12), (7, 8)]
        assert gl._component_analysis.cache_info().currsize == 2
        # only the glued prefix follows the requested length
        assert len(short.glued_hilbert.hf_prefix) == 5
        assert len(long.glued_hilbert.hf_prefix) == 31

    def test_prefix_past_the_budget_before_any_analysis(self, monkeypatch):
        import curvegluing.gluing as gl
        import curvegluing.hilbert as hilbert
        import curvegluing.tangentcone as tc
        import curvegluing.toric as toric

        eliminated = self.spy(monkeypatch, "defining_ideal", (gl, tc, toric))
        cones = self.spy(monkeypatch, "tangent_cone", (gl, tc))
        spec = validate_gluing([5, 12], [7, 8], 17, 21)
        with pytest.raises(WorkBudgetExceeded, match="MAX_HF_PREFIX"):
            verify_instance(spec, hf_prefix_len=hilbert.MAX_HF_PREFIX + 1)
        assert eliminated == [] and cones == []

    def test_component_in_either_block_analysed_once(self, monkeypatch):
        import curvegluing.gluing as gl
        import curvegluing.tangentcone as tc
        import curvegluing.toric as toric

        verify_instance(validate_gluing([2, 3], [4, 5], 7, 8))
        eliminated = self.spy(monkeypatch, "defining_ideal", (gl, tc, toric))
        cones = self.spy(monkeypatch, "tangent_cone", (gl, tc))
        swapped = validate_gluing([4, 5], [2, 3], 9, 5)
        verify_instance(swapped)
        # <4, 5> is now S1 and <2, 3> is S2: only the glued cone is new
        assert eliminated == [] and cones == [swapped.glued_generators]

    def test_each_semigroup_validated_once(self, monkeypatch):
        seen = []
        real = sg.minimal_generators

        def spying(raw):
            seen.append(tuple(raw))
            return real(raw)

        monkeypatch.setattr(sg, "minimal_generators", spying)
        first = validate_gluing([5, 12], [7, 8], 17, 21)
        second = validate_gluing([5, 12], [7, 8], 22, 23)
        assert seen == [(5, 12), (7, 8)]
        assert second.s1 is first.s1 and second.s2 is first.s2
        # a bad list is not cached: it raises on every call
        for _ in range(2):
            with pytest.raises(GcdNotOne):
                validate_gluing([4, 6], [7, 8], 17, 21)
        assert seen == [(5, 12), (7, 8), (4, 6), (4, 6)]
