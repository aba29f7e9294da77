"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every expected value here is either published for these curves or frozen
from an independent oracle (the semigroup order filtration, brute-force
standard-monomial counting, exhaustive representation search).  Tolerances
are exact: all arithmetic is integer or rational.
"""

import random
import time
from itertools import combinations_with_replacement
from math import gcd

from curvegluing.gluing import (FamilyTemplate, glued_curve, scan_family,
                                validate_gluing, verify_instance)
from curvegluing.hilbert import (hilbert_numerator, local_hilbert_function,
                                 poly_mul)
from curvegluing.polyalg import (m_divides, negdegrevlex, parse_polynomial,
                                 least_degree_form)
from curvegluing.basis import standard_basis
from curvegluing.semigroup import minimal_generators
from curvegluing.tangentcone import tangent_cone
from curvegluing.toric import (as_polynomial, curve, defining_ideal,
                               ideals_equal)

from family_samples import random_nice_gluing


def _report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_glued_example_end_to_end():
    """Example gluing of C(5,12) and C(7,8): ideal, basis, verdict, function."""
    t0 = time.monotonic()
    spec = validate_gluing([5, 12], [7, 8], 17, 21)
    C = glued_curve(spec)
    names = C.names

    computed = [as_polynomial(g) for g in defining_ideal(C)]
    published = [parse_polynomial(t, names)
                 for t in ("x1^12 - x2^5", "y1^8 - y2^7", "x1*x2 - y1^3")]
    ideal_ok = ideals_equal(computed, published, C.nvars)

    order = negdegrevlex(4, priority=(1, 3, 2, 0))  # x2 > y2 > y1 > x1
    basis = standard_basis(published, order)
    lm_ok = set(basis.leads) == {
        (1, 1, 0, 0), (0, 5, 0, 0), (0, 0, 15, 0), (0, 0, 0, 7),
        (0, 4, 3, 0), (0, 3, 6, 0), (0, 2, 9, 0), (0, 1, 12, 0)}

    # each published binomial x^a - x^b as its exponent pair (a, b)
    rep = tangent_cone(C, priority=(1, 3, 2, 0),
                       ideal_gens=[tuple(g.terms) for g in published])
    cm_ok = (not rep.is_cohen_macaulay
             and least_degree_form(as_polynomial(rep.witness))
             == parse_polynomial("x1*x2", names))

    data = local_hilbert_function(C, prefix_len=20, report=rep)
    oracle = C.semigroup.order_filtration_hilbert(20)
    hf_ok = data.nondecreasing and list(data.hf_prefix) == oracle

    elapsed = time.monotonic() - t0
    ok = ideal_ok and lm_ok and cm_ok and hf_ok and elapsed < 10.0
    _report(1, ok, f"glued C(105,252,119,136): ideal={ideal_ok} "
                   f"basis_lms={lm_ok} non_cm_witness={cm_ok} "
                   f"hf_oracle={hf_ok} in {elapsed:.2f}s (< 10 s)")


def test_criterion_2_nice_family_with_cm_cones():
    """C(16,24,16r+12,20r+15) for r = 1..10: nice, CM, Gorenstein, CI."""
    failures = []
    h_r1 = None
    mult_r1 = None
    for r in range(1, 11):
        spec = validate_gluing([2, 3], [4, 5], 4 * r + 3, 8)
        report = verify_instance(spec, cross_check_ideal=True)
        checks = (spec.nice, report.theorem1_applicable,
                  report.theorem1_confirmed, report.glued_cm,
                  report.gorenstein, report.complete_intersection,
                  report.remark_smallest_ok, report.ideal_cross_check)
        if not all(checks):
            failures.append((r, checks))
        if r == 1:
            h_r1 = list(report.glued_hilbert.reduced_numerator)
            mult_r1 = report.glued_hilbert.multiplicity
    product = poly_mul(poly_mul([1, 1], [1, 1]), [1, 1, 1, 1])
    series_ok = h_r1 == product and mult_r1 == 16
    ok = not failures and series_ok
    _report(2, ok, f"r=1..10 all nice+CM+Gorenstein+CI "
                   f"(violations: {failures or 'none'}); "
                   f"r=1 numerator {h_r1} = (1+t)^2(1+t+t^2+t^3), "
                   f"multiplicity {mult_r1}")


def test_criterion_3_non_cm_family_stays_nondecreasing():
    """C(6q,7q,15q,6q+7) for q = 2..30, 7 excluded: non-CM, nondecreasing."""
    t0 = time.monotonic()
    comp = curve([6, 7, 15])
    comp_rep = tangent_cone(comp, priority=(1, 2, 0))  # x2 > x3 > x1
    lm_ok = {lead for lead, _ in comp_rep.basis} == {
        (0, 0, 2), (1, 0, 1), (0, 3, 1), (0, 6, 0)}
    comp_cm_ok = not comp_rep.is_cohen_macaulay
    comp_hf = local_hilbert_function(comp, prefix_len=6, report=comp_rep)
    comp_hf_ok = list(comp_hf.hf_prefix) == [1, 3, 4, 5, 5, 6, 6]

    template = FamilyTemplate.from_config({
        "s1": [6, 7, 15], "s2": [1], "parameter": "q",
        "p": "6*q + 7", "q": "q", "range": [2, 30]})
    records = scan_family(template, cross_check_ideal=True)
    verified = [r for r in records if not r["skipped"]]
    skipped = sorted(r["q"] for r in records if r["skipped"])
    family_ok = (
        len(verified) == 25
        and skipped == [7, 14, 21, 28]
        and all(not r["glued_cm"] for r in verified)
        and all(r["theorem2_applicable"] and r["theorem2_confirmed"]
                for r in verified)
        and all(r["glued_hf_nondecreasing"] for r in verified))
    elapsed = time.monotonic() - t0
    ok = lm_ok and comp_cm_ok and comp_hf_ok and family_ok and elapsed < 60.0
    _report(3, ok, f"component basis={lm_ok} non_cm={comp_cm_ok} "
                   f"hf={comp_hf_ok}; family 25/25 non-CM nondecreasing="
                   f"{family_ok} in {elapsed:.1f}s (< 60 s)")


def test_criterion_4_oracle_cross_validation_sweep():
    """200 random curves: algebraic Hilbert function == semigroup oracle."""
    rng = random.Random(2024)
    mismatches = 0
    count = 0
    while count < 200:
        size = rng.randint(2, 4)
        gens = sorted(rng.sample(range(2, 41), size))
        g = 0
        for n in gens:
            g = gcd(g, n)
        if g != 1:
            continue
        S = minimal_generators(gens)
        count += 1
        C = curve(list(S.generators))
        data = local_hilbert_function(C, prefix_len=20)
        oracle = S.order_filtration_hilbert(20)
        if list(data.hf_prefix) != oracle:
            mismatches += 1
    _report(4, mismatches == 0,
            f"200 random curves (k <= 4, generators <= 40): "
            f"{200 - mismatches}/200 exact matches through n = 20")


def test_criterion_5_cm_preservation_suite():
    """100 nice gluings of plane curves: every glued cone Cohen-Macaulay."""
    rng = random.Random(2025)
    cm = 0
    remark = 0
    for _ in range(100):
        spec = random_nice_gluing(rng, dim1=2, dim2=2)
        report = verify_instance(spec, cross_check_ideal=False)
        assert report.theorem1_applicable
        cm += bool(report.theorem1_confirmed)
        remark += bool(report.remark_smallest_ok)
    _report(5, cm == 100 and remark == 100,
            f"{cm}/100 glued cones CM, {remark}/100 satisfy the "
            f"smallest-generator rule")


def test_criterion_6_monotonicity_suite():
    """100 nice gluings with small first component: glued function monotone."""
    rng = random.Random(2026)
    monotone = 0
    decomposition = 0
    factorization = 0
    for i in range(100):
        spec = random_nice_gluing(rng, dim1=2 + (i % 2), dim2=2)
        report = verify_instance(spec, cross_check_ideal=False)
        assert report.theorem2_applicable
        monotone += bool(report.theorem2_confirmed)
        decomposition += bool(report.leading_ideal_decomposition_ok)
        factorization += bool(report.factorization_ok)
    _report(6, monotone == decomposition == factorization == 100,
            f"{monotone}/100 nondecreasing, {decomposition}/100 leading-ideal "
            f"decompositions, {factorization}/100 exact h1*h2*h3 factorizations")


def test_criterion_7_numerator_oracle():
    """100 random monomial ideals: series matches brute-force counting."""
    rng = random.Random(2027)
    matches = 0
    done = 0
    while done < 100:
        nvars = rng.randint(1, 4)
        lms = {tuple(rng.randint(0, 6) for _ in range(nvars))
               for _ in range(rng.randint(1, 6))}
        lms = [m for m in lms if 0 < sum(m) <= 6]
        if not lms:
            continue
        done += 1
        num = hilbert_numerator(lms, nvars)
        series = (list(num) + [0] * 13)[:13]
        for _ in range(nvars):
            acc = 0
            series = [acc := acc + c for c in series]
        brute = [_standard_count(lms, nvars, d) for d in range(13)]
        matches += series == brute
    _report(7, matches == 100,
            f"{matches}/100 numerators match brute-force standard-monomial "
            f"counts through degree 12")


def _standard_count(lms, nvars, d):
    n = 0
    for combo in combinations_with_replacement(range(nvars), d):
        mono = [0] * nvars
        for v in combo:
            mono[v] += 1
        if not any(m_divides(m, tuple(mono)) for m in lms):
            n += 1
    return n
