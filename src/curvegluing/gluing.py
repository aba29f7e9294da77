"""Gluings of numerical semigroups and mechanical theorem verification.

A gluing scales two semigroups by coprime members of each other and joins
the generator lists; a nice gluing additionally writes q as a multiple of
the smallest generator of the second semigroup, with multiplicity bounded by
the coefficient sum of a representation of p.  Instances are verified by
computing all tangent cones and Hilbert functions on both the component and
the glued side and checking every conclusion the hypotheses promise.

A family fixes both components and varies p and q, so each component's
analysis (presentation, tangent cone, Hilbert data) is cached per process,
as ``semigroup._apery_table`` caches the Apéry table.  The key is the
component's generator tuple, its block (x or y) and the Hilbert-function
prefix length.  One ``verify`` CLI call gains nothing; scans and library
loops over many gluings do.  Of the component slots in one pass of each
benchmark workload, 96 of 100 repeat an earlier one in ``scan_xcheck``,
432 of 436 in ``scan_plain`` and 222 of 400 in ``nice_sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import semigroup as sg
from .errors import (EmptyRange, GcdViolation, GeneratorCollision, GluingError,
                     MalformedConfig, MalformedPolynomial, NotInSemigroup,
                     PIsMinimalGenerator, QIsMinimalGenerator, SelfCheckFailed,
                     TheoremViolation)
from .hilbert import (HilbertData, certifies_defining_ideal,
                      local_hilbert_function, product_factorization_check)
from .polyalg import (Polynomial, is_variable_name, negdegrevlex,
                      parse_polynomial)
from .tangentcone import TangentConeReport, tangent_cone
from .toric import (MonomialCurve, check_kernel_element, curve_standard_basis,
                    defining_ideal)


@dataclass(frozen=True)
class GluingSpec:
    """A validated gluing (S1, S2, p, q) with witness representations."""

    s1: sg.NumericalSemigroup
    s2: sg.NumericalSemigroup
    p: int
    q: int
    b_witness: sg.Representation  # p over the generators of s1
    a_witness: sg.Representation  # q over the generators of s2
    nice: bool

    @property
    def glued_generators(self) -> tuple[int, ...]:
        return tuple(self.q * m for m in self.s1.generators) + \
            tuple(self.p * n for n in self.s2.generators)


def validate_gluing(s1, s2, p: int, q: int) -> GluingSpec:
    """Check every gluing condition and fix deterministic witnesses.

    Witnesses maximize the coefficient sum (ties broken lexicographically);
    when the gluing is nice the q-witness is concentrated on the smallest
    generator of s2 so the glued binomial leads with a pure power.
    """
    s1 = _as_semigroup(s1)
    s2 = _as_semigroup(s2)
    if p <= 0 or q <= 0:
        raise NotInSemigroup("p and q must be positive")
    if gcd(p, q) != 1:
        raise GcdViolation(f"gcd({p}, {q}) = {gcd(p, q)}")
    # collision is checked before membership: once p, q pass the remaining
    # clauses a collision is impossible (gcd(p,q)=1 would force p | m_i and
    # p in S1 then makes m_i a sum of members, contradicting minimality)
    scaled1 = {q * m for m in s1.generators}
    scaled2 = {p * n for n in s2.generators}
    collision = scaled1 & scaled2
    if collision:
        raise GeneratorCollision(
            f"scaled generator sets share {sorted(collision)}")
    if p in s1.generators:
        raise PIsMinimalGenerator(f"p = {p} is a minimal generator of S1")
    if q in s2.generators:
        raise QIsMinimalGenerator(f"q = {q} is a minimal generator of S2")
    reps_p = s1.all_representations(p)
    if not reps_p:
        raise NotInSemigroup(f"p = {p} is not in S1 {list(s1.generators)}")
    reps_q = s2.all_representations(q)
    if not reps_q:
        raise NotInSemigroup(f"q = {q} is not in S2 {list(s2.generators)}")

    b = _max_size_witness(reps_p)
    n1 = s2.generators[0]
    nice = q % n1 == 0 and q // n1 <= b.size
    if nice:
        a_coeffs = [0] * len(s2.generators)
        a_coeffs[0] = q // n1
        a = sg.Representation(tuple(a_coeffs), q)
    else:
        a = _max_size_witness(reps_q)
    return GluingSpec(s1, s2, p, q, b, a, nice)


def _as_semigroup(s) -> sg.NumericalSemigroup:
    if isinstance(s, sg.NumericalSemigroup):
        return s
    return sg.minimal_generators(list(s))


def _max_size_witness(reps: list[sg.Representation]) -> sg.Representation:
    best_size = max(r.size for r in reps)
    return min((r for r in reps if r.size == best_size),
               key=lambda r: r.coefficients)


# --------------------------------------------------------------------------
# glued objects
# --------------------------------------------------------------------------

def glued_curve(spec: GluingSpec) -> MonomialCurve:
    """Monomial curve on the scaled generators, x-block then y-block."""
    l = len(spec.s1.generators)
    k = len(spec.s2.generators)
    names = tuple(f"x{i + 1}" for i in range(l)) + \
        tuple(f"y{j + 1}" for j in range(k))
    gens = spec.glued_generators
    try:
        return MonomialCurve(gens, names)
    except ValueError:
        raise SelfCheckFailed(
            f"glued generators {list(gens)} are not a minimal generating set"
        ) from None


def glued_ideal(spec: GluingSpec,
                g1: tuple[Polynomial, ...] | None = None,
                g2: tuple[Polynomial, ...] | None = None) -> list[Polynomial]:
    """Generators of the glued defining ideal: G1, G2, and the bridge binomial.

    ``g1``/``g2`` default to the defining ideals of the component curves,
    read from :func:`_component_analysis`; pass explicit generators to reuse
    known ones.  Component polynomials are re-indexed into the joint ring
    (x-block first).
    """
    l = len(spec.s1.generators)
    k = len(spec.s2.generators)
    if g1 is None:
        g1 = _component_analysis(spec.s1.generators, 1, None)[0]
    if g2 is None:
        g2 = _component_analysis(spec.s2.generators, 2, None)[0]
    out = [_embed(g, before=0, after=k) for g in g1]
    out += [_embed(g, before=l, after=0) for g in g2]
    bridge_x = tuple(spec.b_witness.coefficients) + (0,) * k
    bridge_y = (0,) * l + tuple(spec.a_witness.coefficients)
    out.append(Polynomial.term(1, bridge_x) - Polynomial.term(1, bridge_y))
    return out


def component_curve(spec: GluingSpec, which: int) -> MonomialCurve:
    gens = spec.s1.generators if which == 1 else spec.s2.generators
    return _block_curve(gens, which)


def _block_curve(gens: tuple[int, ...], which: int) -> MonomialCurve:
    letter = "x" if which == 1 else "y"
    return MonomialCurve(gens, tuple(f"{letter}{i + 1}"
                                     for i in range(len(gens))))


@lru_cache(maxsize=1024)
def _component_analysis(gens: tuple[int, ...], which: int,
                        hf_prefix_len: int | None
                        ) -> tuple[tuple[Polynomial, ...], TangentConeReport,
                                   HilbertData]:
    """Presentation, tangent cone and Hilbert data of a component curve.

    ``which`` names the block (1: x1.., 2: y1..).  The cone is taken in the
    index order (v2 > ... > vn > v1), and the data has passed
    :func:`_self_check_cm_multiplicity`.  Computed once per process for each
    key; an exception is not cached, so a failing component raises on every
    call.
    """
    C = _block_curve(gens, which)
    ideal = tuple(defining_ideal(C))
    rep = tangent_cone(C, priority=_paper_priority(C.nvars), ideal_gens=ideal)
    hd = local_hilbert_function(C, hf_prefix_len, report=rep)
    _self_check_cm_multiplicity(rep, hd)
    return ideal, rep, hd


def _embed(g: Polynomial, before: int, after: int) -> Polynomial:
    pad_l, pad_r = (0,) * before, (0,) * after
    return Polynomial({pad_l + m + pad_r: c for m, c in g.terms.items()},
                      _clean=False)


def _paper_priority(nvars: int) -> tuple[int, ...]:
    """v2 > v3 > ... > vn > v1: index order with the first variable lowest."""
    return tuple(range(1, nvars)) + (0,)


def _theorem_priority(l: int, k: int) -> tuple[int, ...]:
    """y2 > ... > yk > y1 > x2 > ... > xl > x1 in the joint ring."""
    return tuple(range(l + 1, l + k)) + (l,) + tuple(range(1, l)) + (0,)


# --------------------------------------------------------------------------
# instance verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    spec: GluingSpec
    c1_cm: bool
    c2_cm: bool
    glued_cm: bool
    glued_cm_witness: Polynomial | None
    c1_hf_nondecreasing: bool
    c2_hf_nondecreasing: bool
    glued_hf_nondecreasing: bool
    glued_hilbert: HilbertData
    c1_hilbert: HilbertData
    c2_hilbert: HilbertData
    theorem1_applicable: bool
    theorem1_confirmed: bool | None
    theorem2_applicable: bool
    theorem2_confirmed: bool | None
    leading_ideal_decomposition_ok: bool | None
    factorization_ok: bool | None
    remark_smallest_ok: bool | None
    gorenstein: bool
    complete_intersection: bool
    ideal_cross_check: bool | None
    rossi_candidate: bool
    glued_report: TangentConeReport


def verify_instance(spec: GluingSpec, cross_check_ideal: bool = True,
                    hf_prefix_len: int | None = None) -> VerificationReport:
    """Analyze one gluing instance and evaluate both theorems on it.

    Component bases use the index order (v2 > ... > vn > v1); the glued cone
    uses the canonical by-value order, and, for nice gluings, a second basis
    in the joint index order feeds the leading-ideal decomposition and the
    Hilbert-series factorization checks.

    With ``cross_check_ideal`` the glued generator set is proved to be the
    defining ideal of the glued curve without another Groebner computation:
    every generator is checked to be a graded kernel element, and the
    weighted Hilbert series of the glued cone's leading ideal must equal
    the semigroup ring's (:func:`hilbert.certifies_defining_ideal`).

    ``complete_intersection`` is the presentation size: minimal G1 and G2 and
    the bridge form a minimal presentation of the gluing (Rosales 1997).
    """
    g1, rep1, hd1 = _component_analysis(spec.s1.generators, 1, hf_prefix_len)
    g2, rep2, hd2 = _component_analysis(spec.s2.generators, 2, hf_prefix_len)

    glued = glued_curve(spec)
    rosales = glued_ideal(spec, g1, g2)
    grep = tangent_cone(glued, ideal_gens=rosales)
    cross = None
    if cross_check_ideal:
        for g in rosales:
            check_kernel_element(g, glued)
        cross = certifies_defining_ideal(grep.lm_set, glued)
        if not cross:
            raise SelfCheckFailed(
                "glued generator set fails the Hilbert-series certificate "
                "of the defining ideal")
    ghd = local_hilbert_function(glued, hf_prefix_len, report=grep)
    _self_check_cm_multiplicity(grep, ghd)

    thm1_applicable = spec.nice and rep1.is_cohen_macaulay and rep2.is_cohen_macaulay
    thm1_confirmed = grep.is_cohen_macaulay if thm1_applicable else None
    thm2_applicable = spec.nice and hd1.nondecreasing and rep2.is_cohen_macaulay
    thm2_confirmed = ghd.nondecreasing if thm2_applicable else None

    decomposition_ok = None
    factorization_ok = None
    remark_ok = None
    if spec.nice:
        remark_ok = _remark_smallest(spec)
        if thm2_applicable or thm1_applicable:
            decomposition_ok = _leading_decomposition_ok(spec, rep1, rep2,
                                                         rosales, glued)
        if thm2_applicable:
            factorization_ok = product_factorization_check(
                ghd, list(hd1.reduced_numerator), list(hd2.reduced_numerator),
                spec.a_witness.coefficients[0])

    gorenstein = glued.semigroup.is_symmetric()
    ci = len(rosales) == glued.nvars - 1

    return VerificationReport(
        spec=spec,
        c1_cm=rep1.is_cohen_macaulay,
        c2_cm=rep2.is_cohen_macaulay,
        glued_cm=grep.is_cohen_macaulay,
        glued_cm_witness=grep.witness,
        c1_hf_nondecreasing=hd1.nondecreasing,
        c2_hf_nondecreasing=hd2.nondecreasing,
        glued_hf_nondecreasing=ghd.nondecreasing,
        glued_hilbert=ghd,
        c1_hilbert=hd1,
        c2_hilbert=hd2,
        theorem1_applicable=thm1_applicable,
        theorem1_confirmed=thm1_confirmed,
        theorem2_applicable=thm2_applicable,
        theorem2_confirmed=thm2_confirmed,
        leading_ideal_decomposition_ok=decomposition_ok,
        factorization_ok=factorization_ok,
        remark_smallest_ok=remark_ok,
        gorenstein=gorenstein,
        complete_intersection=ci,
        ideal_cross_check=cross,
        rossi_candidate=gorenstein and not ghd.nondecreasing,
        glued_report=grep,
    )


def _self_check_cm_multiplicity(rep: TangentConeReport, hd: HilbertData):
    smallest = min(rep.curve.generators)
    if rep.is_cohen_macaulay and hd.multiplicity != smallest:
        raise SelfCheckFailed(
            f"Cohen-Macaulay cone with multiplicity {hd.multiplicity} != "
            f"smallest generator {smallest} on {list(rep.curve.generators)}")
    if rep.is_cohen_macaulay and not hd.nondecreasing:
        raise SelfCheckFailed(
            f"Cohen-Macaulay cone with decreasing Hilbert function on "
            f"{list(rep.curve.generators)}")


def _remark_smallest(spec: GluingSpec) -> bool:
    qm1 = spec.q * spec.s1.generators[0]
    pn1 = spec.p * spec.s2.generators[0]
    return qm1 < pn1 and qm1 == min(spec.glued_generators)


def _leading_decomposition_ok(spec, rep1, rep2, rosales, glued) -> bool:
    """Glued leading ideal must be LM(G1) + LM(G2) + <y1^a1> (joint index order)."""
    l = len(spec.s1.generators)
    k = len(spec.s2.generators)
    order = negdegrevlex(l + k, _theorem_priority(l, k))
    got = set(curve_standard_basis(rosales, order).leads)
    expect = {(*m, *(0,) * k) for m in rep1.lm_set}
    expect |= {(*(0,) * l, *m) for m in rep2.lm_set}
    a1 = spec.a_witness.coefficients[0]
    expect.add((*(0,) * l, a1, *(0,) * (k - 1)))
    return got == expect


# --------------------------------------------------------------------------
# family scans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearExpr:
    """coeff * parameter + const, parsed from text like "6*q + 7"."""

    coeff: int
    const: int
    text: str

    def __call__(self, value: int) -> int:
        return self.coeff * value + self.const


def parse_linear(text: str, parameter: str) -> LinearExpr:
    """Read ``text`` with :func:`polyalg.parse_polynomial` in ``parameter``.

    Raises :class:`MalformedPolynomial` unless the text parses and has
    degree at most 1 with integer coefficients.
    """
    f = parse_polynomial(text, (parameter,))
    if not set(f.terms) <= {(0,), (1,)} or \
            not all(type(c) is int for c in f.terms.values()):
        raise MalformedPolynomial(
            f"{text!r} is not linear in {parameter!r} with integer coefficients")
    return LinearExpr(f.terms.get((1,), 0), f.terms.get((0,), 0), text)


@dataclass(frozen=True)
class FamilyTemplate:
    """Declarative one-parameter family of gluing instances."""

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    parameter: str
    p_expr: LinearExpr
    q_expr: LinearExpr
    start: int
    stop: int
    output: str | None = None

    @classmethod
    def from_config(cls, cfg: dict) -> "FamilyTemplate":
        """Template from a parsed config; a bad one names its clause.

        Raises :class:`MalformedConfig` for a missing key or a value of the
        wrong shape, and :class:`EmptyRange` when the range holds no member.
        """
        if not isinstance(cfg, dict):
            raise MalformedConfig("config must be a JSON object")
        missing = [k for k in ("s1", "s2", "parameter", "p", "q", "range")
                   if k not in cfg]
        if missing:
            raise MalformedConfig(f"missing key(s) {missing}")
        param = cfg["parameter"]
        if not is_variable_name(param):
            raise MalformedConfig(
                f"parameter must be a variable name such as q, got {param!r}")
        s1, s2, bounds = (_int_list(cfg, key) for key in ("s1", "s2", "range"))
        if len(bounds) != 2:
            raise MalformedConfig(f"range must be [start, stop], got {bounds}")
        lo, hi = bounds
        if lo > hi:
            raise EmptyRange(f"range [{lo}, {hi}] holds no {param}")
        output = cfg.get("output")
        if output is not None and not isinstance(output, str):
            raise MalformedConfig(f"output must be a path, got {output!r}")
        p_expr, q_expr = (_linear(cfg, key, param) for key in ("p", "q"))
        return cls(s1=s1, s2=s2, parameter=param, p_expr=p_expr,
                   q_expr=q_expr, start=lo, stop=hi, output=output)


def _int_list(cfg: dict, key: str) -> tuple[int, ...]:
    value = cfg[key]
    if not isinstance(value, (list, tuple)) or \
            not all(isinstance(n, int) and not isinstance(n, bool) for n in value):
        raise MalformedConfig(f"{key} must be a list of integers, got {value!r}")
    return tuple(value)


def _linear(cfg: dict, key: str, parameter: str) -> LinearExpr:
    try:
        return parse_linear(str(cfg[key]), parameter)
    except MalformedPolynomial as exc:
        raise MalformedConfig(f"{key}: {exc}") from None


def scan_instance(template: FamilyTemplate, value: int,
                  cross_check_ideal: bool = False) -> dict:
    """Run one family member; invalid parameters give a skip record.

    A :class:`SelfCheckFailed` leaves with the parameter value, p and q
    added to its bundle.
    """
    record: dict = {template.parameter: value,
                    "p": template.p_expr(value), "q": template.q_expr(value)}
    try:
        spec = validate_gluing(list(template.s1), list(template.s2),
                               template.p_expr(value), template.q_expr(value))
    except GluingError as exc:
        record.update(skipped=True, reason=exc.code, detail=str(exc))
        return record
    try:
        report = verify_instance(spec, cross_check_ideal=cross_check_ideal)
    except SelfCheckFailed as exc:
        exc.bundle = {**record, **exc.bundle}
        raise
    record.update(skipped=False, **report_to_record(report))
    return record


def scan_family(template: FamilyTemplate, jobs: int = 1,
                cross_check_ideal: bool = False) -> list[dict]:
    """Verify every member of the family, in parameter order.

    Raises :class:`TheoremViolation` with a reproduction bundle if any
    instance falsifies an applicable theorem.
    """
    values = list(range(template.start, template.stop + 1))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_scan_worker,
                                    [(template, v, cross_check_ideal)
                                     for v in values]))
    else:
        records = [scan_instance(template, v, cross_check_ideal)
                   for v in values]
    for rec in records:
        if rec.get("skipped"):
            continue
        if rec["theorem1_applicable"] and rec["theorem1_confirmed"] is False:
            raise TheoremViolation(
                f"nice gluing with CM components produced a non-CM cone at "
                f"{template.parameter} = {rec[template.parameter]}", rec)
        if rec["theorem2_applicable"] and rec["theorem2_confirmed"] is False:
            raise TheoremViolation(
                f"nice gluing broke Hilbert-function monotonicity at "
                f"{template.parameter} = {rec[template.parameter]}", rec)
    return records


def _scan_worker(args):
    template, value, cross = args
    return scan_instance(template, value, cross)


def report_to_record(report: VerificationReport) -> dict:
    """Flatten a report into JSON-serializable primitives."""
    from .polyalg import polynomial_to_str

    spec = report.spec
    glued = report.glued_report.curve
    witness = report.glued_cm_witness
    return {
        "s1": list(spec.s1.generators),
        "s2": list(spec.s2.generators),
        "p": spec.p,
        "q": spec.q,
        "b_witness": list(spec.b_witness.coefficients),
        "a_witness": list(spec.a_witness.coefficients),
        "nice": spec.nice,
        "glued_generators": list(spec.glued_generators),
        "c1_cm": report.c1_cm,
        "c2_cm": report.c2_cm,
        "glued_cm": report.glued_cm,
        "glued_cm_witness": (polynomial_to_str(witness, glued.names,
                                               report.glued_report.order)
                             if witness is not None else None),
        "c1_hf_nondecreasing": report.c1_hf_nondecreasing,
        "c2_hf_nondecreasing": report.c2_hf_nondecreasing,
        "glued_hf_nondecreasing": report.glued_hf_nondecreasing,
        "glued_h": list(report.glued_hilbert.reduced_numerator),
        "glued_hf_prefix": list(report.glued_hilbert.hf_prefix),
        "multiplicity": report.glued_hilbert.multiplicity,
        "theorem1_applicable": report.theorem1_applicable,
        "theorem1_confirmed": report.theorem1_confirmed,
        "theorem2_applicable": report.theorem2_applicable,
        "theorem2_confirmed": report.theorem2_confirmed,
        "leading_ideal_decomposition_ok": report.leading_ideal_decomposition_ok,
        "factorization_ok": report.factorization_ok,
        "remark_smallest_ok": report.remark_smallest_ok,
        "gorenstein": report.gorenstein,
        "complete_intersection": report.complete_intersection,
        "ideal_cross_check": report.ideal_cross_check,
        "rossi_candidate": report.rossi_candidate,
    }
