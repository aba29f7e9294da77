"""Command-line surface.

Subcommands mirror the library: semigroup, ideal, tangent-cone, hilbert,
glue, verify, scan.  ``--json`` switches to a stable machine format with a
top-level schema tag; exit codes are 0 (success), 1 (domain error, clause
name printed), 2 (usage).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import gluing as gl
from . import semigroup as sg
from .basis import buchberger, standard_basis
from .errors import (DomainError, MalformedConfig, SelfCheckFailed,
                     TheoremViolation)
from .hilbert import local_hilbert_function
from .polyalg import (degrevlex, infer_variable_names, is_variable_name,
                      negdegrevlex, parse_polynomial, polynomial_to_str)
from .tangentcone import tangent_cone
from .toric import MonomialCurve, defining_ideal
from .toric import curve as make_curve

SCHEMA = 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except argparse.ArgumentTypeError as exc:  # a bad path inside a config
        parser.error(str(exc))
    except (DomainError, SelfCheckFailed, TheoremViolation) as exc:
        code = getattr(exc, "code", type(exc).__name__)
        print(f"error [{code}]: {exc}", file=sys.stderr)
        if getattr(exc, "bundle", None):
            print(f"reproduce: {json.dumps(exc.bundle, sort_keys=True)}",
                  file=sys.stderr)
        return 1
    lines = payload.pop("_lines", None)
    if args.json:
        out = json.dumps({"schema": SCHEMA, "command": args.command, **payload},
                         indent=2, sort_keys=True)
    elif lines is not None:
        out = "\n".join(lines)
    else:
        out = "\n".join(f"{k}: {v}" for k, v in payload.items())
    print(out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    ``parse_args`` and ``error`` leave a parser unchanged, so one process can
    run ``main`` many times on the same parser.
    """
    parser = argparse.ArgumentParser(
        prog="curvegluing",
        description="numerical semigroup gluings, tangent cones, and "
                    "Hilbert functions of monomial curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", help="minimal generators and invariants")
    p.add_argument("generators", nargs="+", type=_parse_gens,
                   help="generators (space or comma separated)")
    _common_flags(p)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("ideal", help="defining ideal of a monomial curve, "
                                     "or a basis of raw polynomials")
    p.add_argument("generators", nargs="*", type=_parse_gens,
                   help="curve generators")
    p.add_argument("--raw", help="semicolon-separated polynomials instead of a curve")
    p.add_argument("--vars", help="comma-separated variable names for --raw")
    p.add_argument("--local", action="store_true",
                   help="with --raw: standard basis under a local order")
    p.add_argument("--order", help="variable priority, highest first (comma separated)")
    _common_flags(p)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("tangent-cone", help="Cohen-Macaulay decision for the tangent cone")
    p.add_argument("generators", nargs="+", type=_parse_gens)
    p.add_argument("--order", help="variable priority override, highest first")
    _common_flags(p)
    p.set_defaults(func=cmd_tangent_cone)

    p = sub.add_parser("hilbert", help="Hilbert function of the curve's local ring")
    p.add_argument("generators", nargs="+", type=_parse_gens)
    p.add_argument("--limit", type=_int_at_least(0), default=None,
                   help="last degree of the Hilbert function prefix")
    _common_flags(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("glue", help="validate a gluing and show its data")
    _gluing_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("verify", help="verify the gluing theorems on one instance")
    _gluing_flags(p)
    p.add_argument("--limit", type=_int_at_least(0), default=None)
    p.add_argument("--no-cross-check", action="store_true",
                   help="skip the Hilbert-series certificate of the glued ideal")
    _common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="verify a one-parameter family from a config file")
    p.add_argument("--config", required=True, type=_openable_path)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--cross-check", action="store_true",
                   help="certify the glued ideal of every instance by its "
                        "Hilbert series")
    _common_flags(p)
    p.set_defaults(func=cmd_scan)

    return parser


def _common_flags(p):
    p.add_argument("--json", action="store_true", help="stable machine-readable output")


def _gluing_flags(p):
    p.add_argument("--s1", required=True, type=_parse_gens,
                   help="first semigroup generators, comma separated")
    p.add_argument("--s2", required=True, type=_parse_gens,
                   help="second semigroup generators")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--q", required=True, type=int)


def _parse_gens(token: str) -> list[int]:
    """One generators argument: integers separated by commas or spaces.

    Used as an argparse ``type``, so a non-integer ends in ``parser.error``
    (exit 2) before any command runs.
    """
    try:
        return [int(t) for t in token.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"generators must be integers, got {token!r}") from None


def _int_at_least(low: int):
    """An argparse ``type`` for counts such as ``--jobs``: at least ``low``."""
    def parse(token: str) -> int:
        try:
            n = int(token)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {token!r}")
        return n
    return parse


def _openable_path(path: str, mode: str = "r") -> str:
    """An argparse ``type``: a path that opens in ``mode``, else exit 2.

    Mode "a" probes a path for writing without truncating it.
    """
    try:
        with open(path, mode):
            pass
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise argparse.ArgumentTypeError(
            f"cannot {verb} {path!r}: {exc.strerror}") from None
    return path


def _flat(token_lists) -> list[int]:
    return [n for gens in token_lists for n in gens]


def _parse_priority(text: str, names: tuple[str, ...]) -> tuple[int, ...]:
    wanted = [t.strip() for t in text.replace(">", ",").split(",") if t.strip()]
    if sorted(wanted) != sorted(names):
        raise DomainError(f"--order must permute {list(names)}, got {wanted}")
    return tuple(names.index(w) for w in wanted)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_semigroup(args) -> dict:
    S = sg.minimal_generators(_flat(args.generators))
    frob, apery = S.frobenius_and_apery()
    return {
        "generators": list(S.generators),
        "frobenius": frob,
        "apery": list(apery),
        "multiplicity": S.multiplicity,
        "embedding_dimension": S.embedding_dimension,
        "symmetric": S.is_symmetric(),
    }


def cmd_ideal(args) -> dict:
    if args.raw:
        return _raw_basis(args)
    if not args.generators:
        raise DomainError("pass curve generators or --raw")
    C = make_curve(_flat(args.generators))
    gens = defining_ideal(C)
    return {
        "curve": list(C.generators),
        "variables": list(C.names),
        "generators": [polynomial_to_str(g, C.names) for g in gens],
        "minimal_generator_count": len(gens),
        "complete_intersection": len(gens) == C.nvars - 1,
    }


def _raw_basis(args) -> dict:
    texts = [t.strip() for t in args.raw.split(";") if t.strip()]
    names = tuple(args.vars.split(",")) if args.vars else \
        tuple(infer_variable_names(args.raw))
    if len(set(names)) != len(names) or \
            not all(map(is_variable_name, names)):
        raise DomainError(
            f"--vars must be distinct variable names, got {list(names)}")
    polys = [parse_polynomial(t, names) for t in texts]
    priority = _parse_priority(args.order, names) if args.order else None
    if args.local:
        order = negdegrevlex(len(names), priority)
        result = standard_basis(polys, order)
    else:
        order = degrevlex(len(names), priority)
        result = buchberger(polys, order)
    return {
        "variables": list(names),
        "order": "negdegrevlex" if args.local else "degrevlex",
        "basis": [polynomial_to_str(g, names, order) for g in result.elements],
        "leading_monomials": [_mono_str(m, names)
                              for m in result.leading_monomials()],
    }


def cmd_tangent_cone(args) -> dict:
    C = make_curve(_flat(args.generators))
    priority = _parse_priority(args.order, C.names) if args.order else None
    rep = tangent_cone(C, priority=priority)
    return _tangent_cone_payload(C, rep)


def _tangent_cone_payload(C: MonomialCurve, rep) -> dict:
    names = C.names
    return {
        "curve": list(C.generators),
        "variables": list(names),
        "priority": [names[v] for v in rep.order.priority],
        "standard_basis": [polynomial_to_str(g, names, rep.order)
                           for g in rep.basis.elements],
        "leading_monomials": [_mono_str(m, names) for m in rep.lm_set],
        "cone_generators": [polynomial_to_str(g, names, rep.order)
                            for g in rep.cone_generators],
        "cohen_macaulay": rep.is_cohen_macaulay,
        "witness": (polynomial_to_str(rep.witness, names, rep.order)
                    if rep.witness is not None else None),
    }


def _mono_str(m, names) -> str:
    from .polyalg import Polynomial
    return polynomial_to_str(Polynomial.term(1, m), names)


def cmd_hilbert(args) -> dict:
    C = make_curve(_flat(args.generators))
    data = local_hilbert_function(C, args.limit)
    h = list(data.reduced_numerator)
    closed = " + ".join(_coeff_term(c, i) for i, c in enumerate(h) if c) or "0"
    return {
        "curve": list(C.generators),
        "reduced_numerator": h,
        "closed_form": f"({closed}) / (1 - t)",
        "hilbert_function": list(data.hf_prefix),
        "multiplicity": data.multiplicity,
        "nondecreasing": data.nondecreasing,
        "first_violation": data.first_violation,
    }


def _coeff_term(c, i) -> str:
    if i == 0:
        return str(c)
    t = "t" if i == 1 else f"t^{i}"
    return t if c == 1 else f"{c}*{t}"


def cmd_glue(args) -> dict:
    from .polyalg import monic

    spec = gl.validate_gluing(args.s1, args.s2, args.p, args.q)
    C = gl.glued_curve(spec)
    display = degrevlex(C.nvars)
    gens = [monic(g, display) for g in gl.glued_ideal(spec)]
    return {
        "s1": list(spec.s1.generators),
        "s2": list(spec.s2.generators),
        "p": spec.p,
        "q": spec.q,
        "nice": spec.nice,
        "b_witness": list(spec.b_witness.coefficients),
        "a_witness": list(spec.a_witness.coefficients),
        "glued_generators": list(spec.glued_generators),
        "variables": list(C.names),
        "glued_ideal": [polynomial_to_str(g, C.names) for g in gens],
    }


def cmd_verify(args) -> dict:
    spec = gl.validate_gluing(args.s1, args.s2, args.p, args.q)
    report = gl.verify_instance(spec,
                                cross_check_ideal=not args.no_cross_check,
                                hf_prefix_len=args.limit)
    return gl.report_to_record(report)


def cmd_scan(args) -> dict:
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise MalformedConfig(f"{args.config}: {exc}") from None
    template = gl.FamilyTemplate.from_config(cfg)
    if template.output:
        _openable_path(template.output, "a")
    records = gl.scan_family(template, jobs=args.jobs,
                             cross_check_ideal=args.cross_check)
    if template.output:
        with open(template.output, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    verified = [r for r in records if not r.get("skipped")]
    skipped = [r for r in records if r.get("skipped")]
    summary = {
        "config": args.config,
        "parameter": template.parameter,
        "instances": len(records),
        "verified": len(verified),
        "skipped": len(skipped),
        "all_theorems_hold": all(
            r["theorem1_confirmed"] is not False
            and r["theorem2_confirmed"] is not False for r in verified),
        "rossi_candidates": [r[template.parameter] for r in verified
                             if r["rossi_candidate"]],
        "records": records,
    }
    if template.output:
        summary["output"] = template.output
    summary["_lines"] = _scan_lines(template, summary)
    return summary


def _scan_lines(template, summary) -> list[str]:
    sym = template.parameter
    lines = [f"{sym} in {template.start}..{template.stop}: "
             f"{summary['verified']} verified, {summary['skipped']} skipped"]
    for r in summary["records"]:
        if r.get("skipped"):
            lines.append(f"  {sym}={r[sym]}: skipped [{r['reason']}]")
            continue
        flags = []
        if r["nice"]:
            flags.append("nice")
        if r["gorenstein"]:
            flags.append("Gorenstein")
        if r["complete_intersection"]:
            flags.append("CI")
        if r["rossi_candidate"]:
            flags.append("ROSSI-CANDIDATE")
        lines.append(
            f"  {sym}={r[sym]}: glued {tuple(r['glued_generators'])} "
            f"cm={r['glued_cm']} hf_nondecreasing={r['glued_hf_nondecreasing']} "
            f"mult={r['multiplicity']} [{', '.join(flags)}]")
    lines.append(f"theorems hold on all verified instances: "
                 f"{summary['all_theorems_hold']}")
    if summary.get("output"):
        lines.append(f"records written to {summary['output']}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
