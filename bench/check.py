"""Output checks for benchmark passes, run outside the timed region.

Every CLI output must match the reference recorded from the seed commit
byte for byte (``reference.json``, written by ``record_reference.py``), and
every record must also pass checks that share no code with the Groebner
machinery:

* the glued Hilbert function prefix equals
  ``NumericalSemigroup.order_filtration_hilbert`` of the glued semigroup;
* the glued generators are ``q*s1 + p*s2`` as computed here;
* no applicable theorem is refuted, and the workload's expected verdicts
  hold (``ideal_cross_check`` under ``--cross-check``; for nice gluings the
  theorem 2 conclusion, the leading-ideal decomposition and the factorization);
* a scan skips exactly the members with ``gcd(p, q) != 1``, for that reason.

Each function returns the labels of the instances that failed.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd

from curvegluing.semigroup import NumericalSemigroup


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_digest(record: dict) -> str:
    return digest(json.dumps(record, sort_keys=True))


def _hf_oracle_ok(record: dict) -> bool:
    prefix = record["glued_hf_prefix"]
    S = NumericalSemigroup(tuple(sorted(record["glued_generators"])))
    return S.order_filtration_hilbert(len(prefix) - 1) == prefix


def _glued_ok(record: dict, oracle: bool = True) -> bool:
    p, q = record["p"], record["q"]
    expect = [q * m for m in record["s1"]] + [p * n for n in record["s2"]]
    return (record["glued_generators"] == expect
            and record["theorem1_confirmed"] is not False
            and record["theorem2_confirmed"] is not False
            and (not oracle or _hf_oracle_ok(record)))


def check_scan(code, text: str, ref: dict | None, members: int,
               cross_check: bool, oracle: set[int] | None = None) -> list[str]:
    """Failed member labels of one ``scan --json`` output.

    ``ref`` holds the output digest and one digest per record; ``None``
    skips the byte comparison and leaves only the semantic checks.  The
    Hilbert-function oracle runs on the records indexed by ``oracle``, or
    on all of them when it is ``None``: it costs about as much as computing
    the record, so a run samples it.
    """
    try:
        payload = json.loads(text) if code == 0 else None
    except json.JSONDecodeError:
        payload = None
    if payload is None or len(payload.get("records", ())) != members:
        return [f"call:{i}" for i in range(members)]
    records = payload["records"]
    param = payload["parameter"]
    failed = []
    for i, rec in enumerate(records):
        if ref is not None and record_digest(rec) != ref["records"][i]:
            failed.append(f"{param}={rec[param]}")
            continue
        if gcd(rec["p"], rec["q"]) != 1:
            ok = rec.get("skipped") is True and rec["reason"] == "GcdViolation"
        else:
            ok = (rec.get("skipped") is False
                  and _glued_ok(rec, oracle is None or i in oracle)
                  and rec["ideal_cross_check"] is (True if cross_check else None))
        if not ok:
            failed.append(f"{param}={rec[param]}")
    verified = sum(1 for r in records if not r.get("skipped"))
    envelope_ok = (payload["all_theorems_hold"] is True
                   and payload["instances"] == members
                   and payload["verified"] == verified
                   and (ref is None or digest(text) == ref["output"]))
    if not envelope_ok and not failed:
        failed = [f"{param}={r[param]}" for r in records]
    return failed


def check_nice(code, text: str, instance, ref_digest: str | None,
               oracle: bool = True) -> bool:
    """Does one ``verify --json`` output of a nice gluing pass every check?"""
    s1, s2, p, q = instance
    if code != 0 or (ref_digest is not None and digest(text) != ref_digest):
        return False
    try:
        rec = json.loads(text)
    except json.JSONDecodeError:
        return False
    return (rec["s1"] == list(s1) and rec["s2"] == list(s2)
            and rec["p"] == p and rec["q"] == q and rec["nice"] is True
            and rec["ideal_cross_check"] is None
            and rec["theorem2_applicable"] is True
            and rec["theorem2_confirmed"] is True
            and rec["leading_ideal_decomposition_ok"] is True
            and rec["factorization_ok"] is True
            and _glued_ok(rec, oracle))


def corrupt(text: str) -> tuple[str, int] | None:
    """The output with the first verified record's Hilbert prefix altered.

    Returns the altered text and the index of the altered record, or
    ``None`` when the output holds no verified record to alter.
    """
    try:
        payload = json.loads(text)
        records = payload.get("records", [payload])
        i = next(i for i, r in enumerate(records) if not r.get("skipped"))
        records[i]["glued_hf_prefix"][-1] += 1
    except (ValueError, AttributeError, KeyError, IndexError, StopIteration):
        return None
    return json.dumps(payload, indent=2, sort_keys=True) + "\n", i
