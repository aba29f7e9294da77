"""curvegluing benchmark.

    python3 bench/run.py --workload scan_xcheck --seed 1 --seconds 30 --trace 0

Runs one workload from the repository root of a checkout.  Every pass is a
fresh interpreter (``bench/child.py``) that imports ``curvegluing`` from
``src`` and drives ``cli.main`` with ``--jobs 1``.

``--trace 0`` runs passes until ``--seconds`` have gone by (at least three)
and reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
runs a traced pass, an untraced pass and a second traced pass on the same
inputs and reports the per-layer metrics; the count metrics of the two
traced passes must agree exactly.  Outputs are checked against the
recorded reference after the passes (``check.py``).  The last line of
stdout is one JSON object; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402  (imports curvegluing from this checkout)

SETUP_SAMPLES = 15  # set-up-only interpreters per run, besides one per pass
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# records per output given the Hilbert-function oracle; every recorded
# reference passed it, so a run spot-checks a seeded sample
ORACLE_SAMPLE = 12
# count statistics of a span; they must repeat exactly between traced passes
COUNT_FIELDS = ("calls", "raised", "counts", "sieve_cells")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(calls: list[list[str]], trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    job = json.dumps({"calls": calls, "trace": trace,
                      "setup_only": setup_only})
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")],
                              input=job, capture_output=True, text=True,
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["ready"] - spawned
    return report


class ScanWorkload:
    """Both families of one scan workload in every pass."""

    def __init__(self, name: str, seed: int, reference: dict):
        configs, self.cross_check = wl.SCANS[name]
        self._calls = [wl.scan_argv(c, self.cross_check) for c in configs]
        self.members = [wl.scan_members(c) for c in configs]
        self.refs = reference[name]
        if [r["config"] for r in self.refs] != list(configs):
            raise BenchError(f"reference.json does not match {name}")
        self.oracle = [_sample(seed, i, m) for i, m in enumerate(self.members)]
        self._checked: dict[tuple[int, str], list[str]] = {}

    def calls(self, pass_index: int) -> list[list[str]]:
        return self._calls

    def instances(self) -> int:
        return sum(self.members)

    def check(self, pass_index: int, outputs) -> list[str]:
        failed = []
        for i, (code, text, *_) in enumerate(outputs):
            key = (i, f"{code}\0{text}")
            if key not in self._checked:  # identical bytes, identical verdict
                self._checked[key] = check.check_scan(
                    code, text, self.refs[i], self.members[i],
                    self.cross_check, self.oracle[i])
            failed += self._checked[key]
        return failed

    def control(self, outputs) -> int:
        """Failures found in a copy of the first output with one record altered."""
        code, text, *_ = outputs[0]
        altered = check.corrupt(text)
        if altered is None:
            return 0
        bad, i = altered
        return min(len(check.check_scan(code, bad, ref, self.members[0],
                                        self.cross_check, {i}))
                   for ref in (self.refs[0], None))


class NiceWorkload:
    """200 distinct nice gluings per pass, each through ``verify``."""

    def __init__(self, seed: int, reference: dict):
        ref = reference[wl.NICE]
        if (ref["pool_seed"], ref["pool_size"]) != (wl.POOL_SEED, wl.POOL_SIZE):
            raise BenchError("reference.json does not match the nice pool")
        self.digests = ref["digests"]
        self.pool = wl.nice_pool()
        self.seed = seed

    def calls(self, pass_index: int) -> list[list[str]]:
        return [wl.nice_argv(self.pool[i])
                for i in wl.nice_draw(self.seed, pass_index)]

    def instances(self) -> int:
        return wl.NICE_PER_PASS

    def check(self, pass_index: int, outputs) -> list[str]:
        draw = wl.nice_draw(self.seed, pass_index)
        oracle = _sample(self.seed, pass_index, len(draw))
        return [f"pool[{i}]"
                for j, (i, (code, text, *_)) in enumerate(zip(draw, outputs))
                if not check.check_nice(code, text, self.pool[i],
                                        self.digests[i], j in oracle)]

    def control(self, outputs) -> int:
        i = wl.nice_draw(self.seed, 0)[0]
        code, text, *_ = outputs[0]
        altered = check.corrupt(text)
        if altered is None:
            return 0
        return min(int(not check.check_nice(code, altered[0], self.pool[i], ref))
                   for ref in (self.digests[i], None))


def _sample(seed: int, key: int, n: int) -> set[int]:
    return set(random.Random(seed * 1000 + key).sample(range(n),
                                                       min(n, ORACLE_SAMPLE)))


def end_to_end(workload, args, spec: dict) -> tuple[dict, list[str]]:
    calls0 = workload.calls(0)
    spawn(calls0, setup_only=True)  # writes bytecode caches; not measured
    setup = [spawn(calls0, setup_only=True)["setup_s"]
             for _ in range(SETUP_SAMPLES)]
    passes = []
    begin = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - begin < args.seconds:
        report = spawn(workload.calls(len(passes)))
        setup.append(report["setup_s"])
        passes.append(report)
    failed = []
    for k, report in enumerate(passes):
        failed += workload.check(k, report["outputs"])
    n = workload.instances()
    rates = [n / (r["end"] - r["start"]) for r in passes]
    attempted = n * len(passes)
    values = {
        "instances_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in passes),
        "correct_ratio": (attempted - len(failed)) / attempted,
    }
    notes = [f"passes: {len(passes)} of {n} instances; instances_per_s "
             f"min {min(rates):.4f} max {max(rates):.4f}",
             f"setup samples: {len(setup)}"]
    latency = [o[3] * 1000 for r in passes for o in r["outputs"]]
    if len(latency) >= 100:  # one call per instance
        pct = 99 if len(latency) >= 1000 else 90
        notes.append(f"call latency: p50 {statistics.median(latency):.2f} ms, "
                     f"p{pct} {statistics.quantiles(latency, n=100)[pct - 1]:.2f}"
                     f" ms over {len(latency)} calls")
    return _result(values, spec["end_to_end"], attempted, failed,
                   workload.control(passes[0]["outputs"]), notes, [])


def traced(workload, args, spec: dict) -> tuple[dict, list[str]]:
    calls0 = workload.calls(0)
    first = spawn(calls0, trace=True)
    plain = spawn(calls0)
    second = spawn(calls0, trace=True)
    failed = []
    for report in (first, plain, second):
        failed += workload.check(0, report["outputs"])
    problems = [f"unwrapped binding: {b}"
                for b in first["unwrapped"] + second["unwrapped"]]
    for name, a in first["trace"].items():
        b = second["trace"][name]
        if any(a[f] != b[f] for f in COUNT_FIELDS):
            problems.append(f"counts of {name} differ between traced passes")

    def seconds(report):
        return report["end"] - report["start"]

    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_ratio":
            values[name] = (seconds(first) + seconds(second)) / 2 / seconds(plain)
            continue
        span, stat = name.rsplit(".", 1)
        values[name] = _layer_value(stat, first["trace"][span],
                                    second["trace"][span])
    attempted = 3 * workload.instances()
    notes = [f"traced passes: 2, untraced: 1, of {workload.instances()} "
             f"instances; trace written to {_write_trace(args, first, second)}"]
    return _result(values, spec["per_layer"], attempted, failed,
                   workload.control(first["outputs"]), notes, problems)


def _layer_value(stat: str, a: dict, b: dict) -> float:
    if stat == "self_s":
        return (a["self_s"] + b["self_s"]) / 2
    if stat in ("p50_ms", "p95_ms"):
        ms = [d * 1000 for d in a["durations"] + b["durations"]]
        if len(ms) < 2:
            return 0.0
        return statistics.quantiles(ms, n=20)[9 if stat == "p50_ms" else 18]
    if stat == "calls":
        return a["calls"]
    if stat == "rejected":
        return a["raised"]
    if stat == "sieve_cells":
        return a["sieve_cells"]
    if stat == "true_ratio":
        return a["counts"]["true"] / a["calls"] if a["calls"] else 0.0
    return a["counts"][stat]


def _write_trace(args, first: dict, second: dict) -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "passes": [first["trace"], second["trace"]]},
                               indent=1))
    return path.relative_to(ROOT)


def _result(values, metrics, attempted, failed, control_failures, notes,
            problems):
    lines = list(notes)
    lines.append(f"negative control: {control_failures} failure(s) flagged "
                 f"in one altered record")
    if control_failures == 0:
        problems = problems + ["negative control not flagged"]
    lines += [f"PROBLEM {p}" for p in problems]
    lines += [f"FAILED {name}" for name in failed[:20]]
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads((HERE / "reference.json").read_text())
        if args.workload == wl.NICE:
            workload = NiceWorkload(args.seed, reference)
        else:
            workload = ScanWorkload(args.workload, args.seed, reference)
        run = traced if args.trace else end_to_end
        result, lines = run(workload, args, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    for line in lines:
        print(line)
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
