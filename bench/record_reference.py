"""Record the reference outputs that ``check.py`` compares passes against.

Run from the repository root:  python3 bench/record_reference.py

Writes ``bench/reference.json``: for each scan call the digest of its
``--json`` output and of each record, and for the nice-gluing pool the
digest of each instance's ``verify --json`` output.  Run it only on a commit
whose outputs are known to be right; the benchmark treats any later
difference as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))

from check import check_nice, check_scan, digest, record_digest  # noqa: E402
from curvegluing import cli  # noqa: E402


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return out.getvalue()


def _require(failed, what: str):
    if failed:
        raise SystemExit(f"{what} fails the output checks: {failed}")


def main() -> None:
    ref: dict = {}
    for name, (configs, cross) in wl.SCANS.items():
        ref[name] = []
        for config in configs:
            text = _run(wl.scan_argv(config, cross))
            _require(check_scan(0, text, None, wl.scan_members(config), cross),
                     config)
            ref[name].append({
                "config": config, "output": digest(text),
                "records": [record_digest(r)
                            for r in json.loads(text)["records"]]})
    digests = []
    for inst in wl.nice_pool():
        text = _run(wl.nice_argv(inst))
        _require(not check_nice(0, text, inst, None), inst)
        digests.append(digest(text))
    ref[wl.NICE] = {"pool_seed": wl.POOL_SEED, "pool_size": wl.POOL_SIZE,
                    "digests": digests}
    path = wl.ROOT / "bench" / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
