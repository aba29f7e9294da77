"""One benchmark pass in a fresh interpreter.

Reads a job from stdin: ``{"calls": [argv, ...], "trace": bool,
"setup_only": bool}``.  Imports ``curvegluing`` from this checkout's
``src``, optionally installs the tracer, then runs every argv through
``cli.main`` with stdout and stderr captured.  Writes one JSON object to
stdout: the monotonic clock when set-up ended and when the timed calls
started and ended, the pass's ``ru_maxrss``, each call's exit code and
output, and, when traced, the span totals.

A fresh interpreter per pass matters: ``semigroup._member_table`` and
``_frobenius_apery`` are process-wide caches, and every CLI user starts
with them empty.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    from curvegluing import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "curvegluing":
        print(f"curvegluing imported from {cli.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()
    calls = job["calls"]
    ready = time.monotonic()
    result = {"ready": ready}
    if not job["setup_only"]:
        outputs = []
        cpu = time.process_time()
        start = time.monotonic()
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            began = time.monotonic()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails this call, not the pass
                code = f"{type(exc).__name__}: {exc}"
            outputs.append([code, out.getvalue(), err.getvalue(),
                            time.monotonic() - began])
        end = time.monotonic()
        result.update(
            start=start, end=end, cpu_s=time.process_time() - cpu,
            outputs=outputs,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        result.update(trace=tracer.stats(), unwrapped=tracer.unwrapped())
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
