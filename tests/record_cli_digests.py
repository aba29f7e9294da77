"""Record the digests of the CLI's ``--json`` output on a fixed set of curves.

``cli_digests.json`` holds, for every curve, the sha256 of the stdout and the
exit code of ``ideal``, ``tangent-cone``, ``hilbert`` and ``semigroup`` with
``--json``.  The curves are every coprime pair 2 <= a < b < 40 and 100
seeded curves minimally generated by 3 or 4 integers below 45.  The file
lists them, so the test that replays it does not depend on how they were
drawn.

A change that must keep every output byte-identical leaves the file as it
is.  A change that alters the output on purpose records it again::

    PYTHONPATH=src python tests/record_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from math import gcd
from pathlib import Path

from curvegluing.cli import main
from curvegluing.semigroup import minimal_generators

PATH = Path(__file__).with_name("cli_digests.json")
COMMANDS = ("ideal", "tangent-cone", "hilbert", "semigroup")
SEED = 20111


def curves() -> list[list[int]]:
    """Every coprime pair below 40, then 100 seeded minimal generating sets
    of 3 or 4 generators below 45."""
    out = [[a, b] for b in range(3, 40) for a in range(2, b) if gcd(a, b) == 1]
    rng = random.Random(SEED)
    seen = set()
    while len(seen) < 100:
        gens = sorted(rng.sample(range(2, 45), rng.choice((3, 4))))
        if gcd(*gens) == 1 and tuple(gens) not in seen and \
                minimal_generators(gens).generators == tuple(gens):
            seen.add(tuple(gens))
            out.append(gens)
    return out


def digest(command: str, gens: list[int]) -> list:
    """[sha256 of stdout, exit code] of ``command <gens> --json``."""
    return digest_argv([command, ",".join(map(str, gens)), "--json"])


def digest_argv(argv: list[str]) -> list:
    """[sha256 of stdout, exit code] of the CLI on ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), code]


def record(gens_list) -> list[dict]:
    return [{"curve": gens, **{c: digest(c, gens) for c in COMMANDS}}
            for gens in gens_list]


if __name__ == "__main__":
    rows = record(curves())
    PATH.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{len(rows)} curves, {len(rows) * len(COMMANDS)} digests "
          f"written to {PATH}", file=sys.stderr)
