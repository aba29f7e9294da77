"""Record the digests of ``glue --json`` and ``verify --json`` on fixed gluings.

``gluing_digests.json`` holds, for every gluing (S1, S2, p, q), the sha256 of
the stdout and the exit code of ``glue`` and ``verify`` with ``--json``.  The
gluings are the two README examples, (6, 7, 15) glued to (1) at p = 13,
q = 2, and 150 seeded nice gluings from ``family_samples.random_nice_gluing``
with components of embedding dimension 2 or 3.  The file lists them, so the
test that replays it does not depend on how they were drawn.

A change that must keep every output byte-identical leaves the file as it
is.  A change that alters the output on purpose records it again::

    PYTHONPATH=src python tests/record_gluing_digests.py
"""

import json
import random
import sys
from pathlib import Path

from family_samples import random_nice_gluing
from record_cli_digests import digest_argv

PATH = Path(__file__).with_name("gluing_digests.json")
COMMANDS = ("glue", "verify")
SEED = 20112
FIXED = [[[5, 12], [7, 8], 17, 21], [[2, 3], [4, 5], 7, 8],
         [[6, 7, 15], [1], 13, 2]]


def gluings() -> list[list]:
    """The fixed gluings, then 150 distinct seeded nice gluings."""
    out = [list(g) for g in FIXED]
    rng = random.Random(SEED)
    seen = set()
    while len(seen) < 150:
        spec = random_nice_gluing(rng, rng.choice((2, 3)), rng.choice((2, 3)))
        key = (spec.s1.generators, spec.s2.generators, spec.p, spec.q)
        if key not in seen:
            seen.add(key)
            out.append([list(key[0]), list(key[1]), spec.p, spec.q])
    return out


def digest(command: str, gluing: list) -> list:
    """[sha256 of stdout, exit code] of ``command`` on ``gluing`` with --json."""
    s1, s2, p, q = gluing
    return digest_argv([command, "--s1", ",".join(map(str, s1)),
                        "--s2", ",".join(map(str, s2)),
                        "--p", str(p), "--q", str(q), "--json"])


def record(gluing_list) -> list[dict]:
    return [{"gluing": g, **{c: digest(c, g) for c in COMMANDS}}
            for g in gluing_list]


if __name__ == "__main__":
    rows = record(gluings())
    PATH.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{len(rows)} gluings, {len(rows) * len(COMMANDS)} digests "
          f"written to {PATH}", file=sys.stderr)
