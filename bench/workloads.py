"""The three benchmark workloads: what one pass sends to the CLI.

``scan_xcheck`` and ``scan_plain`` send the same calls on every pass and for
every seed.  ``nice_sweep`` draws each pass's 200 gluings from a fixed pool
made by ``instances.nice_gluings``; the seed fixes the order of the draw.
The pool is fixed so that every output can be compared byte for byte with
the one recorded from the seed commit.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from instances import nice_gluings

ROOT = Path(__file__).resolve().parent.parent

SCANS = {
    # the shipped configs, with the elimination cross-check on every member
    "scan_xcheck": (("configs/family_q.json", "configs/family_r.json"), True),
    # the same families over longer ranges, without the cross-check
    "scan_plain": (("bench/configs/family_q_80.json",
                    "bench/configs/family_r_150.json"), False),
}
NICE = "nice_sweep"
WORKLOADS = (*SCANS, NICE)

NICE_PER_PASS = 200
POOL_SEED = 20110707
POOL_SIZE = 4000


def scan_argv(config: str, cross_check: bool) -> list[str]:
    return ["scan", "--config", config, "--jobs", "1",
            *(["--cross-check"] if cross_check else []), "--json"]


def scan_members(config: str) -> int:
    lo, hi = json.loads((ROOT / config).read_text())["range"]
    return hi - lo + 1


def nice_argv(instance) -> list[str]:
    s1, s2, p, q = instance
    return ["verify", "--s1", ",".join(map(str, s1)),
            "--s2", ",".join(map(str, s2)), "--p", str(p), "--q", str(q),
            "--no-cross-check", "--json"]


def nice_pool():
    return nice_gluings(POOL_SEED, POOL_SIZE)


def nice_draw(seed: int, pass_index: int) -> list[int]:
    """Pool indices of one pass: consecutive slices of a seeded permutation."""
    order = random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)
    start = pass_index * NICE_PER_PASS
    return [order[(start + j) % POOL_SIZE] for j in range(NICE_PER_PASS)]
