"""Seeded generator of nice gluings for the ``nice_sweep`` workload.

Imports nothing from ``curvegluing``: gcd, minimality, membership and the
largest coefficient sum of a representation come from the small dynamic
programs below, so the program under test receives only the generated
``(s1, s2, p, q)`` tuples and must validate them itself.

Distribution (the shape of acceptance criteria 5 and 6):

* ``s1``: embedding dimension 2 for even and 3 for odd positions in the
  list, so every list holds the same mix; ``s2``: embedding dimension 2; generators drawn without replacement from 2..15,
  redrawn until the set has gcd 1 and is already minimal.
* ``a1`` uniform in 2..4 and ``q = a1 * n1`` (``n1`` the smallest generator
  of ``s2``), so ``q`` is concentrated on one generator.
* ``p`` the first of the shuffled window ``a1*m1 .. a1*m1 + 12*m1 - 1`` that
  is coprime to ``q``, a non-generator member of ``s1`` and has a
  representation with coefficient sum at least ``a1``: exactly the clauses
  that make the gluing valid and nice.  Draws with no such ``p`` restart.

Every instance therefore differs in both components, so nothing computed for
one instance can be reused by the next.
"""

from __future__ import annotations

import random
from math import gcd

MAX_GEN = 15
WINDOW = 12


def max_order(gens: tuple[int, ...], n: int) -> int:
    """Largest coefficient sum of a representation of n, or -1 if none."""
    best = [-1] * (n + 1)
    best[0] = 0
    for s in range(1, n + 1):
        for g in gens:
            if g <= s and best[s - g] >= 0 and best[s - g] + 1 > best[s]:
                best[s] = best[s - g] + 1
    return best[n]


def _is_minimal(gens: tuple[int, ...]) -> bool:
    return all(max_order(tuple(h for h in gens if h < g), g) < 0 for g in gens)


def _semigroup(rng: random.Random, embdim: int) -> tuple[int, ...]:
    while True:
        gens = tuple(sorted(rng.sample(range(2, MAX_GEN + 1), embdim)))
        g = 0
        for n in gens:
            g = gcd(g, n)
        if g == 1 and _is_minimal(gens):
            return gens


def _nice_gluing(rng: random.Random, embdim1: int):
    while True:
        s1 = _semigroup(rng, embdim1)
        s2 = _semigroup(rng, 2)
        a1 = rng.randint(2, 4)
        q = a1 * s2[0]
        m1 = s1[0]
        window = list(range(a1 * m1, a1 * m1 + WINDOW * m1))
        rng.shuffle(window)
        for p in window:
            if gcd(p, q) != 1 or p in s1 or max_order(s1, p) < a1:
                continue
            if {q * m for m in s1} & {p * n for n in s2}:
                continue
            return s1, s2, p, q


def nice_gluings(seed: int, count: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int, int]]:
    """``count`` nice gluings ``(s1, s2, p, q)``; equal seeds give equal lists."""
    rng = random.Random(seed)
    return [_nice_gluing(rng, 2 + i % 2) for i in range(count)]
