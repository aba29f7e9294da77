"""Numerical semigroup arithmetic.

A semigroup is stored by its minimal generating set and read through its
Apéry set Ap(S, m) with respect to the multiplicity m: n is a member exactly
when n >= Ap[n mod m], the Frobenius number is max Ap - m, symmetry is a
property of Ap alone, and a representation is rebuilt by stepping down
through Ap (:meth:`NumericalSemigroup.contains`).  Each
:class:`NumericalSemigroup` carries its own Ap(S, m), built once by
whoever builds the semigroup, one of two ways, and refused with
:class:`WorkBudgetExceeded` before allocation when m exceeds
``MAX_MULTIPLICITY``:

- a glued semigroup, in ``gluing.glued_curve``, from its components' sets
  by the gluing identity Ap(S, q*m1) = q*Ap(S1, m1) + p*Ap(S2, q), in O(m)
  steps, with two self-checks (:func:`glued_apery`);
- every other semigroup by Böcker and Lipták's round robin (Algorithmica
  48, 2007) in O(k*m) steps, once per generator list in
  :func:`minimal_generators`.  For glued semigroups it is the tests'
  reference.

Membership from the table also drives the order-filtration Hilbert oracle,
which is deliberately independent of all polynomial machinery.

The gluing witnesses need a representation of largest coefficient sum
(Barron, O'Neill & Pelayo, Math. Comp. 86, 2017, for such dynamic
algorithms).  It is found without listing factorizations, whose number
grows like n^(k-1).  In a longest representation of n over g0 < g1 < ...,
every c_i with i >= 1 is at most g0 - 1: otherwise g0 copies of g_i could
be swapped for g_i copies of g0, which is longer.  So the part over
g1, g2, ... is some v <= T = min(n, (g0 - 1) * (g1 + g2 + ...)), and one
row of longest sums per suffix of the generators, up to T, settles it;
the last generator's row is closed form.  The rows do not grow with n,
and more than ``MAX_WITNESS_CELLS`` cells raise
:class:`WorkBudgetExceeded` before allocation.  ``all_representations``
lists every factorization and serves the tests as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, inf

from .errors import (EmptyGenerators, GcdNotOne, NonPositiveGenerator,
                     SelfCheckFailed, WorkBudgetExceeded)

# the largest multiplicity whose Apéry table is built: one residue per entry
MAX_MULTIPLICITY = 10**6
# the most cells of longest-length rows one witness search may build
MAX_WITNESS_CELLS = 10**6


@dataclass(frozen=True)
class Representation:
    """Coefficients a_i of a member n = sum a_i * g_i of a semigroup."""

    coefficients: tuple[int, ...]
    value: int

    def __post_init__(self):
        if any(c < 0 for c in self.coefficients):
            raise ValueError("representation coefficients must be non-negative")

    @property
    def size(self) -> int:
        """Sum of the coefficients (number of generator summands)."""
        return sum(self.coefficients)


@dataclass(frozen=True)
class NumericalSemigroup:
    """Numerical semigroup given by its minimal generators, gcd 1.

    ``apery`` is Ap(S, m), indexed by residue mod m; it does not enter
    equality, hash or repr, which are those of the generator tuple.  When
    it is not given, the round robin builds it.  A table the caller passes
    is trusted, except that the generators must be minimal on it; only
    :func:`minimal_generators` and ``gluing.glued_curve`` pass one.
    """

    generators: tuple[int, ...]
    apery: tuple[int, ...] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        gens = self.generators
        _check_generators(gens, list(gens))
        if self.apery is None:
            object.__setattr__(self, "apery", _round_robin(gens))
        reduced = _minimalize(gens, self.apery)
        if reduced != gens:
            raise ValueError(
                f"{list(gens)} is not minimal; minimal set is {list(reduced)}")

    # ------------------------------------------------------------------

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero element (= smallest generator)."""
        return self.generators[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    def contains(self, n: int) -> Representation | None:
        """A representation of n if n is a member, else None.

        n = w + c0*m with w = Ap[n mod m].  From an Apéry element w != 0 the
        walk steps to w - g_i for the first i >= 1 with
        Ap[(w - g_i) mod m] = w - g_i, and such an i always exists: write
        w = sum c_i*g_i.  Then c_0 = 0, as w - m is not a member, so some
        c_i > 0 with i >= 1, and for it w - g_i is a member while
        w - g_i - m is not, so w - g_i is the Apéry element of its residue.
        Each step lowers w, so the walk reaches 0.
        """
        if n < 0:
            raise ValueError("membership is defined for n >= 0")
        gens, m, apery = self.generators, self.multiplicity, self.apery
        w = apery[n % m]
        if n < w:
            return None
        coeffs = [0] * len(gens)
        coeffs[0] = (n - w) // m
        while w:
            i = next(i for i in range(1, len(gens))
                     if apery[(w - gens[i]) % m] == w - gens[i])
            coeffs[i] += 1
            w -= gens[i]
        return Representation(tuple(coeffs), n)

    def max_length_representation(self, n: int) -> Representation | None:
        """The representation of n of largest coefficient sum, or None when
        n is not a member; ties go to the lexicographically smallest.

        By the exchange bound (module docstring) the part over ``gens[1:]``
        is at most T = min(n, (g0 - 1) * sum(gens[1:])).  c0, c1, ... are
        fixed in turn, each the smallest value that keeps the rest optimal,
        read from ``_longest_rows`` up to T.  Raises
        :class:`WorkBudgetExceeded`, before allocating, when those rows
        would hold more than ``MAX_WITNESS_CELLS`` cells.
        """
        if self.contains(n) is None:
            return None
        gens = self.generators
        top = min(n, (gens[0] - 1) * sum(gens[1:]))
        rows = _longest_rows(gens, top)
        last = gens[-1]

        def longest(j, v):  # the largest coefficient sum of v over gens[j:]
            if j < len(rows):
                return rows[j][v]
            return v // last if v % last == 0 else -inf

        coeffs = []
        rest = n
        for j, g in enumerate(gens[:-1]):
            # c0 leaves at most ``top`` to gens[1:]; later rests are <= top
            lo = max(0, -(-(rest - top) // g))
            # max keeps the first, so the smallest, of the optimal values
            c = max(range(lo, rest // g + 1),
                    key=lambda c: c + longest(j + 1, rest - c * g))
            coeffs.append(c)
            rest -= c * g
        coeffs.append(rest // last)
        return Representation(tuple(coeffs), n)

    def all_representations(self, n: int) -> list[Representation]:
        """Every coefficient vector representing n, lexicographically sorted.

        Only the tests call it, as the reference for
        :meth:`max_length_representation`; the count grows like n^(k-1).
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        gens = self.generators
        out: list[tuple[int, ...]] = []

        def rec(idx, rest, acc):
            if idx == len(gens) - 1:
                if rest % gens[idx] == 0:
                    out.append(tuple(acc + [rest // gens[idx]]))
                return
            g = gens[idx]
            for c in range(rest // g + 1):
                rec(idx + 1, rest - c * g, acc + [c])

        rec(0, n, [])
        out.sort()
        return [Representation(c, n) for c in out]

    def frobenius_and_apery(self) -> tuple[int, tuple[int, ...]]:
        """Frobenius number and the Apéry set w.r.t. the smallest generator."""
        return max(self.apery) - self.multiplicity, self.apery

    @property
    def frobenius(self) -> int:
        return self.frobenius_and_apery()[0]

    def is_symmetric(self) -> bool:
        """Symmetry, read off the Apéry set: 2 * sum Ap == m * max Ap.

        By Selmer's formula the genus is g = sum Ap / m - (m - 1) / 2, and
        F = max Ap - m.  Always g >= (F + 1) / 2, with equality exactly when
        S is symmetric (Rosales & García-Sánchez, *Numerical Semigroups*,
        2009, ch. 2 and 4).  Substituting both, equality reads
        2 * sum Ap = m * max Ap.
        """
        apery = self.apery
        return 2 * sum(apery) == self.multiplicity * max(apery)

    def order_filtration_hilbert(self, n_max: int) -> list[int]:
        """H(0..n_max) where H(n) counts members of maximal order exactly n.

        The order of a member is the largest coefficient sum over all of its
        representations; dynamic programming over the members computes it.
        Members above F + (n_max+1)*max(generators) necessarily have order
        > n_max, so the enumeration bound is safe.
        """
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        gens = self.generators
        frob = self.frobenius
        bound = max(frob, 0) + (n_max + 1) * gens[-1]
        apery, m = self.apery, gens[0]
        member = [s >= apery[s % m] for s in range(bound + 1)]
        order = [-1] * (bound + 1)
        order[0] = 0
        counts = [0] * (n_max + 1)
        counts[0] = 1
        for s in range(1, bound + 1):
            if not member[s]:
                continue
            best = -1
            for g in gens:
                if s >= g and member[s - g]:
                    if order[s - g] > best:
                        best = order[s - g]
            order[s] = best + 1
            if best + 1 <= n_max:
                counts[best + 1] += 1
        return counts


def minimal_generators(raw: list[int] | tuple[int, ...]) -> NumericalSemigroup:
    """Normalize arbitrary generators with gcd 1 to the minimal set.

    ``raw`` and its minimal subset generate the same semigroup, with the
    same smallest generator m, so the one round robin on ``raw`` gives the
    Apéry table of both.
    """
    gens = tuple(sorted(set(raw)))
    _check_generators(gens, list(raw))
    apery = _round_robin(gens)
    return NumericalSemigroup(_minimalize(gens, apery), apery)


def _check_generators(gens: tuple[int, ...], shown: list[int]):
    """Refuse ``gens`` unless nonempty, positive, strictly increasing and of
    gcd 1; messages name ``shown``, the generators as the caller gave them."""
    if not gens:
        raise EmptyGenerators("no generators")
    if any(g <= 0 for g in gens):
        raise NonPositiveGenerator(f"{shown} has a generator <= 0")
    if list(gens) != sorted(set(gens)):
        raise ValueError("generators must be strictly increasing")
    if gcd(*gens) != 1:
        raise GcdNotOne(f"gcd of {shown} is {gcd(*gens)}")


def _minimalize(gens: tuple[int, ...],
                apery: tuple[int, ...]) -> tuple[int, ...]:
    """Keep g unless g - h is a member for some smaller generator h; the
    members are read from ``apery``, Ap(<gens>, gens[0])."""
    m = gens[0]
    return tuple(g for g in gens
                 if not any(g - h >= apery[(g - h) % m] for h in gens if h < g))


def _longest_rows(gens: tuple[int, ...], top: int) -> list:
    """``rows[j][v]``, for 1 <= j <= k - 2 and v <= top, is the largest
    coefficient sum of v over ``gens[j:]`` (-inf when v has none).

    Row j is row j + 1 relaxed by ``gens[j]`` in increasing v; the row of
    the last generator is never built.  Raises :class:`WorkBudgetExceeded`
    before allocating more than ``MAX_WITNESS_CELLS`` cells.
    """
    cells = max(len(gens) - 2, 0) * (top + 1)
    if cells > MAX_WITNESS_CELLS:
        raise WorkBudgetExceeded(
            f"the longest representations over {list(gens)} up to {top} "
            f"need {cells} table cells; the budget is MAX_WITNESS_CELLS = "
            f"{MAX_WITNESS_CELLS}")
    rows = [None] * (len(gens) - 1)
    last = gens[-1]
    for j in range(len(gens) - 2, 0, -1):
        if j + 1 < len(rows):
            row = rows[j + 1].copy()
        else:
            row = [v // last if v % last == 0 else -inf
                   for v in range(top + 1)]
        g = gens[j]
        for v in range(g, top + 1):
            if row[v - g] + 1 > row[v]:
                row[v] = row[v - g] + 1
        rows[j] = row
    return rows


@lru_cache(maxsize=1024)
def cached_semigroup(raw: tuple[int, ...]) -> NumericalSemigroup:
    """``minimal_generators(raw)``, built once per process for each tuple.

    A family scan validates the same two generator lists for every member,
    so this is the module's one cache, and each list's Apéry set is built
    once with its semigroup.  An exception is not cached, so a bad list
    raises on every call.
    """
    return minimal_generators(raw)


def glued_apery(s1: NumericalSemigroup, s2: NumericalSemigroup, p: int,
                q: int, glued: tuple[int, ...]) -> tuple[int, ...]:
    """Ap(S, m) of the gluing S = q*S1 + p*S2 on the sorted tuple ``glued``.

    Let m1, n1 be the multiplicities of S1, S2.  If q*m1 < p*n1, then
    m = q*m1 and Ap(S, m) = q*Ap(S1, m1) + p*Ap(S2, q) (Delorme 1976;
    Rosales & García-Sánchez, *Numerical Semigroups*, 2009, ch. 8);
    otherwise m = p*n1 and Ap(S, m) = p*Ap(S2, n1) + q*Ap(S1, p).  The
    first table is the component's own ``apery``; the auxiliary Ap(S2, q)
    or Ap(S1, p) comes from :func:`_round_robin` with q or p as the
    modulus, and its q or p residues are charged to the glued m.  Requires
    gcd(p, q) = 1, p in S1 and q in S2, as ``gluing.validate_gluing``
    checks.

    Two self-checks: the m sums hit every residue mod m once, and max Ap - m
    equals q*F(S1) + p*F(S2) + pq, which compares the auxiliary table with
    the other component's table.  Either failing raises
    :class:`SelfCheckFailed` with (s1, s2, p, q) in its bundle.
    """
    bundle = {"s1": list(s1.generators), "s2": list(s2.generators), "p": p,
              "q": q}
    if not q * s1.multiplicity < p * s2.multiplicity:
        s1, s2, p, q = s2, s1, q, p
    m = q * s1.multiplicity
    _check_multiplicity(m)
    ys = [p * b for b in _round_robin((q,) + s2.generators)]
    apery = [-1] * m
    for a in s1.apery:
        x = q * a
        for y in ys:
            w = x + y
            apery[w % m] = w
    if -1 in apery:  # m sums and a residue left over: two shared one
        raise SelfCheckFailed(
            f"the gluing identity's Apéry set of {list(glued)} misses a "
            f"residue mod {m}", bundle)
    frob1 = max(s1.apery) - s1.multiplicity
    frob2 = max(s2.apery) - s2.multiplicity
    if max(apery) - m != q * frob1 + p * frob2 + p * q:
        raise SelfCheckFailed(
            f"the gluing identity's Apéry set of {list(glued)} has Frobenius "
            f"number {max(apery) - m}, not q*F(S1) + p*F(S2) + pq = "
            f"{q * frob1 + p * frob2 + p * q}", bundle)
    return tuple(apery)


def _check_multiplicity(m: int):
    if m > MAX_MULTIPLICITY:
        raise WorkBudgetExceeded(
            f"Ap(S, {m}) needs a table of {m} residues; the budget is "
            f"multiplicity <= {MAX_MULTIPLICITY}")


def _round_robin(gens: tuple[int, ...]) -> tuple[int, ...]:
    """Ap(S, m) for m = gens[0], indexed by residue mod m.

    Round robin (Böcker & Lipták, *A fast and simple algorithm for the money
    changing problem*, Algorithmica 48, 2007): ``apery[r]`` starts as the
    least member of <m> congruent to r (0 for r = 0, none otherwise), and
    each further generator g extends it to the least member of <m, ..., g>.
    The residues split into gcd(g, m) cycles r -> r + g (mod m).  A walk
    once round a cycle from its smallest value, relaxing r -> r + g, settles
    the whole cycle: adding g to that value cannot improve it.  O(k*m) in
    all, with no heap.  The further generators need not exceed m, so with
    q first it also gives Ap(S2, q) for :func:`glued_apery`.

    Raises :class:`WorkBudgetExceeded`, before allocating, when m exceeds
    ``MAX_MULTIPLICITY``.
    """
    m = gens[0]
    _check_multiplicity(m)
    apery = [0] + [inf] * (m - 1)
    for g in gens[1:]:
        d = gcd(g, m)
        for start in range(d):
            # the cycle through start holds the residues congruent to it mod d
            r = min(range(start, m, d), key=apery.__getitem__)
            w = apery[r]
            if w == inf:
                continue  # no member reaches this cycle yet
            for _ in range(m // d - 1):
                w += g
                r = w % m
                if w < apery[r]:
                    apery[r] = w
                else:
                    w = apery[r]
    return tuple(apery)
