"""Sparse multivariate polynomials over exact rationals, and monomial orders.

Monomials are plain exponent tuples; a :class:`Polynomial` maps monomials to
nonzero exact coefficients: an ``int`` when the coefficient is integral, a
``Fraction`` only when it is not.  The ideals of monomial curves have
coefficients ±1, so the kernel runs on plain ints and falls back to
``Fraction`` only for rational input.  Every coefficient division goes
through :func:`exact_quotient`, so no ``float`` ever reaches a coefficient.
Orders compare through a key function, so ``max(terms, key=order.key)`` is
the leading monomial.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ArityMismatch, MalformedPolynomial, ZeroPolynomial

Mono = tuple  # exponent vector, one non-negative int per variable slot

LT, EQ, GT = -1, 0, 1


# --------------------------------------------------------------------------
# monomial helpers
# --------------------------------------------------------------------------

def m_deg(m: Mono) -> int:
    return sum(m)


def m_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(operator.add, a, b))


def m_divides(a: Mono, b: Mono) -> bool:
    """True when a | b componentwise."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def m_div(a: Mono, b: Mono) -> Mono:
    """a / b; caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def m_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def m_coprime(a: Mono, b: Mono) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def minimal_indices(monos) -> list[int]:
    """Indices, in input order, of the minimal generators of <monos>.

    A divisor has smaller degree than its proper multiples, so a scan by
    (degree, index) meets every divisor before its multiples; of equal
    monomials the earliest is kept.
    """
    kept: list[int] = []
    for i in sorted(range(len(monos)), key=lambda i: (m_deg(monos[i]), i)):
        if not any(m_divides(monos[k], monos[i]) for k in kept):
            kept.append(i)
    return sorted(kept)


# --------------------------------------------------------------------------
# monomial orders
# --------------------------------------------------------------------------

DEGREVLEX = "degrevlex"          # global: 1 is the smallest monomial
NEGDEGREVLEX = "negdegrevlex"    # local: 1 is the largest monomial
ELIMINATION = "elimination"      # global block order, first block eliminated


@dataclass(frozen=True)
class MonomialOrder:
    """A total monomial order given by kind and a variable priority.

    ``priority`` lists variable slots from highest to lowest.  Ties inside a
    degree level break reverse-lexicographically: scanning the exponent
    difference from the lowest-priority variable upward, the first nonzero
    entry decides (negative entry means the left monomial is larger).
    For ``elimination``, monomials are first compared by total degree in
    ``block`` (the eliminated variables), then as degrevlex.
    """

    kind: str
    priority: tuple[int, ...]
    block: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in (DEGREVLEX, NEGDEGREVLEX, ELIMINATION):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if sorted(self.priority) != list(range(len(self.priority))):
            raise ValueError("priority must be a permutation of variable slots")
        if self.kind == ELIMINATION and not self.block:
            raise ValueError("elimination order needs a nonempty block")
        # leading-term lookups ask for the same monomials' keys many times;
        # the memo lives and dies with this order object
        object.__setattr__(self, "_keys", {})

    @property
    def nvars(self) -> int:
        return len(self.priority)

    @property
    def is_local(self) -> bool:
        return self.kind == NEGDEGREVLEX

    @property
    def is_global(self) -> bool:
        return not self.is_local

    def key(self, m: Mono):
        """Sort key: key(a) > key(b) iff a > b in this order.

        Each monomial's key is computed once per order object.
        """
        k = self._keys.get(m)
        if k is None:
            k = self._keys[m] = self._key(m)
        return k

    def _key(self, m: Mono):
        tail = tuple(-m[v] for v in reversed(self.priority))
        if self.kind == DEGREVLEX:
            return (sum(m), tail)
        if self.kind == NEGDEGREVLEX:
            return (-sum(m), tail)
        bdeg = sum(m[v] for v in self.block)
        return (bdeg, sum(m), tail)

    def compare(self, a: Mono, b: Mono) -> int:
        if len(a) != len(b) or len(a) != self.nvars:
            raise ArityMismatch(f"monomials of arity {len(a)}, {len(b)} under "
                                f"{self.nvars}-variable order")
        ka, kb = self.key(a), self.key(b)
        return GT if ka > kb else LT if ka < kb else EQ


def degrevlex(nvars: int, priority: tuple[int, ...] | None = None) -> MonomialOrder:
    return MonomialOrder(DEGREVLEX, _default_priority(nvars, priority))


def negdegrevlex(nvars: int, priority: tuple[int, ...] | None = None) -> MonomialOrder:
    return MonomialOrder(NEGDEGREVLEX, _default_priority(nvars, priority))


def elimination(nvars: int, block: frozenset[int] | set[int],
                priority: tuple[int, ...] | None = None) -> MonomialOrder:
    return MonomialOrder(ELIMINATION, _default_priority(nvars, priority),
                         frozenset(block))


def _default_priority(nvars, priority):
    if priority is None:
        return tuple(range(nvars))
    return tuple(priority)


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------

Coeff = int | Fraction  # exact; a Fraction only when not integral


def exact_coeff(c) -> Coeff:
    """The exact coefficient ``c``: an ``int`` when integral, else a ``Fraction``.

    A ``float`` is refused with ``TypeError``: it is not exact, and a float
    such as ``1 / 3`` would silently become a different rational.
    """
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def exact_quotient(a: Coeff, b: Coeff) -> Coeff:
    """``a / b`` exactly: an ``int`` when ``b`` divides ``a``, else a ``Fraction``.

    Plain ``/`` on two ints would give a float.  Raises ``ZeroDivisionError``
    when ``b`` is zero.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return exact_coeff(Fraction(a) / b)


class Polynomial:
    """Immutable-by-convention sparse polynomial with exact coefficients.

    A coefficient is an ``int`` when integral and a ``Fraction`` otherwise;
    every operation keeps it so.  ``int`` and ``Fraction(n, 1)`` compare and
    hash alike, so equality does not depend on the representation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None, _clean=True):
        if terms is None:
            terms = {}
        if _clean:
            cleaned = {}
            for m, c in terms.items():
                c = exact_coeff(c)
                if c:
                    cleaned[tuple(m)] = c
            terms = cleaned
        self.terms: dict[Mono, Coeff] = terms

    # construction helpers ---------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({}, _clean=False)

    @classmethod
    def term(cls, coeff, mono: Mono) -> "Polynomial":
        c = exact_coeff(coeff)
        return cls({tuple(mono): c} if c else {}, _clean=False)

    @classmethod
    def variable(cls, slot: int, nvars: int, power: int = 1) -> "Polynomial":
        m = [0] * nvars
        m[slot] = power
        return cls.term(1, tuple(m))

    # predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def num_terms(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("total_degree of 0")
        return max(m_deg(m) for m in self.terms)

    # arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = exact_coeff(s)
            else:
                res.pop(m, None)
        return Polynomial(res, _clean=False)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) - c
            if s:
                res[m] = exact_coeff(s)
            else:
                res.pop(m, None)
        return Polynomial(res, _clean=False)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()}, _clean=False)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        res: dict[Mono, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m_mul(m1, m2)
                s = res.get(m, 0) + c1 * c2
                if s:
                    res[m] = exact_coeff(s)
                else:
                    res.pop(m, None)
        return Polynomial(res, _clean=False)

    def mul_term(self, coeff, mono: Mono) -> "Polynomial":
        if not coeff:
            return Polynomial.zero()
        return Polynomial({m_mul(m, mono): exact_coeff(c * coeff)
                           for m, c in self.terms.items()}, _clean=False)

    def scale(self, coeff) -> "Polynomial":
        if not coeff:
            return Polynomial.zero()
        return Polynomial({m: exact_coeff(c * coeff)
                           for m, c in self.terms.items()}, _clean=False)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = sorted(self.terms.items())
        return "Polynomial(" + " + ".join(f"{c}*{m}" for m, c in parts) + ")"


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple[Mono, Coeff]:
    """Order-maximal (monomial, coefficient) pair of a nonzero polynomial."""
    if f.is_zero():
        raise ZeroPolynomial("leading term of the zero polynomial")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def leading_monomial(f: Polynomial, order: MonomialOrder) -> Mono:
    return leading_term(f, order)[0]


def least_degree_form(f: Polynomial) -> Polynomial:
    """Sum of the terms of minimal total degree (the initial form at the origin)."""
    if f.is_zero():
        raise ZeroPolynomial("least-degree form of 0")
    d = min(m_deg(m) for m in f.terms)
    return Polynomial({m: c for m, c in f.terms.items() if m_deg(m) == d},
                      _clean=False)


def ecart(f: Polynomial, order: MonomialOrder) -> int:
    """Total degree of f minus total degree of its leading monomial."""
    lm = leading_monomial(f, order)
    return f.total_degree() - m_deg(lm)


def spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """S-polynomial: cancel the leading terms against lcm(LM(f), LM(g))."""
    mf, cf = leading_term(f, order)
    mg, cg = leading_term(g, order)
    lcm = m_lcm(mf, mg)
    return (f.mul_term(exact_quotient(1, cf), m_div(lcm, mf))
            - g.mul_term(exact_quotient(1, cg), m_div(lcm, mg)))


def monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    _, c = leading_term(f, order)
    return f if c == 1 else f.scale(exact_quotient(1, c))


# --------------------------------------------------------------------------
# textual syntax:  "x1^12 - x2^5",  "3*x1*y2 + 7"
# --------------------------------------------------------------------------

_NAME = re.compile(r"[a-zA-Z]+\d*")
_TOKEN = re.compile(rf"\s*(?:(\d+)(?:\s*/\s*(\d+))?"
                    rf"|({_NAME.pattern})(?:\s*\^\s*(\d+))?|(\S))")
# the token kinds that may follow each kind; a sign or the end closes a term
_FOLLOWS = {"start of text": ("+", "-", "factor"), "+": ("factor",),
           "-": ("factor",), "*": ("factor",),
           "factor": ("factor", "*", "+", "-", "end of text")}


def parse_polynomial(text: str, names: list[str] | tuple[str, ...]) -> Polynomial:
    """Parse the textual syntax into a polynomial over the given variables.

    Grammar (``var`` is one of ``names``; spaces may stand between tokens)::

        poly   := [sign] term (sign term)*
        term   := factor (['*'] factor)*
        factor := int | int '/' int | var ['^' int]

    Juxtaposed factors multiply (``2 3 x1`` is ``6*x1``) and letters split
    greedily on the names (``x1x2``); any other text raises
    :class:`MalformedPolynomial`.  Round-trips with :func:`polynomial_to_str`.
    """
    slot = {n: i for i, n in enumerate(names)}
    one = (0,) * len(names)
    result, term, prev = Polynomial.zero(), Polynomial.term(1, one), "start of text"
    tokens = _TOKEN.findall(text) + [("", "", "", "", "end of text")]
    for num, den, word, power, op in tokens:
        kind = op or "factor"
        if kind not in _FOLLOWS[prev]:
            raise MalformedPolynomial(f"unexpected {kind} after {prev} in {text!r}")
        if num:
            if den and not int(den):
                raise MalformedPolynomial(f"zero denominator in {num}/{den}")
            term = term.scale(Fraction(int(num), int(den or 1)))
        elif word:
            slots = _split_names(word, slot)
            mono = [slots.count(v) for v in range(len(names))]
            mono[slots[-1]] += int(power or 1) - 1
            term = term.mul_term(1, tuple(mono))
        elif kind != "*":
            if prev == "factor":
                result = result + term
            term = Polynomial.term(-1 if kind == "-" else 1, one)
        prev = kind
    return result


def _split_names(word: str, slot: dict[str, int]) -> list[int]:
    """Slots of the names juxtaposed in ``word``, each the longest that fits."""
    out = []
    while word not in slot:
        cut = max((n for n in range(1, len(word)) if word[:n] in slot), default=0)
        if not cut:
            raise MalformedPolynomial(f"unknown variable {word!r}")
        out.append(slot[word[:cut]])
        word = word[cut:]
    return out + [slot[word]]


def polynomial_to_str(f: Polynomial, names: list[str] | tuple[str, ...],
                      order: MonomialOrder | None = None) -> str:
    """Render with terms in decreasing order (leading term first)."""
    if f.is_zero():
        return "0"
    if order is None:
        order = degrevlex(len(names))
    out = []
    for m in sorted(f.terms, key=order.key, reverse=True):
        c = f.terms[m]
        mono_txt = "*".join(
            f"{names[v]}^{m[v]}" if m[v] > 1 else names[v]
            for v in range(len(names)) if m[v]
        )
        if not mono_txt:
            piece = str(abs(c))
        elif abs(c) == 1:
            piece = mono_txt
        else:
            piece = f"{abs(c)}*{mono_txt}"
        if not out:
            out.append(piece if c > 0 else f"-{piece}")
        else:
            out.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(out)


def is_variable_name(name) -> bool:
    """Is ``name`` a string that the grammar reads as one variable?"""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def infer_variable_names(text: str) -> list[str]:
    """Collect variable names from raw polynomial text, x-block then y-block."""
    seen = set(_NAME.findall(text))
    names = sorted(seen, key=_name_key)
    return names


def _name_key(name):
    m = re.fullmatch(r"([a-zA-Z]+)(\d*)", name)
    return (m.group(1), int(m.group(2) or 0))
