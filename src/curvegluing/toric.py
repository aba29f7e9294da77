"""Defining ideals of monomial curves and complete-intersection detection.

The curve t -> (t^n1, ..., t^nk) has a binomial prime kernel; we compute it
by adjoining one parameter variable and eliminating it with a Groebner basis,
then pruning redundant generators, which leaves a minimal presentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import semigroup as sg
from .basis import buchberger, interreduce_global, is_member_global, normal_form_global
from .errors import SelfCheckFailed
from .polyalg import (MonomialOrder, Polynomial, degrevlex, elimination,
                      m_deg, monic)


@dataclass(frozen=True)
class MonomialCurve:
    """A monomial curve with named coordinates bound to semigroup generators.

    ``generators[i]`` is the exponent of the parameterization in variable
    ``names[i]``.  The generator multiset must be the minimal generating set
    of its semigroup; the binding order is free (glued curves keep their
    x-block/y-block layout rather than sorting by value).
    """

    generators: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.names):
            raise ValueError("one name per generator")
        S = sg.minimal_generators(list(self.generators))
        if set(S.generators) != set(self.generators) or \
                len(self.generators) != len(set(self.generators)):
            raise ValueError(
                f"{list(self.generators)} is not a minimal generating set")

    @property
    def semigroup(self) -> sg.NumericalSemigroup:
        return sg.NumericalSemigroup(tuple(sorted(self.generators)))

    @property
    def nvars(self) -> int:
        return len(self.generators)


def curve(raw_generators: list[int] | tuple[int, ...]) -> MonomialCurve:
    """Curve on the minimal generators of <raw>, sorted, named x1..xk."""
    S = sg.minimal_generators(list(raw_generators))
    names = tuple(f"x{i + 1}" for i in range(len(S.generators)))
    return MonomialCurve(S.generators, names)


def defining_ideal(C: MonomialCurve) -> list[Polynomial]:
    """Generators of the kernel of x_i -> t^{n_i}, as monic binomials.

    Eliminates the parameter from <x_i - t^{n_i}> under a block order, keeps
    the parameter-free part, interreduces, and prunes generators that lie in
    the ideal of the others.  Every output is checked against the semigroup
    grading before being returned.
    """
    k = C.nvars
    nvars = k + 1  # slot 0 is the parameter
    gens = []
    for i, n in enumerate(C.generators):
        t_pow = Polynomial.variable(0, nvars, n)
        xi = Polynomial.variable(i + 1, nvars)
        gens.append(xi - t_pow)
    order = elimination(nvars, {0})
    # interreducing first keeps the parameter degrees small: each x_i - t^n_i
    # rewrites against the smaller exponents before any pairs are formed
    gens = interreduce_global(gens, order)
    gb = buchberger(gens, order)

    eliminated = []
    for g in gb.elements:
        if all(m[0] == 0 for m in g.terms):
            eliminated.append(Polynomial({m[1:]: c for m, c in g.terms.items()}))
    xorder = degrevlex(k)
    eliminated = interreduce_global(eliminated, xorder)
    pruned = _prune_redundant(eliminated, xorder)
    for g in pruned:
        check_kernel_element(g, C)
    return [monic(g, xorder) for g in pruned]


def _prune_redundant(gens: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Greedily drop members of the ideal of the remaining generators."""
    kept = sorted(gens, key=lambda g: sorted(map(m_deg, g.terms)))
    i = len(kept) - 1
    while i >= 0 and len(kept) > 1:
        candidate = kept[i]
        rest = kept[:i] + kept[i + 1:]
        if is_member_global(candidate, rest, order):
            kept = rest
        i -= 1
    return kept


def check_kernel_element(g: Polynomial, C: MonomialCurve):
    """g is homogeneous for the semigroup grading and vanishes on the curve.

    Every monomial must carry the same semigroup value, and the coefficients
    must cancel, so that x_i -> t^{n_i} sends g to zero.
    """
    values = {sum(e * n for e, n in zip(m, C.generators)) for m in g.terms}
    if len(values) > 1:
        raise SelfCheckFailed(
            f"kernel element not homogeneous for the semigroup grading: "
            f"values {sorted(values)}")
    if sum(g.terms.values()) != 0:
        raise SelfCheckFailed(
            f"graded element of value {values.pop()} does not vanish on the "
            f"curve: coefficients sum to {sum(g.terms.values())}")


def minimal_generator_count(gens: list[Polynomial], nvars: int) -> int:
    """Size of a minimal generating set among ``gens``; the test reference.

    Precondition: every generator is homogeneous for one positive grading,
    as the semigroup grading makes every kernel and glued generator.  By
    graded Nakayama every irredundant generating set then has the same size,
    so the one greedy pass of ``_prune_redundant`` gives the count: each
    element it keeps was tested against a superset of the final rest.
    """
    return len(_prune_redundant([g for g in gens if not g.is_zero()],
                                degrevlex(nvars)))


def is_complete_intersection(C: MonomialCurve) -> bool:
    """True when the defining ideal needs exactly (variables - 1) generators;
    ``defining_ideal`` is graded and irredundant, so minimal (Nakayama)."""
    return len(defining_ideal(C)) == C.nvars - 1


def ideals_equal(gens_a: list[Polynomial], gens_b: list[Polynomial],
                 nvars: int) -> bool:
    """Mutual membership of generators through Groebner bases both ways."""
    order = degrevlex(nvars)
    gb_a = buchberger(gens_a, order) if gens_a else None
    gb_b = buchberger(gens_b, order) if gens_b else None
    if gb_a is None or gb_b is None:
        return not gens_a and not gens_b
    a_elems = list(gb_a.elements)
    b_elems = list(gb_b.elements)
    return (all(normal_form_global(g, a_elems, order).is_zero() for g in gens_b)
            and all(normal_form_global(g, b_elems, order).is_zero()
                    for g in gens_a))
