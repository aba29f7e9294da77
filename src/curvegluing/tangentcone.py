"""Tangent cone of a monomial curve and the Cohen-Macaulay decision.

A minimal standard basis of the defining ideal under a local order whose
lowest variable carries the smallest semigroup generator decides everything:
the cone is Cohen-Macaulay exactly when no basis leading monomial is
divisible by that lowest variable, as the completion recorded them
(``BasisResult.leads``).  The cone generators (the least-degree forms) serve
reporting and cross-validation only and are computed when read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import BasisResult, standard_basis
from .errors import InvalidPriority, MonomialTimesUnit
from .polyalg import (Mono, MonomialOrder, Polynomial, least_degree_form,
                      negdegrevlex)
from .toric import (MonomialCurve, _complete_binomials, as_binomials,
                    defining_ideal)


@dataclass(frozen=True)
class TangentConeReport:
    curve: MonomialCurve
    order: MonomialOrder
    basis: BasisResult
    lm_set: tuple[Mono, ...]
    is_cohen_macaulay: bool
    witness: Polynomial | None  # basis element breaking CM, if any

    @property
    def cone_generators(self) -> tuple[Polynomial, ...]:
        """Least-degree forms of the basis; they generate the cone ideal."""
        return tuple(least_degree_form(g) for g in self.basis.elements)


def canonical_priority(C: MonomialCurve) -> tuple[int, ...]:
    """Variables sorted by descending generator value; smallest value last."""
    return tuple(sorted(range(C.nvars), key=lambda v: -C.generators[v]))


def tangent_cone(C: MonomialCurve,
                 priority: tuple[int, ...] | None = None,
                 ideal_gens: list[Polynomial] | None = None) -> TangentConeReport:
    """Standard-basis analysis of the cone at the origin.

    ``priority`` may reorder the upper variables but must keep the variable
    of the smallest generator lowest; ``ideal_gens`` can supply a known
    generating set of the defining ideal to skip the elimination step.
    """
    if priority is None:
        priority = canonical_priority(C)
    smallest = min(range(C.nvars), key=lambda v: C.generators[v])
    if priority[-1] != smallest:
        raise InvalidPriority(
            f"lowest-priority variable must be {C.names[smallest]} "
            f"(smallest generator {C.generators[smallest]})")
    order = negdegrevlex(C.nvars, priority)
    gens = defining_ideal(C) if ideal_gens is None else ideal_gens
    basis = curve_standard_basis(gens, order)
    witness = next((g for g, m in zip(basis.elements, basis.leads)
                    if m[smallest]), None)
    return TangentConeReport(
        curve=C,
        order=order,
        basis=basis,
        lm_set=basis.leads,
        is_cohen_macaulay=witness is None,
        witness=witness,
    )


def curve_standard_basis(gens: list[Polynomial],
                         order: MonomialOrder) -> BasisResult:
    """``basis.standard_basis``, computed on exponent pairs when every
    generator is a pure difference binomial (a curve's ideal always is).

    On a curve's ideal the exponent-pair loop never meets a monomial times
    a unit, so :class:`MonomialTimesUnit` here is a bug and reaches the
    caller as the ``SelfCheckFailed`` it is.
    """
    key = order.key
    pairs = as_binomials(gens, key)
    if pairs is None:
        return standard_basis(gens, order)
    basis = _complete_binomials(pairs, key, local=True)
    return BasisResult(tuple(Polynomial({lead: 1, trail: -1}, _clean=False)
                             for lead, trail in basis),
                       order, tuple(lead for lead, _ in basis))


def local_standard_basis(gens: list[Polynomial],
                         order: MonomialOrder) -> BasisResult:
    """``curve_standard_basis`` for any generators.

    Pure difference binomials of an ideal that is not graded, such as
    1 - x1, can meet a monomial times a unit, which the exponent-pair loop
    refuses; ``basis.standard_basis`` then computes the basis.
    """
    try:
        return curve_standard_basis(gens, order)
    except MonomialTimesUnit:
        return standard_basis(gens, order)


def cone_generators(C: MonomialCurve,
                    priority: tuple[int, ...] | None = None) -> list[Polynomial]:
    """Least-degree forms of a minimal standard basis; they generate the cone ideal."""
    return list(tangent_cone(C, priority).cone_generators)
