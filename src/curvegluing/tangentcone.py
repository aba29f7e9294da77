"""Tangent cone of a monomial curve and the Cohen-Macaulay decision.

A minimal standard basis of the defining ideal under a local order whose
lowest variable carries the smallest semigroup generator decides everything:
the cone is Cohen-Macaulay exactly when no basis leading monomial is
divisible by that lowest variable.  The cone generators themselves (the
least-degree forms) are produced for reporting and cross-validation only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import BasisResult, standard_basis
from .errors import InvalidPriority
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
    cone_generators: tuple[Polynomial, ...]
    is_cohen_macaulay: bool
    witness: Polynomial | None  # basis element breaking CM, if any


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
    basis = local_standard_basis(gens, order)
    lms = tuple(basis.leading_monomials())

    witness = None
    for g, m in zip(basis.elements, lms):
        if m[smallest] > 0:
            witness = g
            break
    cone_gens = tuple(least_degree_form(g) for g in basis.elements)
    return TangentConeReport(
        curve=C,
        order=order,
        basis=basis,
        lm_set=lms,
        cone_generators=cone_gens,
        is_cohen_macaulay=witness is None,
        witness=witness,
    )


def local_standard_basis(gens: list[Polynomial],
                         order: MonomialOrder) -> BasisResult:
    """``basis.standard_basis``, computed on exponent pairs when every
    generator is a pure difference binomial (a curve's ideal always is)."""
    key = order.key
    pairs = as_binomials(gens, key)
    if pairs is None:
        return standard_basis(gens, order)
    return BasisResult(
        tuple(Polynomial({lead: 1, trail: -1}, _clean=False) for lead, trail
              in _complete_binomials(pairs, key, local=True)),
        order, minimal=True)


def cone_generators(C: MonomialCurve,
                    priority: tuple[int, ...] | None = None) -> list[Polynomial]:
    """Least-degree forms of a minimal standard basis; they generate the cone ideal."""
    return list(tangent_cone(C, priority).cone_generators)
