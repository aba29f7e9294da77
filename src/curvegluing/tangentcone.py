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

from .basis import BasisResult
from .errors import InvalidPriority
from .polyalg import (Mono, MonomialOrder, Polynomial, least_degree_form,
                      negdegrevlex)
from .toric import MonomialCurve, curve_standard_basis, defining_ideal


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
    generating set of the defining ideal to skip the elimination step.  Its
    generators must be pure difference binomials x^a - x^b, as a curve's
    ideal is generated (``toric.curve_standard_basis``); any other raises
    ``NonBinomialGenerator``.
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
