"""Tangent cone of a monomial curve and the Cohen-Macaulay decision.

A minimal standard basis of the defining ideal under a local order whose
lowest variable carries the smallest semigroup generator decides everything:
the cone is Cohen-Macaulay exactly when no basis leading monomial is
divisible by that lowest variable.  The basis is kept as the exponent pairs
``(lead, trail)`` that ``toric.curve_standard_basis`` computed, so the
leading monomials are the leads the completion chose.  The cone generators
(the least-degree forms) serve reporting and cross-validation only and are
built as ``Polynomial``s when read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPriority
from .polyalg import (Mono, MonomialOrder, Polynomial, least_degree_form,
                      negdegrevlex)
from .toric import (Binomial, MonomialCurve, as_polynomial,
                    curve_standard_basis, defining_ideal)


@dataclass(frozen=True)
class TangentConeReport:
    curve: MonomialCurve
    order: MonomialOrder
    basis: tuple[Binomial, ...]
    lm_set: tuple[Mono, ...]
    is_cohen_macaulay: bool
    witness: Binomial | None  # basis element breaking CM, if any

    @property
    def cone_generators(self) -> tuple[Polynomial, ...]:
        """Least-degree forms of the basis; they generate the cone ideal."""
        return tuple(least_degree_form(as_polynomial(g)) for g in self.basis)


def canonical_priority(C: MonomialCurve) -> tuple[int, ...]:
    """Variables sorted by descending generator value; smallest value last."""
    return tuple(sorted(range(C.nvars), key=lambda v: -C.generators[v]))


def tangent_cone(C: MonomialCurve,
                 priority: tuple[int, ...] | None = None,
                 ideal_gens: list[Binomial] | None = None) -> TangentConeReport:
    """Standard-basis analysis of the cone at the origin.

    ``priority`` may reorder the upper variables but must keep the variable
    of the smallest generator lowest; ``ideal_gens`` can supply a known
    generating set of the defining ideal, as exponent pairs, to skip the
    elimination step.
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
    basis = tuple(curve_standard_basis(gens, order))
    witness = next((g for g in basis if g[0][smallest]), None)
    return TangentConeReport(
        curve=C,
        order=order,
        basis=basis,
        lm_set=tuple(lead for lead, _ in basis),
        is_cohen_macaulay=witness is None,
        witness=witness,
    )
