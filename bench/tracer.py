"""Span tracer that wraps the public functions of each curvegluing layer.

The package binds names with ``from .x import y``, so one function object is
reachable from several modules (``basis.spoly`` and ``polyalg.spoly``,
``gluing.defining_ideal`` and ``toric.defining_ideal``, ...).  ``install``
replaces every binding of a traced function in every loaded ``curvegluing``
module and class, and ``unwrapped`` lists any binding it missed.

Spans are aggregated as they close: per function the call count, inclusive
time, self time (inclusive time minus the time of its direct child spans)
and the number of calls that raised.  A few functions also record a count
read from their result, named in ``OBSERVERS``.
"""

from __future__ import annotations

import sys
import time
from functools import update_wrapper

# (layer, owner, attribute): owner is None for a module-level function,
# otherwise the name of the class that defines the method
TARGETS = (
    ("semigroup", "NumericalSemigroup", "frobenius_and_apery"),
    ("semigroup", "NumericalSemigroup", "is_symmetric"),
    ("semigroup", "NumericalSemigroup", "all_representations"),
    ("semigroup", None, "minimal_generators"),
    ("polyalg", None, "spoly"),
    ("basis", None, "buchberger"),
    ("basis", None, "standard_basis"),
    ("basis", None, "is_member_global"),
    ("basis", None, "interreduce_global"),
    ("toric", None, "defining_ideal"),
    ("toric", None, "ideals_equal"),
    ("toric", None, "minimal_generator_count"),
    ("tangentcone", None, "tangent_cone"),
    ("hilbert", None, "hilbert_numerator"),
    ("hilbert", None, "local_hilbert_function"),
    ("gluing", None, "validate_gluing"),
    ("gluing", None, "glued_ideal"),
    ("gluing", None, "verify_instance"),
    ("gluing", None, "scan_family"),
    ("cli", None, "main"),
)


def _basis_size(span, args, result):
    span.counts["basis_size"] += len(result.elements)


def _member_true(span, args, result):
    span.counts["true"] += bool(result)


def _non_cm(span, args, result):
    span.counts["non_cm"] += not result.is_cohen_macaulay


def _sieve(span, args, result):
    # the Frobenius/Apéry sieve runs up to F + m, once per generator tuple
    gens = args[0].generators
    span.sieves[gens] = result[0] + gens[0]


OBSERVERS = {
    "basis.buchberger": _basis_size,
    "basis.standard_basis": _basis_size,
    "basis.is_member_global": _member_true,
    "tangentcone.tangent_cone": _non_cm,
    "semigroup.frobenius_and_apery": _sieve,
}

# per-call durations are kept only where latency percentiles are reported
KEEP_DURATIONS = {"gluing.verify_instance"}


class Span:
    """Running totals for one traced function."""

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.raised = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = {"basis_size": 0, "true": 0, "non_cm": 0}
        self.sieves: dict[tuple[int, ...], int] = {}
        self.durations: list[float] = []

    def as_dict(self) -> dict:
        return {"calls": self.calls, "raised": self.raised,
                "total_s": self.total_s, "self_s": self.self_s,
                "counts": dict(self.counts),
                "sieve_cells": sum(self.sieves.values()),
                "durations": self.durations}


class Tracer:
    """Wraps every binding of the ``TARGETS`` functions with timing spans."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._originals: set[int] = set()  # ids of the wrapped functions
        self._stack: list[float] = []  # child time of each open span

    def _wrap(self, fn, span: Span):
        stack = self._stack
        observe = OBSERVERS.get(span.name)
        keep = span.name in KEEP_DURATIONS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if keep:
                    span.durations.append(elapsed)
            if observe is not None:
                observe(span, args, result)
            return result

        update_wrapper(wrapper, fn)
        return wrapper

    def install(self) -> "Tracer":
        """Patch the traced functions in every loaded curvegluing module."""
        modules = _package_modules()
        replacements: dict[int, object] = {}
        for layer, owner, attr in TARGETS:
            home = sys.modules[f"curvegluing.{layer}"]
            container = getattr(home, owner) if owner else home
            fn = vars(container)[attr]
            span = Span(f"{layer}.{attr}")
            self.spans[span.name] = span
            self._originals.add(id(fn))
            replacements[id(fn)] = self._wrap(fn, span)
        for container in _containers(modules):
            for name, value in list(vars(container).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    setattr(container, name, wrapped)
        return self

    def unwrapped(self) -> list[str]:
        """Bindings that still hold an original traced function."""
        left = []
        for container in _containers(_package_modules()):
            for name, value in vars(container).items():
                if id(value) in self._originals:
                    left.append(f"{_label(container)}.{name}")
        return left

    def stats(self) -> dict:
        return {name: span.as_dict() for name, span in self.spans.items()}


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "curvegluing" or name.startswith("curvegluing.")]


def _label(container) -> str:
    if isinstance(container, type):
        return f"{container.__module__}.{container.__qualname__}"
    return container.__name__


def _containers(modules):
    """The modules and every class they define."""
    for mod in modules:
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value
