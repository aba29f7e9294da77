"""Exception hierarchy shared by all modules.

Every domain error carries a stable ``code`` naming the violated clause,
so the CLI can report it without string-matching messages.
"""


class DomainError(ValueError):
    """Base class for all input/contract violations raised by this package."""

    code = "DomainError"

    def __init__(self, message=""):
        super().__init__(f"{self.code}: {message}" if message else self.code)


# ---------------------------------------------------------------- semigroup

class EmptyGenerators(DomainError):
    code = "Empty"


class GcdNotOne(DomainError):
    code = "GcdNotOne"


class NonPositiveGenerator(DomainError):
    code = "NonPositiveGenerator"


# ------------------------------------------------------------------- budget

class WorkBudgetExceeded(DomainError):
    """A request would allocate more than its fixed budget; raised before
    the allocation."""

    code = "WorkBudget"


# ------------------------------------------------------------------ polyalg

class ArityMismatch(DomainError):
    code = "ArityMismatch"


class ZeroPolynomial(DomainError):
    code = "ZeroPolynomial"


class MalformedPolynomial(DomainError):
    code = "MalformedPolynomial"


# -------------------------------------------------------------------- basis

class NonGlobalOrder(DomainError):
    code = "NonGlobalOrder"


class NonLocalOrder(DomainError):
    code = "NonLocalOrder"


# -------------------------------------------------------------------- toric

class NonHomogeneousBinomial(DomainError):
    code = "NonHomogeneousBinomial"


# ------------------------------------------------------------------ hilbert

class DimensionMismatch(DomainError):
    code = "DimensionMismatch"


# ------------------------------------------------------------- tangent cone

class InvalidPriority(DomainError):
    code = "InvalidPriority"


# ------------------------------------------------------------------- gluing

class GluingError(DomainError):
    code = "GluingError"


class GcdViolation(GluingError):
    code = "GcdViolation"


class PIsMinimalGenerator(GluingError):
    code = "PIsMinimalGenerator"


class QIsMinimalGenerator(GluingError):
    code = "QIsMinimalGenerator"


class NotInSemigroup(GluingError):
    code = "NotInSemigroup"


class GeneratorCollision(GluingError):
    code = "GeneratorCollision"


# --------------------------------------------------------------- scan config

class MalformedConfig(DomainError):
    code = "MalformedConfig"


class EmptyRange(MalformedConfig):
    code = "EmptyRange"


# ------------------------------------------------------------------ failures

class _Reproducible(RuntimeError):
    """A failure carrying a reproduction bundle so it can be replayed.

    The bundle lives in the instance ``__dict__``, which pickling keeps, so
    it survives the trip back from a process-pool worker.
    """

    def __init__(self, message="", bundle=None):
        super().__init__(message)
        self.bundle = bundle or {}


class SelfCheckFailed(_Reproducible):
    """An internal cross-validation failed; always a bug, never user error."""


class TheoremViolation(_Reproducible):
    """A verified instance falsified a theorem it should satisfy.

    Either an implementation defect or a publishable observation; the
    reproduction bundle is attached so the instance can be replayed.
    """
