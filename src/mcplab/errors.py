"""Exception types shared across the toolkit.

Every error raised on a documented failure path derives from McplabError so
callers (and the CLI) can distinguish "the computation told us no" from a
genuine bug.
"""


class McplabError(Exception):
    """Base class for all toolkit errors."""


class DomainError(McplabError, ValueError):
    """An argument is outside the documented domain of an operation."""


class ModelValidationError(McplabError, ValueError):
    """A frame/contact model violates a structural requirement.

    Carries the list of individual violations in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("model validation failed: " + "; ".join(self.violations))


class SingularityError(McplabError, ArithmeticError):
    """A closed-form expression was evaluated at a zero of its denominator.

    ``factor`` names the offending factor, e.g. ``"sin(c*t)"``.
    """

    def __init__(self, factor, message=None):
        self.factor = factor
        super().__init__(message or f"singular evaluation: {factor} vanishes")


class OutOfRegimeError(DomainError):
    """Parameters lie outside the regime where the quantity is defined."""


class DegenerateDirectionError(DomainError):
    """A geodesic direction has no horizontal part, so the adapted frame
    (and everything downstream of it) is undefined."""


class VelocitySpecError(DomainError):
    """An initial-velocity set is unusable, e.g. because too large a
    fraction of it focuses before the contraction ends."""
