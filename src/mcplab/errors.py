"""Exception types shared across the toolkit, and the readers that raise
them on numeric input.

Every error raised on a documented failure path derives from McplabError so
callers (and the CLI) can distinguish "the computation told us no" from a
genuine bug.  The public functions and constructors of riccati, heisenberg,
mcp and frame_algebra read their numbers through _real (one finite real
number), _count (an integer-valued one) and _reals (an array of them): each
raises DomainError, naming the input, for a bool, a string, None, a complex,
a NaN or an infinity.  _require_finite refuses an output past float64 range.
numpy loads on their first use, as the command line checks its flags first.
"""

import math


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


def _float(value):
    """value as a float if it is one finite real number, else None: a numpy
    scalar or 0-d array of integer or float dtype, or a value that float()
    takes through __float__ (an int, a float, a Fraction) but no bool."""
    if type(value) is float:
        return value if math.isfinite(value) else None
    if type(value) is not int:
        dtype = getattr(value, "dtype", None)
        if dtype is None:
            if isinstance(value, bool) or not hasattr(value, "__float__"):
                return None
        elif dtype.kind not in "iuf" or value.ndim:
            return None
    try:
        value = float(value)
    except (OverflowError, ValueError):  # an integer past float64 range, or sNaN
        return None
    return value if math.isfinite(value) else None


def _span(lo, hi, closed):
    """[lo, hi], or (lo, hi) unless closed, as the end of a message."""
    if hi == math.inf:
        return "" if lo == -math.inf else f" {'>=' if closed else '>'} {lo}"
    left, right = "[]" if closed else "()"
    return f" in {left}{lo}, {hi}{right}"


def _real(value, what, lo=-math.inf, hi=math.inf, closed=False, error=DomainError):
    """value as a float if _float takes it and it lies in (lo, hi), or in
    [lo, hi] if closed; error naming what otherwise."""
    x = _float(value)
    if x is None or not (lo <= x <= hi if closed else lo < x < hi):
        raise error(f"{what} must be a finite real number{_span(lo, hi, closed)}, got {value!r}")
    return x


def _count(value, what, lo, hi=math.inf):
    """value as an int if _float takes it (2.0, not True), it is integer
    valued and it lies in [lo, hi]; DomainError naming what otherwise."""
    x = _float(value)
    if x is None or not x.is_integer() or not lo <= x <= hi:
        raise DomainError(f"{what} must be an integer{_span(lo, hi, True)}, got {value!r}")
    return int(value)


def _all_real(value):
    """Whether value is an ndarray of integer or float dtype, one number
    (_float), or lists and tuples of these, read one by one."""
    if isinstance(value, (list, tuple)):
        return all(map(_all_real, value))
    dtype = getattr(value, "dtype", None)
    if dtype is not None and value.ndim:
        return dtype.kind in "iuf"
    return _float(value) is not None


def _reals(value, what):
    """value as a float ndarray, not copied if it is one, if _all_real takes
    it and it stacks and is finite; DomainError naming what otherwise."""
    import numpy as np

    if _all_real(value):
        try:
            a = np.asarray(value, dtype=float)
            # count_nonzero takes half the time of ndarray.all on small arrays
            if np.count_nonzero(np.isfinite(a)) == a.size:
                return a
        except ValueError:  # ragged lists
            pass
    raise DomainError(f"{what} must be finite real numbers")


def _require_finite(values, what: str) -> None:
    """DomainError unless every value is finite: finite inputs that give
    an infinite or NaN value lie outside float range, not in a verdict."""
    import numpy as np

    if np.count_nonzero(np.isfinite(values)) != np.size(values):
        raise DomainError(f"{what} is not finite in float64 for these inputs")
