"""Exception hierarchy. CLI exit codes: validation errors map to 2,
numerical/solver failures to 3."""

import numpy as np


class ExoloadError(Exception):
    """Base class for all package errors."""


class ValidationError(ExoloadError):
    """Malformed input, schema violation, or inconsistent configuration."""


class NumericalError(ExoloadError):
    """A computation failed to produce a usable result."""


class SolverError(NumericalError):
    """The QP solver did not converge."""


class InfeasibleBoundsError(SolverError):
    """Velocity bounds admit no feasible point."""


def require_finite(values, where: str) -> None:
    """Reject NaN and Inf, naming ``where`` and the first index (along axis 0)
    that holds one."""
    bad = ~np.isfinite(np.asarray(values, dtype=float))
    if bad.any():
        raise ValidationError(f"{where}: non-finite value at index {int(np.argwhere(bad)[0][0])}")


def finite_number(value: object, name: str) -> float:
    """A number read from a JSON file, as a float. Anything else, a bool or a
    string included, or a non-finite number, is a ``TypeError`` naming
    ``name``, which the file's reader turns into a ``ValidationError``
    naming the file."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = float("inf")
        if np.isfinite(number):
            return number
    raise TypeError(f"{name} must be a finite number, got {value!r}")
