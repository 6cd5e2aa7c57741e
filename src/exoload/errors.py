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
