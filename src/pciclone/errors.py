"""Exception types shared across the package, and the argument checks."""

import cmath

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the operation's valid domain.

    Raised for invalid mode counts, attenuation-regime requests (more input
    replicas than clones), out-of-range indices, non-finite numbers, and
    corrupted state data.
    """


class ConvergenceError(RuntimeError):
    """A numerical solve ended on a point that fails its certificate."""


def require_finite(**values: complex) -> None:
    """Raise :class:`DomainError` naming the first value with a NaN or
    infinite (real or imaginary) part."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _require_tolerance(tol: float) -> None:
    """Raise :class:`DomainError` unless ``tol`` is finite and >= 0."""
    require_finite(tol=tol)
    if tol < 0:
        raise DomainError(f"tol must be >= 0, got {tol}")


def require_integer(**values: int) -> None:
    """Raise :class:`DomainError` naming the first value that is not an
    integer; bools and floats, even integral ones, are refused."""
    for name, value in values.items():
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")
