"""Exception types shared across the package, and the finiteness check."""

import math


class DomainError(ValueError):
    """An argument lies outside the operation's valid domain.

    Raised for invalid mode counts, attenuation-regime requests (more input
    replicas than clones), out-of-range indices, non-finite numbers, and
    corrupted state data.
    """


class ConvergenceError(RuntimeError):
    """A numerical solve ended on a point that fails its certificate."""


def require_finite(**values: float) -> None:
    """Raise :class:`DomainError` naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
