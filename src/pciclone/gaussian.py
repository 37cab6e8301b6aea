"""Multimode Gaussian states as first and second quadrature moments.

Conventions (hbar = 1): a mode's annihilation operator relates to its
quadratures by a = (x + ip)/sqrt(2), so a vacuum or coherent state has
quadrature variance 1/2.  Quadratures are interleaved as
(x_1, p_1, ..., x_K, p_K), which keeps the symplectic form block-diagonal.

All objects are immutable after construction; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, _require_tolerance, require_finite, require_integer

# Default tolerance of the structural matrix identities.
STRUCTURAL_TOL = 1e-10

VACUUM_VARIANCE = 0.5

# Panel edge of _omega_residuals (rows of E) and of montecarlo.simulate
# (columns of F); 128 to 384 ran within noise of each other, and 512
# slower, for K = 1030 modes on a 2-CPU Xeon.
_TILE = 256


def symplectic_form(mode_count: int) -> np.ndarray:
    """Block-diagonal symplectic form Omega = diag([[0, 1], [-1, 0]], ...)."""
    require_integer(mode_count=mode_count)
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(mode_count), block)


# A non-finite S gives NaN quietly: that NaN is the refusal.
@np.errstate(invalid="ignore")
def _omega_residuals(s: np.ndarray) -> tuple[float, float]:
    """(max|E|, commutation residual) of E = S Omega S^T - Omega, as
    :meth:`SymplecticMap.residual` states; NaN if E holds a NaN.  E is
    antisymmetric, so it is formed _TILE rows at a time from the diagonal
    on, E[I, I:] = X_I Y_{I:}^T - Y_I X_{I:}^T with Omega subtracted on
    the diagonal block, and each panel is reduced before the next: besides
    the contiguous X and Y, no array larger than a panel is made.
    """
    x, y = np.ascontiguousarray(s[:, 0::2]), np.ascontiguousarray(s[:, 1::2])

    def panel(i):
        e = x[i : i + _TILE] @ y[i:].T
        e -= y[i : i + _TILE] @ x[i:].T
        diag = np.arange(0, e.shape[0], 2)
        e[diag, diag + 1] -= 1.0
        e[diag + 1, diag] += 1.0
        residual = np.max(np.abs(e))
        # Panel edges are even, so each panel holds whole 2 x 2 mode blocks.
        xx, xp, px, pp = e[0::2, 0::2], e[0::2, 1::2], e[1::2, 0::2], e[1::2, 1::2]
        two_a, two_b = np.hypot(xx + pp, xp - px), np.hypot(xx - pp, xp + px)
        return residual, 0.5 * np.max(np.maximum(two_a, two_b))

    residual, commutation = np.max(
        [panel(i) for i in range(0, s.shape[0], _TILE)], axis=0
    )
    # hypot(inf, nan) is inf, so a NaN in E reaches both through max|E|.
    return float(residual), float(residual if np.isnan(residual) else commutation)


def _quadratures(amplitudes) -> np.ndarray:
    """Mean quadratures sqrt(2) (Re a, Im a) of coherent amplitudes a, as
    an array of shape amplitudes.shape + (2,); a = (x + ip)/sqrt(2)."""
    amps = np.asarray(amplitudes, dtype=complex)
    return np.sqrt(2.0) * np.stack((amps.real, amps.imag), axis=-1)


def frozen_array(arr, dtype) -> np.ndarray:
    """``arr`` as a read-only, C-contiguous ``dtype`` array.  An array of
    that kind which owns its data has been handed over by its maker and
    is kept uncopied; anything else is copied."""
    arr = np.asarray(arr)
    f = arr.flags
    if arr.dtype == dtype and f.c_contiguous and f.owndata and not f.writeable:
        return arr
    out = np.array(arr, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``mode_count`` bosonic modes.

    mean is the length-2K vector of quadrature expectations and covariance
    the symmetric 2K x 2K second-moment matrix, both in the interleaved
    (x_1, p_1, ...) ordering.
    """

    mode_count: int
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        require_integer(mode_count=self.mode_count)
        if self.mode_count < 1:
            raise DomainError(f"mode_count must be >= 1, got {self.mode_count}")
        mean = frozen_array(np.asarray(self.mean).reshape(-1), float)
        cov = frozen_array(self.covariance, float)
        dim = 2 * self.mode_count
        if mean.shape != (dim,):
            raise DomainError(f"mean must have length {dim}, got {mean.shape}")
        if cov.shape != (dim, dim):
            raise DomainError(f"covariance must be {dim}x{dim}, got {cov.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    def validate(self, tol: float = STRUCTURAL_TOL) -> None:
        """Check finiteness, symmetry and V + (i/2)Omega >= 0."""
        _require_tolerance(tol)
        if not (np.isfinite(self.mean).all() and np.isfinite(self.covariance).all()):
            raise DomainError("mean and covariance must be finite")
        asym = np.max(np.abs(self.covariance - self.covariance.T))
        if not asym <= tol:
            raise DomainError(f"covariance asymmetry {asym:.3e} exceeds {tol:.1e}")
        omega = symplectic_form(self.mode_count)
        herm = self.covariance + 0.5j * omega
        min_eig = float(np.linalg.eigvalsh(herm).min())
        if min_eig < -tol:
            raise DomainError(
                f"covariance violates the uncertainty bound (min eig {min_eig:.3e})"
            )


@dataclass(frozen=True)
class SymplecticMap:
    """Linear quadrature map S with S Omega S^T = Omega."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = frozen_array(self.matrix, float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise DomainError(f"symplectic matrix must be 2Kx2K, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @property
    def mode_count(self) -> int:
        return self.matrix.shape[0] // 2

    @cached_property
    def _residuals(self) -> tuple[float, float]:
        return _omega_residuals(self.matrix)

    def residual(self) -> float:
        """Max-norm deviation of S Omega S^T from Omega, computed on first
        use with the commutation residual of the transform S encodes.

        S Omega S^T = X Y^T - Y X^T, X and Y the columns of S acting on x
        and p, is antisymmetric: its rows are formed in panels from the
        diagonal on, about the 8K^3 flops of one 2K x K x 2K product, and
        each panel is read and dropped; Omega is never built.
        For the image of b = M a + L a*, with A = M M^H - L L^H - I and
        B = M L^T - L M^T, E = S Omega S^T - Omega holds Exx = Im(A + B),
        Exp = Re(A - B), Epx = -Re(A + B) and Epp = Im(A - B) in its (i, j)
        block: |A_ij| = hypot(Exx + Epp, Exp - Epx)/2 and |B_ij| =
        hypot(Exx - Epp, Exp + Epx)/2, whose maximum is the commutation one.
        """
        return self._residuals[0]

    def validate(self, tol: float = STRUCTURAL_TOL) -> None:
        _require_tolerance(tol)
        res = self.residual()
        if not res <= tol:  # a NaN residual is refused too
            raise DomainError(f"symplectic residual {res:.3e} exceeds {tol:.1e}")


def vacuum_state(mode_count: int) -> GaussianState:
    """K-mode vacuum: zero mean, covariance (1/2) * identity."""
    require_integer(mode_count=mode_count)
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    dim = 2 * mode_count
    return GaussianState(mode_count, np.zeros(dim), VACUUM_VARIANCE * np.eye(dim))


def coherent_state(amplitudes: Sequence[complex]) -> GaussianState:
    """Product of coherent states with the given complex amplitudes.

    Mode j gets mean quadratures (sqrt(2) Re psi_j, sqrt(2) Im psi_j); the
    covariance is the vacuum one.  The sqrt(2) comes from a = (x + ip)/sqrt(2).
    """
    amps = np.asarray(list(amplitudes), dtype=complex)
    if amps.size == 0:
        raise DomainError("amplitude list must be non-empty")
    require_finite(**{f"amplitudes[{j}]": a for j, a in enumerate(amps.tolist())})
    mean = _quadratures(amps).reshape(-1)
    return GaussianState(amps.size, mean, VACUUM_VARIANCE * np.eye(2 * amps.size))


def apply_map(state: GaussianState, smap: SymplecticMap) -> GaussianState:
    """Propagate moments: mean -> S mean, covariance -> S cov S^T."""
    if smap.mode_count != state.mode_count:
        raise DomainError(
            f"map acts on {smap.mode_count} modes, state has {state.mode_count}"
        )
    s = smap.matrix
    return GaussianState(state.mode_count, s @ state.mean, s @ state.covariance @ s.T)


def marginal(state: GaussianState, modes: Sequence[int]) -> GaussianState:
    """Reduced state of the selected modes, in the order given."""
    modes = list(modes)
    if len(modes) == 0:
        raise DomainError("mode selection must be non-empty")
    if len(set(modes)) != len(modes):
        raise DomainError(f"repeated mode index in {modes}")
    for m in modes:
        require_integer(mode=m)
        if not 0 <= m < state.mode_count:
            raise DomainError(f"mode index {m} out of range [0, {state.mode_count})")
    idx = np.array([[2 * m, 2 * m + 1] for m in modes]).reshape(-1)
    return GaussianState(
        len(modes), state.mean[idx], state.covariance[np.ix_(idx, idx)]
    )


def quadrature_variance(state: GaussianState, mode: int) -> tuple[float, float]:
    """(Var x, Var p) of one mode."""
    require_integer(mode=mode)
    if not 0 <= mode < state.mode_count:
        raise DomainError(f"mode index {mode} out of range [0, {state.mode_count})")
    i = 2 * mode
    return float(state.covariance[i, i]), float(state.covariance[i + 1, i + 1])


def coherent_fidelity(
    means: np.ndarray, covariances: np.ndarray, targets
) -> np.ndarray:
    """Overlaps of single-mode states, means (..., 2) and covariances
    (..., 2, 2), with the coherent states |targets>: entrywise
    F = exp(-d^T (V + I/2)^{-1} d / 2) / sqrt(det(V + I/2)), with the 2x2
    inverse written out, for d = mean - sqrt(2) (Re target, Im target).
    For V = (1/2 + n) I and d = 0 this is exactly 1/(1 + n).
    """
    v = covariances + VACUUM_VARIANCE * np.eye(2)
    a, b, c, e = v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        det = a * e - b * c
    if (np.isfinite(v).all(axis=(-2, -1)) & ~np.isfinite(det)).any():
        raise DomainError("det(V + I/2) of a finite V overflows the float range")
    bad = ~((0.0 < det) & (det < np.inf))
    if bad.any():
        raise DomainError(f"V + I/2 is singular (det {det[bad][0]:.3e})")
    d = means - _quadratures(targets)
    dx, dp = d[..., 0], d[..., 1]
    quad = (e * dx * dx - (b + c) * dx * dp + a * dp * dp) / det
    return np.exp(-0.5 * quad) / np.sqrt(det)


def fidelity_with_coherent(
    state: GaussianState, mode: int, target: complex
) -> float:
    """:func:`coherent_fidelity` of one mode's reduced state."""
    require_finite(target=target)
    sub = marginal(state, [mode])
    return float(coherent_fidelity(sub.mean, sub.covariance, target))
