"""Multimode Gaussian states as first and second quadrature moments.

Conventions (hbar = 1): a mode's annihilation operator relates to its
quadratures by a = (x + ip)/sqrt(2), so a vacuum or coherent state has
quadrature variance 1/2.  Quadratures are interleaved as
(x_1, p_1, ..., x_K, p_K), which keeps the symplectic form block-diagonal.

All objects are immutable after construction; every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, _require_tolerance, require_finite, require_integer

# Default tolerance of the structural matrix identities.
STRUCTURAL_TOL = 1e-10

VACUUM_VARIANCE = 0.5

# Every canonicity certificate reads E = S Omega S^T - Omega off Gaussian
# probes v (Freivalds, IFIP Congress 1977; Halko, Martinsson & Tropp, SIAM
# Rev. 53, 217 (2011)): along E's top right singular vector v has a
# standard normal part, so ||E v|| < eps ||E||_2 with probability at most
# eps sqrt(2/pi), and the largest of _PROBES probe norms over eps bounds
# ||E||_2 except with probability (eps sqrt(2/pi))^_PROBES, below 1e-35.
# The probes come from a generator of their own, seeded by _PROBE_SEED,
# so one map always gets the same certificate.
_PROBES = 32
_PROBE_EPSILON = 0.1
_PROBE_SEED = 2001
_CERTIFICATE = {
    "method": "gaussian_probes",
    "probes": _PROBES,
    "epsilon": _PROBE_EPSILON,
    "miss_probability": (_PROBE_EPSILON * math.sqrt(2.0 / math.pi)) ** _PROBES,
}


def symplectic_form(mode_count: int) -> np.ndarray:
    """Block-diagonal symplectic form Omega = diag([[0, 1], [-1, 0]], ...)."""
    require_integer(mode_count=mode_count)
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(mode_count), block)


@np.errstate(invalid="ignore", over="ignore")  # a NaN or inf is the refusal
def _probe_bound(mode_count: int, push) -> float:
    """max_j ||E v_j|| / eps over the probes v_j of :data:`_CERTIFICATE`,
    an upper bound on the canonicity residuals of a map S of
    ``mode_count`` modes; NaN or inf if S holds one or overflows.

    ``push(a, transpose)`` turns each column alpha of a (K, cols) complex
    array into S (S^T with ``transpose``) acting on the quadratures
    (Re alpha, Im alpha), in place.  E v = S Omega S^T v - Omega v is one
    transposed and one forward push of all probes, Omega acting on
    alpha = x + ip as -i.  It bounds max|E_ij| and every |A_ij| and
    |B_ij| of the transform S is the image of (with A = M M^H - L L^H - I
    and B = M L^T - L M^T), since |A_ij| + |B_ij| is the spectral norm of
    E's (i, j) 2 x 2 block.
    """
    gen = np.random.default_rng(_PROBE_SEED)
    v = gen.standard_normal((mode_count, 2 * _PROBES)).view(complex)
    e = v.copy()
    push(e, True)
    e *= -1j
    push(e, False)
    e += 1j * v
    return float(np.max(np.linalg.norm(e, axis=0))) / _PROBE_EPSILON


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
    # The CanonicalTransform whose quadrature image S is, if any, set by
    # that transform alone: its bound, read off (M, L), is the map's.
    # Not an init field, so dataclasses.replace drops it.
    _transform: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = frozen_array(self.matrix, float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise DomainError(f"symplectic matrix must be 2Kx2K, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @property
    def mode_count(self) -> int:
        return self.matrix.shape[0] // 2

    def _push(self, a: np.ndarray, transpose: bool = False) -> None:
        """Turn each column of the (K, cols) complex array ``a`` into S
        (S^T with ``transpose``) acting on it as interleaved quadratures
        (Re a_1, Im a_1, ..., Re a_K, Im a_K), in place."""
        k = self.mode_count
        q = np.stack((a.real, a.imag), axis=1).reshape(2 * k, -1)
        q = (self.matrix.T if transpose else self.matrix) @ q
        a.real, a.imag = q[0::2], q[1::2]

    @cached_property
    def _bound(self) -> float:
        if self._transform is not None:
            return self._transform._bound
        return _probe_bound(self.mode_count, self._push)

    def residual(self) -> float:
        """Upper bound on the max-norm deviation of S Omega S^T from
        Omega, the probe bound of :data:`_CERTIFICATE`, computed on first
        use; NaN or inf for a map holding one.  A transform's
        :attr:`~pciclone.canonical.CanonicalTransform.quadrature_image`
        reports its transform's bound, read off (M, L) without S.
        Omega is never built.
        """
        return self._bound

    def validate(self, tol: float = STRUCTURAL_TOL) -> None:
        """Refuse S, by :class:`DomainError`, unless the upper bound
        :meth:`residual` is at most ``tol``; NaN and inf are refused."""
        _require_tolerance(tol)
        res = self.residual()
        if not res <= tol:
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
