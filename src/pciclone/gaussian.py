"""Multimode Gaussian states as first and second quadrature moments.

Conventions (hbar = 1): a mode's annihilation operator relates to its
quadratures by a = (x + ip)/sqrt(2), so a vacuum or coherent state has
quadrature variance 1/2.  Quadratures are interleaved as
(x_1, p_1, ..., x_K, p_K), which keeps the symplectic form block-diagonal.

All objects are immutable after construction; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, _require_tolerance, require_finite, require_integer

# Default tolerance of the structural matrix identities.
STRUCTURAL_TOL = 1e-10

VACUUM_VARIANCE = 0.5

# Most rows of a panel of S in _support_plan, read by _omega_residuals and
# montecarlo.simulate, and the column panel edge of F in simulate; 128 to
# 384 ran within noise of each other, and 512 slower, for K = 1030 modes
# on a 2-CPU Xeon.  Diagonal strips of _TILE // 2 rows ran faster there
# than _TILE // 4 or whole diagonal tiles.
_TILE = 256


def symplectic_form(mode_count: int) -> np.ndarray:
    """Block-diagonal symplectic form Omega = diag([[0, 1], [-1, 0]], ...)."""
    require_integer(mode_count=mode_count)
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(mode_count), block)


def _even_cuts(start: int, stop: int, most: int) -> list[int]:
    """Edges that split the even range [start, stop) into the fewest
    pieces of at most ``most`` (even) rows, all even and within one mode
    (two rows) of each other in size."""
    modes = (stop - start) // 2
    count = max(-(-2 * modes // most), 1)
    return [start + 2 * (modes * i // count) for i in range(count + 1)]


def _runs(reach: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The (start, stop) runs of True in one row of mode columns."""
    edges = np.flatnonzero(np.diff(reach, prepend=False, append=False))
    return tuple(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _support_plan(reach: np.ndarray) -> tuple:
    """Row panels of a 2K x 2K map S with the mode columns they reach: a
    tuple of (start, stop, runs), runs the (start, stop) mode-column ranges
    outside which every entry of rows start:stop is exactly zero.  Row
    edges are even, so each panel holds whole modes.  ``reach`` is the
    K x K mode-level reach, True where S's 2 x 2 block (i, j) holds a
    nonzero entry: :func:`_block_reach` of S, or the same matrix read off
    the (M, L) that S is the image of.

    A block of consecutive mode rows that reach the same mode columns is
    cut into the fewest even panels of at most _TILE rows.  Blocks of
    fewer than _TILE // 8 rows, such as a machine's input ports and
    residual modes, are packed together into panels of at most _TILE rows
    reaching the union of their columns: a narrower panel would read the
    columns it shares with others for too few rows to pay for the pass.
    An S of at most _TILE rows is one panel with one full run, whatever
    ``reach`` holds.
    """
    dim = 2 * reach.shape[0]
    if dim <= _TILE:
        return ((0, dim, ((0, dim // 2),)),)
    edges = np.flatnonzero((reach[1:] != reach[:-1]).any(axis=1)) + 1
    bounds = [0, *edges.tolist(), reach.shape[0]]
    groups = []  # [first mode, stop mode, first mode of each block, short]
    for m0, m1 in zip(bounds[:-1], bounds[1:]):
        short = 2 * (m1 - m0) < _TILE // 8
        if short and groups and groups[-1][3] and 2 * (m1 - groups[-1][0]) <= _TILE:
            groups[-1][1] = m1
            groups[-1][2].append(m0)
        else:
            groups.append([m0, m1, [m0], short])
    panels = []
    for m0, m1, firsts, _ in groups:
        runs = _runs(np.logical_or.reduce(reach[firsts]))
        cuts = _even_cuts(2 * m0, 2 * m1, _TILE)
        panels += [(a, b, runs) for a, b in zip(cuts[:-1], cuts[1:])]
    return tuple(panels)


def _block_reach(s: np.ndarray) -> np.ndarray:
    """The mode-level reach of S: True where its 2 x 2 block (i, j) holds
    a nonzero entry.  NaN != 0, so a non-finite entry counts as reached."""
    # x and p columns are a pair of bytes of one uint16.
    nz = (s != 0).view(np.uint16)
    return (nz[0::2] | nz[1::2]) != 0


def _shared(runs, others) -> tuple[tuple[int, int], ...]:
    """The column ranges that two sorted run lists both cover."""
    out = []
    for a0, a1 in runs:
        for b0, b1 in others:
            lo, hi = max(a0, b0), min(a1, b1)
            if lo < hi:
                out.append((lo, hi))
    return tuple(out)


def _reduce_tile(e: np.ndarray) -> tuple[float, float]:
    """(max|e|, max over e's 2 x 2 blocks of max(|A_ij|, |B_ij|)) of a tile
    of E whose row and column edges are even, by the identity stated in
    :meth:`SymplecticMap.residual`; e is overwritten.  The hypot pairs are
    the parts of complex numbers, whose modulus numpy takes as hypot does,
    inf and NaN included, and several times faster; the two are formed
    one after the other in one array of a quarter of e's size."""
    xx, xp, px, pp = e[0::2, 0::2], e[0::2, 1::2], e[1::2, 0::2], e[1::2, 1::2]
    pair = np.empty(xx.shape, dtype=complex)
    np.add(xx, pp, out=pair.real)
    np.subtract(xp, px, out=pair.imag)
    first = np.max(np.abs(pair))
    np.subtract(xx, pp, out=pair.real)
    np.add(xp, px, out=pair.imag)
    # np.maximum, unlike max, keeps a NaN in either place.
    both = np.maximum(first, np.max(np.abs(pair)))
    return np.max(np.abs(e, out=e)), 0.5 * both


# A non-finite S gives NaN quietly: that NaN is the refusal.
@np.errstate(invalid="ignore", over="ignore")
def _omega_residuals(x: np.ndarray, y: np.ndarray, plan) -> tuple[float, float]:
    """(max|E|, commutation residual) of E = S Omega S^T - Omega, as
    :meth:`SymplecticMap.residual` states; NaN if E holds a NaN.

    E = X Y^T - Y X^T - Omega, X and Y the 2K x K x and p columns of S.
    Only the entries of X and Y in each panel's runs of ``plan``
    (:func:`_support_plan` of S) are read: the rest may hold anything.
    E is antisymmetric, so only its tiles E[I, J], J >= I, over the row
    panels are formed, each reduced before the next.  E[I, J] is summed
    only over the mode columns that panels I and J both reach, since every
    other product is of exact zeros, and neighbouring J with the same
    shared runs go into one product.  The diagonal tile is formed in
    strips of at most _TILE // 2 rows from the diagonal on, Omega
    subtracted there; strips are even, so each mode's own 2 x 2 block is
    formed whole.  A non-finite entry of panel I is in I's runs, so it
    reaches the diagonal tile and both residuals read NaN.  No array
    larger than one tile is made.
    """

    def reduced_tile(t0, t1, c0, c1, shared):
        # E[t0:t1, c0:c1] over the shared runs, reduced and dropped; a
        # diagonal strip (c0 == t0) has Omega subtracted first.
        e = None
        for a, b in shared:
            part = x[t0:t1, a:b] @ y[c0:c1, a:b].T
            part -= y[t0:t1, a:b] @ x[c0:c1, a:b].T
            if e is None:
                e = part
            else:
                e += part
        if e is None:
            e = np.zeros((t1 - t0, c1 - c0))
        if c0 == t0:
            # Omega's entries e[d, d + 1] = 1 and e[d + 1, d] = -1, d even,
            # lie 2 (width + 1) apart in the contiguous tile.
            width = e.shape[1]
            flat = e.reshape(-1)
            flat[1 : (t1 - t0) * width : 2 * (width + 1)] -= 1.0
            flat[width : (t1 - t0) * width : 2 * (width + 1)] += 1.0
        return _reduce_tile(e)

    results = []
    for i, (r0, r1, runs) in enumerate(plan):
        # Neighbouring J panels with the same shared runs: the first
        # group starts at the diagonal tile, which shares all of I's runs.
        groups = [[r1, runs]]  # [stop row, shared runs]
        for _, c1, other in plan[i + 1 :]:
            shared = _shared(runs, other)
            if groups[-1][1] == shared:
                groups[-1][0] = c1
            else:
                groups.append([c1, shared])
        # The diagonal group in strips, each from its diagonal on.
        cuts = _even_cuts(r0, r1, _TILE // 2)
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            results.append(reduced_tile(t0, t1, t0, groups[0][0], runs))
        for (c0, _), (c1, shared) in zip(groups, groups[1:]):
            if shared:
                results.append(reduced_tile(r0, r1, c0, c1, shared))
    residual, commutation = np.max(results, axis=0)
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
    # The CanonicalTransform whose quadrature image S is, if any, set by
    # that transform alone: its residuals, read off (M, L), are the map's.
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

    @cached_property
    def _plan(self) -> tuple:
        """:func:`_support_plan` of S, read by :attr:`_residuals`."""
        return _support_plan(_block_reach(self.matrix))

    @cached_property
    def _residuals(self) -> tuple[float, float]:
        if self._transform is not None:
            return self._transform._residuals
        s, plan = self.matrix, self._plan
        # X and Y, written only in each panel's runs: a tile reads only
        # the runs its two panels share.
        x, y = np.empty((2, s.shape[0], s.shape[1] // 2))
        for r0, r1, runs in plan:
            for a, b in runs:
                x[r0:r1, a:b] = s[r0:r1, 2 * a : 2 * b : 2]
                y[r0:r1, a:b] = s[r0:r1, 2 * a + 1 : 2 * b : 2]
        return _omega_residuals(x, y, plan)

    def residual(self) -> float:
        """Max-norm deviation of S Omega S^T from Omega, computed on first
        use with the commutation residual of the transform S encodes; a
        transform's :attr:`~pciclone.canonical.CanonicalTransform.quadrature_image`
        reads both off the transform, which computed them without S.

        S Omega S^T = X Y^T - Y X^T, X and Y the columns of S acting on x
        and p, is antisymmetric: its tiles are formed from the diagonal on,
        over the row panels of S's support plan and only over the mode
        columns both panels reach, and each tile is read and dropped;
        Omega is never built.  A dense S costs about 4K^3 multiply-adds;
        a machine's, whose clone and anticlone rows share only the input
        columns, about a quarter of that.  Besides X and Y, which together
        are the size of S, no array larger than one tile is made.
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
