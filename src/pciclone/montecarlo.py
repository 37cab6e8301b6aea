"""Statistical oracle: push phase-space samples through a machine.

For Gaussian inputs and linear mode transforms, sampling each input
quadrature pair from a Gaussian with the mode's mean and covariance
(1/2)I and applying the symplectic map to every sample reproduces the
exact output moments in expectation, so empirical moments converge to
the analytic predictions without any method bias.

Sample streams are versioned and reproducible: the run is split into
fixed-size blocks and block ``b`` draws its standard normals from a
Philox generator keyed (seed, b).  Layout version 1 draws one
(rows, 2K) array per block, samples along rows, mode m's x and p in
columns 2m and 2m+1; :func:`block_normals` is its definition.  Philox
is counter-based, so every key is an independent stream and blocks can
be sampled concurrently: a run of several blocks samples up to two at
once on a thread pool, each block drawn and transformed CHUNK_ROWS rows
at a time into its one output array, and merges the block moments in
block order with the pooled mean/covariance update, so a blockwise run
equals a single pass over the concatenated samples up to rounding.  A
run of one block draws and transforms it whole.

The draws are bit-reproducible on every platform.  The sampled moments
are bit-reproducible for a fixed BLAS build and thread count, whatever
the CPU or worker count, since the blocks merge in a fixed order.  The
transform is a BLAS product, whose summation order can depend on the
thread count and on the product's shape.  With OpenBLAS 0.3.31,
(N, N', M) = (4, 4, 512), K = 1030 modes, gives different moment bits
under 1 and 2 threads; machines of up to K = 134 modes gave the same
bits.  A CHUNK_ROWS-row product gave the bits of the whole-block product
on every machine of up to K = 70 modes tried, but not at K = 134, where
the rows at the end of each chunk differ in the last place.
"""

from __future__ import annotations

import logging
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .canonical import CanonicalTransform, to_symplectic
from .errors import DomainError, require_finite, require_integer
from .gaussian import VACUUM_VARIANCE, _quadratures, coherent_fidelity, frozen_array
from .machine import MachineLayout, NoiseReport

BLOCK_SIZE = 1 << 17
STREAM_VERSION = 1
# Rows drawn and transformed at a time in a run of several blocks.  With
# OpenBLAS 0.3.31 and K = 14 modes, a product of up to 512 rows runs on
# one BLAS thread, so the blocks sampled at once do not contend with
# BLAS's own threads: 2^20 samples took 0.54 s in 512-row chunks, 1.24 s
# and 1.06 s in 1024- and 4096-row chunks, and 0.83 s in whole blocks,
# on 2 CPUs with 2 BLAS threads.
CHUNK_ROWS = 512
# Blocks sampled at once.  Each holds its (rows, 2K) output and one
# chunk of draws, so two together hold about as much as one block drawn
# whole, draws and output.
MAX_WORKERS = 2
# z-scores at or above this many standard errors are flagged.
Z_FLAG = 5.0

_log = logging.getLogger(__name__)


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    # The stream-version-1 key rule: block b of a run draws from Philox
    # keyed (seed, b).
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_normals(seed: int, block_index: int, rows: int, cols: int) -> np.ndarray:
    """Standard normals of block ``block_index`` under stream version 1."""
    return _block_generator(seed, block_index).standard_normal((rows, cols))


def _cpu_count() -> int:
    # The CPUs this process may run on, which can be fewer than the machine's.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sampling_plan(sample_count: int) -> tuple[int, int]:
    """(block count, worker count) of a run of ``sample_count`` samples."""
    blocks = -(-sample_count // BLOCK_SIZE)
    return blocks, min(MAX_WORKERS, _cpu_count(), blocks)


@dataclass(frozen=True)
class SampleConfig:
    """Sampling run parameters: integral ``sample_count`` >= 2, an
    integral ``seed`` in [0, 2^64), and a finite amplitude ``psi``."""

    sample_count: int
    seed: int
    psi: complex = 0j

    def __post_init__(self):
        require_integer(sample_count=self.sample_count, seed=self.seed)
        require_finite(psi=self.psi)
        if self.sample_count < 2:
            raise DomainError(
                f"sample_count must be >= 2 to estimate variances, "
                f"got {self.sample_count}"
            )
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True)
class EmpiricalMoments:
    """Per-mode empirical means and covariances with standard errors.

    ``means`` is (K, 2), ``covariances`` (K, 2, 2); ``mean_se`` and
    ``var_se`` give the standard errors of the mean and of the diagonal
    variances, the latter as var*sqrt(2/(n-1)).
    """

    sample_count: int
    psi: complex
    means: np.ndarray
    covariances: np.ndarray
    mean_se: np.ndarray
    var_se: np.ndarray

    def __post_init__(self):
        for name in ("means", "covariances", "mean_se", "var_se"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), float))
        k = self.means.shape[0]
        shapes = {
            "means": (k, 2),
            "covariances": (k, 2, 2),
            "mean_se": (k, 2),
            "var_se": (k, 2),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise DomainError(f"{name} must have shape {want}, got {got}")

    @property
    def mode_count(self) -> int:
        return self.means.shape[0]


def _merge_blocks(acc, block):
    # Pooled update for (count, mean, centered square sums, centered
    # cross sums); associative with fixed order, so blockwise equals a
    # single pass up to rounding.
    n1, mu1, sq1, cross1 = acc
    n2, mu2, sq2, cross2 = block
    n = n1 + n2
    delta = mu2 - mu1
    w = n1 * n2 / n
    mu = mu1 + delta * (n2 / n)
    sq = sq1 + sq2 + w * delta * delta
    cross = cross1 + cross2 + w * delta[0::2] * delta[1::2]
    return n, mu, sq, cross


def _draw_block(seed, block_index, mu_in, sigma, s_t, y, z):
    """Fill ``y`` with block ``block_index`` of samples pushed through the
    map, (sigma z + mu_in) s_t, drawing the block's normals ``len(z)``
    rows at a time into the scratch array ``z``; returns ``y``."""
    gen = _block_generator(seed, block_index)
    for start in range(0, len(y), len(z)):
        chunk = z[: len(y) - start]
        gen.standard_normal(out=chunk)
        chunk *= sigma
        chunk += mu_in
        np.matmul(chunk, s_t, out=y[start : start + len(chunk)])
    return y


def _block_moments(*draw_args):
    """(count, mean, centred square sums, centred x-p cross sums) of the
    block :func:`_draw_block` writes for ``draw_args``, reduced in two
    passes: mean first, then moments of the mean-centred samples, which
    stay accurate for large input amplitudes."""
    y = _draw_block(*draw_args)
    mu = y.mean(axis=0)
    y -= mu
    sq = np.einsum("ij,ij->j", y, y)
    cross = np.einsum("ij,ij->j", y[:, 0::2], y[:, 1::2])
    return float(len(y)), mu, sq, cross


def simulate(
    transform: CanonicalTransform,
    layout: MachineLayout,
    config: SampleConfig,
) -> EmpiricalMoments:
    """Empirical output moments of a machine fed its coherent inputs.

    Each block is generated, transformed, and reduced in two passes
    (mean first, then moments of the mean-centered samples, which stay
    accurate for large input amplitudes), up to MAX_WORKERS blocks at
    once on a thread pool; blocks merge in order.  Identical arguments
    give bit-identical results, whatever the number of CPUs.  An
    exception raised while sampling a block reaches the caller unchanged,
    and no later block is started.  A non-canonical transform is refused
    by :func:`~pciclone.canonical.to_symplectic`, and an amplitude whose
    float spacing exceeds the vacuum noise's standard deviation, or
    degenerate sampled variances, by :class:`DomainError`.
    """
    s_t = to_symplectic(transform).matrix.T
    if transform.mode_count != layout.total_modes:
        raise DomainError(
            f"transform has {transform.mode_count} modes, "
            f"layout expects {layout.total_modes}"
        )
    k = layout.total_modes
    mu_in = _quadratures(layout.input_amplitudes(config.psi)).reshape(-1)
    sigma = math.sqrt(0.5)
    # Samples spaced more coarsely than the vacuum noise cannot resolve it.
    if np.spacing(np.max(np.abs(mu_in))) > sigma:
        raise DomainError(
            f"psi={config.psi} is too large for the samples to resolve the noise"
        )

    blocks, workers = _sampling_plan(config.sample_count)
    block_rows = min(BLOCK_SIZE, config.sample_count)
    # One block is drawn and transformed whole, as one draw and one product.
    chunk_rows = CHUNK_ROWS if blocks > 1 else block_rows
    _log.debug(
        "sampling %d samples of %d modes: %d blocks, %d workers, %d-row chunks",
        config.sample_count, k, blocks, workers, chunk_rows,
    )
    # Each block in flight writes its own output and scratch arrays, made
    # here once and reused: block b takes set b % workers, whose previous
    # block has been merged by then.  Blocks allocated in the worker
    # threads would be freed into per-thread malloc arenas, which made the
    # peak RSS of a 40 s verify_deep run vary from 96 to 152 MB.
    buffers = [
        (np.empty((block_rows, 2 * k)), np.empty((chunk_rows, 2 * k)))
        for _ in range(workers)
    ]
    acc = (0.0, np.zeros(2 * k), np.zeros(2 * k), np.zeros(k))
    # At most ``workers`` blocks are submitted and not yet merged, so no
    # block waits in the pool's queue and at most that many hold samples.
    pool = ThreadPoolExecutor(workers, thread_name_prefix="pciclone-sample")
    in_flight = deque()
    try:
        for block_index, start in enumerate(range(0, config.sample_count, BLOCK_SIZE)):
            if len(in_flight) == workers:
                acc = _merge_blocks(acc, in_flight.popleft().result())
            y, z = buffers[block_index % workers]
            rows = min(BLOCK_SIZE, config.sample_count - start)
            in_flight.append(pool.submit(
                _block_moments, config.seed, block_index, mu_in, sigma, s_t,
                y[:rows], z,
            ))
        while in_flight:
            acc = _merge_blocks(acc, in_flight.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)

    n, mu, sq, cross = acc
    var = sq / (n - 1.0)
    # Every output mode carries at least vacuum noise, so a zero,
    # infinite or NaN sample variance means the samples did not resolve
    # that noise next to the means (|psi| too large for float spacing).
    if not np.all((0.0 < var) & (var < math.inf)):
        raise DomainError(
            f"sampled variances are degenerate at psi={config.psi}: the "
            f"amplitude is too large for the samples to resolve the noise"
        )
    cov_xp = cross / (n - 1.0)
    covariances = np.empty((k, 2, 2))
    covariances[:, 0, 0] = var[0::2]
    covariances[:, 1, 1] = var[1::2]
    covariances[:, 0, 1] = covariances[:, 1, 0] = cov_xp
    var_pairs = var.reshape(k, 2)
    return EmpiricalMoments(
        sample_count=config.sample_count,
        psi=config.psi,
        means=mu.reshape(k, 2),
        covariances=covariances,
        mean_se=np.sqrt(var_pairs / n),
        var_se=var_pairs * math.sqrt(2.0 / (n - 1.0)),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """z-scores of one output mode against its analytic prediction."""

    mode: int
    role: str
    z_mean_x: float
    z_mean_p: float
    z_var_x: float
    z_var_p: float
    z_fidelity: float

    @property
    def max_abs_z(self) -> float:
        return max(
            abs(self.z_mean_x),
            abs(self.z_mean_p),
            abs(self.z_var_x),
            abs(self.z_var_p),
            abs(self.z_fidelity),
        )


@dataclass(frozen=True)
class ComparisonSummary:
    """All per-mode z-scores plus the overall verdict."""

    rows: tuple[ComparisonRow, ...]
    threshold: float
    max_abs_z: float
    passed: bool

    def flagged(self) -> list[int]:
        return [row.mode for row in self.rows if row.max_abs_z > self.threshold]

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["rows"] = list(doc["rows"])
        return doc


def _z(diff: np.ndarray, se: np.ndarray) -> np.ndarray:
    # diff / se entrywise; where se == 0, 0 if diff == 0 and inf otherwise.
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / se
    return np.where(se == 0.0, np.where(diff == 0.0, 0.0, math.inf), z)


def compare_to_analytic(
    emp: EmpiricalMoments,
    report: NoiseReport,
    layout: MachineLayout,
    threshold: float = Z_FLAG,
) -> ComparisonSummary:
    """z-scores of empirical moments against the closed-form predictions.

    Mode j is predicted to have amplitude a_j, variance v_j and fidelity
    f_j: psi and the report's clone values on clones, psi* and its
    anticlone values on anticlones, and the vacuum's 0, 1/2 and 1 on
    residual modes.  With sampled means m and variances s, and z(d, se) =
    d/se (0 if d = se = 0, inf if only se = 0), the mode's row holds

        z_mean_x = z(m_x - sqrt(2) Re a_j, se(m_x)), z_mean_p likewise
        z_var_x = z(s_x - v_j, se(s_x)), z_var_p likewise
        z_fidelity = z(F_j - f_j, hypot(se(s_x), se(s_p)) / (2 (1 + n_j)^2))

    with F_j the sampled state's :func:`~pciclone.gaussian.coherent_fidelity`
    with |a_j> and its error from the delta method through F = 1/(1 + n),
    n_j = (s_x + s_p - 1)/2.  Any |z| > threshold fails the summary.
    """
    if emp.mode_count != layout.total_modes:
        raise DomainError(
            f"moments cover {emp.mode_count} modes, layout has {layout.total_modes}"
        )
    if layout.anticlone_slots and report.var_anticlone is None:
        raise DomainError("layout has anticlones but the report carries none")

    # The layout's output roles partition the modes: what is neither a
    # clone nor an anticlone is a residual mode, predicted to be vacuum.
    k = layout.total_modes
    roles = np.full(k, "residual", dtype=object)
    amp = np.zeros(k, dtype=complex)
    var_pred = np.full(k, VACUUM_VARIANCE)
    f_pred = np.ones(k)
    for role, slots, a, v, f in (
        ("clone", layout.clone_slots, emp.psi, report.var_clone, report.f_clone),
        ("anticlone", layout.anticlone_slots, emp.psi.conjugate(),
         report.var_anticlone, report.f_anticlone),
    ):
        idx = list(slots)
        roles[idx], amp[idx], var_pred[idx], f_pred[idx] = role, a, v, f

    var = np.diagonal(emp.covariances, axis1=1, axis2=2)
    mean_pred = _quadratures(amp)
    f_emp = coherent_fidelity(emp.means, emp.covariances, amp)
    n_th_emp = 0.5 * (var[:, 0] + var[:, 1]) - 0.5
    # (1 + n)^2 overflows once n passes about 1.3e154; dividing by 1 + n
    # twice keeps the error finite there, and the square keeps its bits
    # everywhere else.
    one_plus_n = 1.0 + n_th_emp
    half_hypot = 0.5 * np.hypot(*emp.var_se.T)
    with np.errstate(over="ignore"):
        square = one_plus_n**2
    se_f = np.where(
        square < math.inf, half_hypot / square, half_hypot / one_plus_n / one_plus_n
    )
    table = np.column_stack((
        _z(emp.means - mean_pred, emp.mean_se),
        _z(var - var_pred[:, None], emp.var_se),
        _z(f_emp - f_pred, se_f),
    )).tolist()
    rows = tuple(ComparisonRow(mode, roles[mode], *z) for mode, z in enumerate(table))
    max_abs_z = float(max(row.max_abs_z for row in rows))
    return ComparisonSummary(
        rows=rows,
        threshold=threshold,
        max_abs_z=max_abs_z,
        passed=max_abs_z <= threshold,
    )


__all__ = [
    "BLOCK_SIZE",
    "STREAM_VERSION",
    "Z_FLAG",
    "ComparisonRow",
    "ComparisonSummary",
    "EmpiricalMoments",
    "SampleConfig",
    "block_normals",
    "compare_to_analytic",
    "simulate",
]
