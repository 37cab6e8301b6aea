"""Statistical oracle: the sampled output moments of a machine.

A run of n samples stands for n independent input quadrature vectors,
each Gaussian with the coherent inputs' means mu_in and covariance
sigma^2 I, sigma^2 = 1/2, pushed through the machine's symplectic matrix
S and reduced to each output mode's sample means, variances and x-p
covariance.  The map is linear and the inputs Gaussian, so the joint law
of those statistics is known exactly, and :func:`simulate` draws them
from it (stream version 3) instead of drawing the samples.  With d = 2K
quadratures, the input sample mean is mu_in + sigma g / sqrt(n) with
g ~ N(0, I_d), and (n - 1) / sigma^2 times the input sample covariance
is Wishart(I_d, n - 1), independent of the mean and drawn as F F^T for
every n with one factor: F is d x r, r = min(d, n - 1), lower
trapezoidal, F_ii = sqrt(chi^2(n - 1 - i)), normals below the diagonal
(Bartlett; Uhlig for n - 1 < d; see :func:`_wishart_factor`).  The
output means are then S (mu_in + sigma g / sqrt(n)), each output
variance is sigma^2 / (n - 1) times a squared row norm of S F, and each
x-p covariance the same multiple of the product of the mode's two rows.
Every statistic, and so every z-score, has exactly the law it has under
per-sample draws, and a run costs O(d^2 min(n, d)) whatever n: the
sampler tests the same S against the same closed forms, but no
per-sample arithmetic runs.

One generator, ``np.random.default_rng(seed)``, draws g, then F's chi^2
diagonal (numpy's gamma sampler), then its normals row by row; for
n - 1 >= d these are stream version 2's draws.  The same arguments give
the same moments under one numpy version, platform and BLAS build and
thread count: numpy does not promise that its samplers keep their
output across versions, they call the platform's math library, and the
product S F may sum in a BLAS-build- and thread-dependent order.

Stream version 1 drew every sample: block b of BLOCK_SIZE samples took
its standard normals from a Philox generator keyed (seed, b), one (rows,
2K) array per block with mode m's x and p in columns 2m and 2m + 1.
:func:`block_normals` is its definition, and the test oracle
``tests/oracles.py::serial_simulate`` runs it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .canonical import CanonicalTransform, to_symplectic
from .errors import DomainError, require_finite, require_integer
from .gaussian import VACUUM_VARIANCE, _quadratures, coherent_fidelity, frozen_array
from .machine import MachineLayout, NoiseReport

# Samples per block of stream version 1.
BLOCK_SIZE = 1 << 17
STREAM_VERSION = 3
# z-scores at or above this many standard errors are flagged.
Z_FLAG = 5.0

_log = logging.getLogger(__name__)


def block_normals(seed: int, block_index: int, rows: int, cols: int) -> np.ndarray:
    """Standard normals of block ``block_index`` under stream version 1."""
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((rows, cols))


@dataclass(frozen=True)
class SampleConfig:
    """Sampling run parameters: integral ``sample_count`` in [2, 2^53], an
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
        # Past 2^53, n and n - 1 are no longer exact floats.
        if self.sample_count > 2**53:
            raise DomainError(
                f"sample_count must be <= 2^53, got {self.sample_count}"
            )
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True)
class EmpiricalMoments:
    """Per-mode empirical means and covariances with standard errors.

    ``means`` is (K, 2), ``covariances`` (K, 2, 2); ``mean_se`` and
    ``var_se`` give the standard errors of the mean and of the diagonal
    variances, the latter as var*sqrt(2/(n-1)).  Every entry must be
    finite.
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
            got = getattr(self, name)
            if got.shape != want:
                raise DomainError(f"{name} must have shape {want}, got {got.shape}")
            if not np.all(np.isfinite(got)):
                raise DomainError(f"{name} must be finite")

    @property
    def mode_count(self) -> int:
        return self.means.shape[0]


def _wishart_factor(gen: np.random.Generator, d: int, dof: int) -> np.ndarray:
    """The d x r factor F of F F^T ~ Wishart(I_d, dof), r = min(d, dof),
    filled in place: F_ii = sqrt(chi^2(dof - i)), normals below the
    diagonal, zeros above it (Bartlett, Proc. R. Soc. Edinburgh 53, 260
    (1933); Odell & Feiveson, JASA 61, 199 (1966)).  One law serves every
    dof (Uhlig, Ann. Statist. 22, 395 (1994)): LQ-factor the first r rows of
    G ~ N(0, 1)^{d x dof} as T Q.  T is the Bartlett factor, and for dof < d
    the other rows G_2 Q^T are normals, Q being orthogonal and independent
    of G_2, so F F^T has the law of G G^T.
    """
    r = min(d, dof)
    f = np.zeros((d, r))
    np.fill_diagonal(f, np.sqrt(gen.chisquare(dof - np.arange(r))))
    for i in range(1, d):
        gen.standard_normal(out=f[i, : min(i, r)])
    return f


def simulate(
    transform: CanonicalTransform,
    layout: MachineLayout,
    config: SampleConfig,
) -> EmpiricalMoments:
    """Empirical output moments of a machine fed its coherent inputs.

    The sample means, variances and x-p covariances of
    ``config.sample_count`` phase-space samples, drawn from their exact
    joint law as the module docstring describes.  A non-canonical
    transform is refused by :func:`~pciclone.canonical.to_symplectic`, and
    an amplitude whose float spacing exceeds the vacuum noise's standard
    deviation by :class:`DomainError`.
    """
    s = to_symplectic(transform).matrix
    if transform.mode_count != layout.total_modes:
        raise DomainError(
            f"transform has {transform.mode_count} modes, "
            f"layout expects {layout.total_modes}"
        )
    k = layout.total_modes
    mu_in = _quadratures(layout.input_amplitudes(config.psi)).reshape(-1)
    sigma = math.sqrt(VACUUM_VARIANCE)
    # Input samples spaced more coarsely than the vacuum noise could not
    # resolve it, so their moments are refused, not drawn.
    if np.spacing(np.max(np.abs(mu_in))) > sigma:
        raise DomainError(
            f"psi={config.psi} is too large for the samples to resolve the noise"
        )

    n = config.sample_count
    gen = np.random.default_rng(config.seed)
    g = gen.standard_normal(2 * k)
    f = _wishart_factor(gen, 2 * k, n - 1)
    _log.debug("sampling %d samples of %d modes from a %d x %d Wishart factor",
               n, k, *f.shape)
    # S F in column halves split at h = r // 2, the fewest flops: F's upper
    # right h x (r - h) block is zero.  Mode a's 2 x 2 block sums products
    # of its x and p rows of S F.
    h = f.shape[1] // 2
    parts = (np.matmul(s, f[:, :h]), np.matmul(s[:, h:], f[h:, h:]))
    covariances = (VACUUM_VARIANCE / (n - 1)) * sum(
        np.einsum("aik,ajk->aij", r, r) for r in (p.reshape(k, 2, -1) for p in parts)
    )
    var_pairs = np.diagonal(covariances, axis1=1, axis2=2)
    return EmpiricalMoments(
        sample_count=n,
        psi=config.psi,
        means=np.matmul(s, mu_in + (sigma / math.sqrt(n)) * g).reshape(k, 2),
        covariances=covariances,
        mean_se=np.sqrt(var_pairs / n),
        var_se=var_pairs * math.sqrt(2.0 / (n - 1)),
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
        """Largest |z| of the row; NaN if any z is NaN."""
        return float(np.max(np.abs([
            self.z_mean_x, self.z_mean_p, self.z_var_x, self.z_var_p, self.z_fidelity,
        ])))


@dataclass(frozen=True)
class ComparisonSummary:
    """All per-mode z-scores plus the overall verdict."""

    rows: tuple[ComparisonRow, ...]
    threshold: float
    max_abs_z: float
    passed: bool

    def flagged(self) -> list[int]:
        """Modes with a |z| above the threshold or a NaN z."""
        return [row.mode for row in self.rows if not row.max_abs_z <= self.threshold]

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
    n_j = (s_x + s_p - 1)/2.  Any |z| > threshold, or a NaN z, fails the
    summary.
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
    ))
    rows = tuple(
        ComparisonRow(mode, roles[mode], *z) for mode, z in enumerate(table.tolist())
    )
    # np.max, unlike max, keeps a NaN wherever it stands, so a NaN fails.
    max_abs_z = float(np.max(np.abs(table)))
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
