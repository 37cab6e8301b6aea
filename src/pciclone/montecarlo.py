"""Statistical oracle: the sampled output moments of a machine.

A run of n samples stands for n independent input quadrature vectors,
each Gaussian with the coherent inputs' means mu_in and covariance
sigma^2 I, sigma^2 = 1/2, pushed through the machine's symplectic matrix
S and reduced to each output mode's sample means, variances and x-p
covariance.  The map is linear and the inputs Gaussian, so the joint law
of those statistics is known exactly, and :func:`simulate` draws them
from it (stream version 5) instead of drawing the samples.  With d = 2K
quadratures, the input sample mean is mu_in + sigma g / sqrt(n) with
g ~ N(0, I_d), and (n - 1) / sigma^2 times the input sample covariance
is W ~ Wishart(I_d, nu), nu = n - 1, independent of the mean.  The output
means are then S (mu_in + sigma g / sqrt(n)), each output variance is
sigma^2 / nu times s W s^T for the mode's row s of S, and each x-p
covariance the same multiple of s W t^T for its two rows s and t.

Those statistics read W only in two blocks.  The machine's modes fall
into the replica block R (0 up to the first clone vacuum, both
amplifier ports among them), the clone vacua C and the anticlone vacua
A.  The clone distribution acts on port 0 and C alone and the anticlone
one on the other port and A alone, so every row of S is supported on R
and C or on R and A, and a statistic reads W[R+C, R+C] or W[R+A, R+A].
Write W = G G^T with G ~ N(0, 1)^{d x nu} and LQ-factor G's R rows as
T_R Q, Q completed to an orthogonal nu x nu matrix.  Given G's R rows,
its C rows and A rows times Q^T are independent normals, so the two
blocks have, jointly, the law of those of F' F'^T for

    F' = [[T_R, 0, 0], [N_C, T_C, 0], [N_A, 0, T_A]],

where T_R is R's Bartlett factor (r_R = min(d_R, nu) columns, chi^2(nu -
i) on the diagonal), N_C and N_A are normals, and T_C and T_A are the
Bartlett factors of C and A with nu - r_R degrees of freedom (Bartlett,
Proc. R. Soc. Edinburgh 53, 260 (1933); Uhlig, Ann. Statist. 22, 395
(1994), where nu is below a block's rows; see :func:`_factor_panel`).
Every sampled statistic, and so every z-score, has exactly the law it
has under per-sample draws, jointly across modes too: the sampler tests
the same S against the same closed forms, but no per-sample arithmetic
runs.  F' F'^T's [C, A] block does not have W's law, and nothing
sampled reads it; a sampled clone-anticlone cross-covariance would read
it and need the whole factor of W, so cross-covariances are a matter for
a probe certificate of the whole output covariance, not for the
sampler.  C's and A's columns hold normals only in their own rows, so
F' holds about half the normals of W's whole factor when C and A make
up most of the modes.

S is never built.  The mean and F''s columns, read as complex
amplitudes x + ip, are pushed through the machine's stages (two
concentration DFTs as orthonormal FFTs, the two-mode amplifier, two
distribution DFTs), which turn alpha into M alpha + L conj(alpha), S's
action, at O(K log K) a column; a run costs O(K log K min(n, d)) whatever
n.  Each DFT block is transformed in place on one contiguous run of rows.
F' is drawn one _PANEL-column panel at a time into one reused buffer,
its columns packed R, C, A across block boundaries, and each panel's
push skips the stages whose rows its columns leave at zero: the
concentration DFTs and the amplifier once it lies below R, and a
distribution whose vacua and port it does not reach, so that a panel of
C's columns runs the clone distribution alone and one of A's the
anticlone distribution alone.  A skipped stage would map zeros to zeros,
and each panel is reduced over the rows its push can reach, so the
moments keep their bits.  A bare transform is one block, R being every
mode; it pushes its panels through (M, L) in the same loop, at O(K^2) a
column, and skips nothing.

One generator, ``np.random.default_rng(seed)``, draws g, then the chi^2
diagonal of every column of F' in one ``chisquare`` call (numpy's gamma
sampler; nu - i in R's column i, nu - r_R - i in C's or A's), then each
panel block by block: the part of the panel in a block's columns, from
its block column j on, takes one ``standard_normal`` call over the
complex amplitudes of its modes from the block's mode j/2 down, to the
last mode for R and to the block's end for C and A, in row order, x
before p, and keeps those on and below the block's diagonal, putting
the chi values on it.  _PANEL = 32 is part of that definition.  The same
arguments give the same moments under one numpy version, platform and
BLAS build: numpy does not promise that its samplers keep their output
across versions, they call the platform's math library, and the FFTs
and BLAS products may round in a build-dependent way.  Through the
machine's stages the one BLAS product is the 2 x 2 amplifier, and
``verify`` printed the same bytes under 1 and 2 OpenBLAS threads (more
were not tried); a bare transform's (M, L) products may also round by
thread count.

Stream version 4 drew W's whole d x min(d, nu) factor F this way as one
block, through the machine's stages too; a bare transform still draws
it, bit for bit.  ``tests/oracles.py::stream_5_factor`` assembles F',
and so F, whole.  Stream version 3 drew F whole before the first push,
its normals row by row; it agrees with versions 4 and 5 in law, not in
bits, and its draws live on as the test oracle
``tests/oracles.py::stream_3_factor``.

Stream version 1 drew every sample: block b of BLOCK_SIZE samples took
its standard normals from a Philox generator keyed (seed, b), one (rows,
2K) array per block with mode m's x and p in columns 2m and 2m + 1.
:func:`block_normals` is its definition, and the test oracle
``tests/oracles.py::serial_simulate`` runs it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalTransform, _require_canonical
from .errors import DomainError, require_finite, require_integer
from .gaussian import (
    VACUUM_VARIANCE,
    _quadratures,
    coherent_fidelity,
    frozen_array,
)
from .machine import MachineLayout, NoiseReport, _Network

# Samples per block of stream version 1.
BLOCK_SIZE = 1 << 17
# Columns of F' drawn and pushed through the machine at once, part of
# the definition of stream versions 4 and 5.  16 to 128 ran within noise
# of each other for K = 1030 modes on a 2-CPU Xeon.
_PANEL = 32
STREAM_VERSION = 5
# Quadrature row i = 2r + q - o of a block's part of a panel, indexed
# (o, r, q, j) against its column j, o = 1 if the part starts on a p row:
# strictly above the block's diagonal, and on it.
_ROWS = (np.arange(_PANEL + 2).reshape(1, _PANEL // 2 + 1, 2, 1)
         - np.arange(2).reshape(2, 1, 1, 1))
_ABOVE = _ROWS < np.arange(_PANEL)
_DIAGONAL = _ROWS == np.arange(_PANEL)
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
    integral ``seed`` in [0, 2^64), and a finite amplitude ``psi`` whose
    quadratures sqrt(2) (Re psi, Im psi) are finite too."""

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
        # The input means are sqrt(2) (Re psi, Im psi); past float max they
        # would overflow to inf.
        if not math.sqrt(2.0) * max(abs(self.psi.real), abs(self.psi.imag)) < math.inf:
            raise DomainError(f"psi={self.psi} has quadratures beyond the float range")


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


def _factor_blocks(
    blocks: tuple[slice, ...], dof: int
) -> list[tuple[slice, int, int, int, int]]:
    """The layout of stream version 5's block factor F' over ``blocks``,
    runs of modes that tile range(K), the first of them shared: one
    (rows, col, width, dof_b, stop) per block, its modes ``rows``, its
    first column of F', its r_b = min(2 len(rows), dof_b) columns and
    their degrees of freedom dof_b, and the mode below the last row those
    columns can be nonzero in.  The shared block has dof_b = dof and its
    columns reach every mode below it; each other block has dof - r_0 and
    its columns reach its own modes only.  The columns run block by block;
    with one block F' is the 2K x min(2K, dof) factor F of Wishart(I_2K,
    dof).
    """
    shared, *private = blocks
    width = min(2 * (shared.stop - shared.start), dof)
    out = [(shared, 0, width, dof, blocks[-1].stop)]
    col = width
    for rows in private:
        w = min(2 * (rows.stop - rows.start), dof - width)
        out.append((rows, col, w, dof - width, rows.stop))
        col += w
    return out


def _factor_panel(
    gen: np.random.Generator,
    chi: np.ndarray,
    factor: list[tuple[slice, int, int, int, int]],
    c: int,
    out: np.ndarray,
) -> tuple[int, int]:
    """Write columns c to c + w - 1 of the block factor F' of
    :func:`_factor_blocks` into the (K, w) complex array ``out`` as
    amplitudes x + ip, zero wherever F' is, and return (first, stop): the
    modes they can be nonzero in lie in range(first, stop).

    Each block's columns hold its Bartlett factor, sqrt(chi^2(dof_b - i))
    on the diagonal of its column i (``chi`` holds these for every column
    of F'), normals below it, zeros above (Bartlett, Proc. R. Soc. Edinburgh 53, 260 (1933); Odell & Feiveson,
    JASA 61, 199 (1966)), and the shared block's columns hold normals in
    every row below it.  One law serves every dof (Uhlig, Ann. Statist.
    22, 395 (1994)): LQ-factor the first r rows of G ~ N(0, 1)^{d x dof}
    as T Q.  T is the Bartlett factor, and for dof < d the other rows
    G_2 Q^T are normals, Q being orthogonal and independent of G_2, so
    F F^T has the law of G G^T.

    Stream version 5 fills the panel block by block: the part of the
    panel in a block's columns, from its block-local column j on, takes
    one ``standard_normal`` call over its rows from mode rows.start + j/2
    down to the block's stop, in row order, x before p; then zeros above
    the diagonal and chi on it.  With one block that is stream version
    4's panel.
    """
    k, w = out.shape
    first, stop = k, 0
    for rows, col, width, _, bottom in factor:
        lo, hi = max(c, col), min(c + w, col + width)
        if lo >= hi:
            continue
        j = lo - col
        top = rows.start + j // 2
        seg = out[:, lo - c : hi - c]
        if top:
            seg[:top] = 0.0
        if bottom < k:
            seg[bottom:] = 0.0
        # The draws as (mode, column, quadrature), in place where the
        # block's rows of the panel are contiguous, else apart and copied.
        drawn = seg[top:bottom]
        shape = (bottom - top, hi - lo, 2)
        apart = not drawn.flags.c_contiguous
        z = np.empty(shape) if apart else drawn.view(float).reshape(shape)
        gen.standard_normal(out=z)
        # The diagonal runs through the block's first drawn modes: read as
        # (mode, quadrature, column), block quadrature row 2 (top - rows.start)
        # + i meets block column j + i - j % 2.
        o = j % 2
        h = (hi - lo + o + 1) // 2
        corner = z[:h].transpose(0, 2, 1)
        corner[_ABOVE[o, :h, :, : hi - lo]] = 0.0
        corner[_DIAGONAL[o, :h, :, : hi - lo]] = chi[lo:hi]
        if apart:
            drawn[...] = z.view(complex)[..., 0]
        first, stop = min(first, top), max(stop, bottom)
    return first, stop


def simulate(
    transform: CanonicalTransform,
    layout: MachineLayout,
    config: SampleConfig,
) -> EmpiricalMoments:
    """Empirical output moments of a machine fed its coherent inputs.

    The sample means, variances and x-p covariances of
    ``config.sample_count`` phase-space samples, drawn from their exact
    joint law as the module docstring describes.  ``transform`` is a
    :class:`~pciclone.canonical.CanonicalTransform` or the stages of
    ``pciclone.machine._network``: the sample mean and each _PANEL-column
    panel of the block factor F', drawn when it is reached into one
    reused buffer, are pushed through it as complex amplitudes x + ip,
    each panel reduced into the modes' 2 x 2 sums over the rows its push
    can reach, so F' is never held.  The machine's stages (also linked
    from the transforms ``build_machine`` returns) push a column through
    in-place FFTs at O(K log K), told the rows in which a panel can be
    nonzero so that they skip the stages it leaves at zero; a bare
    transform is one block and pushes through (M, L).  No K x K array is
    formed.  The route the panels take is the one gated: a transform
    whose commutation residual, the probe bound read through that route,
    is above ``CANONICAL_TOL`` is refused, as
    :func:`~pciclone.canonical.to_symplectic` refuses it, and
    so is an amplitude whose float spacing exceeds the vacuum noise's
    standard deviation, both by :class:`DomainError`.
    """
    if transform.mode_count != layout.total_modes:
        raise DomainError(
            f"transform has {transform.mode_count} modes, "
            f"layout expects {layout.total_modes}"
        )
    stages = getattr(transform, "_network", None) or transform
    _require_canonical(stages)
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
    blocks = stages.blocks if isinstance(stages, _Network) else (slice(0, k),)
    factor = _factor_blocks(blocks, n - 1)
    r = sum(width for _, _, width, _, _ in factor)
    gen = np.random.default_rng(config.seed)
    g = gen.standard_normal(2 * k)
    chi = np.sqrt(gen.chisquare(np.concatenate(
        [dof - np.arange(width) for _, _, width, dof, _ in factor])))
    _log.debug("sampling %d samples of %d modes from a %d x %d Wishart factor",
               n, k, 2 * k, r)
    # Mode m's quadratures (x, p) are the amplitude x + ip of a complex
    # view.  A panel's columns are F''s columns c, c + 1, ... as amplitudes,
    # after the input sample mean in the first panel.  Pushed, they are
    # S's image of the mean and those columns of S F', whose parts add to
    # the modes' x x, x p and p p sums.  Every panel is drawn into one
    # buffer, and only the rows its push reaches are read back.
    means = (mu_in + (sigma / math.sqrt(n)) * g).view(complex)
    sums = np.zeros((3, k))
    buffer = np.empty(k * (_PANEL + 1), dtype=complex)
    for c in range(0, r, _PANEL):
        lead = 1 if c == 0 else 0
        w = min(_PANEL, r - c)
        panel = buffer[: k * (lead + w)].reshape(k, lead + w)
        first, stop = _factor_panel(gen, chi, factor, c, panel[:, lead:])
        if lead:
            panel[:, 0] = means
            first, stop = 0, k
        reached = stages._push(panel, first=first, stop=stop)
        if lead:
            means[:] = panel[:, 0]
        for rows in reached:
            x, p = panel.real[rows, lead:], panel.imag[rows, lead:]
            for row, (u, v) in zip(sums[:, rows], ((x, x), (x, p), (p, p))):
                row += np.einsum("ij,ij->i", u, v)
    xx, xp, pp = sums * (VACUUM_VARIANCE / (n - 1))
    covariances = np.stack((xx, xp, xp, pp), axis=-1).reshape(k, 2, 2)
    var_pairs = np.stack((xx, pp), axis=-1)
    return EmpiricalMoments(
        sample_count=n,
        psi=config.psi,
        means=means.view(float).reshape(k, 2),
        covariances=covariances,
        mean_se=np.sqrt(var_pairs / n),
        var_se=var_pairs * math.sqrt(2.0 / (n - 1)),
    )


_Z_COLUMNS = ("z_mean_x", "z_mean_p", "z_var_x", "z_var_p", "z_fidelity")


@dataclass(frozen=True)
class ComparisonSummary:
    """Per-mode z-scores against the analytic predictions, and the verdict.

    Row j of the read-only (K, 5) table ``z`` holds mode j's z_mean_x,
    z_mean_p, z_var_x, z_var_p and z_fidelity, and ``roles[j]`` its role.
    Any |z| above the finite, positive ``threshold``, or a NaN z, fails.
    ``worst`` names the largest |z| (the first NaN, if any).
    """

    roles: tuple[str, ...]
    z: np.ndarray
    threshold: float = Z_FLAG

    def __post_init__(self):
        object.__setattr__(self, "z", frozen_array(self.z, float))
        require_finite(threshold=self.threshold)
        if not self.threshold > 0:
            raise DomainError(f"threshold must be > 0, got {self.threshold}")

    @property
    def max_abs_z(self) -> float:
        # np.max, unlike max, keeps a NaN wherever it stands, so a NaN fails.
        return float(np.max(np.abs(self.z)))

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.threshold

    @property
    def worst(self) -> dict:
        """The mode, role, column and signed value of the largest |z|: the
        first in row order on a tie, and the first NaN if there is one,
        as :attr:`max_abs_z` reads it."""
        mode, col = divmod(int(np.argmax(np.abs(self.z))), len(_Z_COLUMNS))
        return {"mode": mode, "role": self.roles[mode], "column": _Z_COLUMNS[col],
                "z": float(self.z[mode, col])}

    def flagged(self) -> list[int]:
        """Modes with a |z| above the threshold or a NaN z."""
        row_max = np.max(np.abs(self.z), axis=1)
        return np.flatnonzero(~(row_max <= self.threshold)).tolist()

    @property
    def rows(self) -> list[dict]:
        return [
            {"mode": mode, "role": role, **dict(zip(_Z_COLUMNS, z))}
            for mode, (role, z) in enumerate(zip(self.roles, self.z.tolist()))
        ]

    def to_dict(self) -> dict:
        return {"rows": self.rows, "threshold": self.threshold,
                "max_abs_z": self.max_abs_z, "worst": self.worst,
                "passed": self.passed}


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
    return ComparisonSummary(tuple(roles.tolist()), table, threshold)


__all__ = [
    "BLOCK_SIZE",
    "STREAM_VERSION",
    "Z_FLAG",
    "ComparisonSummary",
    "EmpiricalMoments",
    "SampleConfig",
    "block_normals",
    "compare_to_analytic",
    "simulate",
]
