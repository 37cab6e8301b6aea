"""Statistical oracle: the sampled output moments of a machine.

A run of n samples stands for n independent input quadrature vectors,
each Gaussian with the coherent inputs' means mu_in and covariance
sigma^2 I, sigma^2 = 1/2, pushed through the machine's symplectic matrix
S and reduced to each output mode's sample means, variances and x-p
covariance.  The map is linear and the inputs Gaussian, so the joint law
of those statistics is known exactly, and :func:`simulate` draws them
from it (stream version 9) instead of drawing the samples.  With d = 2K
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

    F' = [[T_R, 0], [N_C, T_C], [N_A, P T_A]],

where T_R is R's Bartlett factor (r_R = min(d_R, nu) columns, chi^2(nu -
i) on the diagonal), N_C and N_A are normals, T_C and T_A are the
Bartlett factors of C and A with nu - r_R degrees of freedom (Bartlett,
Proc. R. Soc. Edinburgh 53, 260 (1933); Uhlig, Ann. Statist. 22, 395
(1994), where nu is below a block's rows; see :func:`_factor_panel`),
side by side in the same r - r_R = max(r_C, r_A) columns, and P reverses
A's modes, keeping x before p, which Wishart(I)'s law does not see.
Every sampled statistic, and so every z-score, has exactly the law it
has under per-sample draws, jointly across modes too: the sampler tests
the same S against the same closed forms, but no per-sample arithmetic
runs.  F' F'^T's [C, A] block does not have W's law, and nothing
sampled reads it; a sampled clone-anticlone cross-covariance would read
it and need the whole factor of W, so cross-covariances are a matter for
a probe certificate of the whole output covariance, not for the
sampler.  F' holds about half the normals of W's whole factor, and
about half the columns, when C and A make up most of the modes.

S is never built.  The mean and F''s columns, read as complex
amplitudes x + ip, are pushed through the machine's stages (two
concentration DFTs as orthonormal FFTs, the two-mode amplifier, two
distribution DFTs), which turn alpha into M alpha + L conj(alpha), S's
action, at O(K log K) a column; a run costs O(K log K min(n, d)) whatever
n.  Each DFT block is transformed in place on one contiguous run of rows.
F' is drawn one _PANEL-column panel at a time into one reused buffer,
and each panel's push skips the stages whose rows its columns leave at
zero: a panel of C's and A's shared columns is zero in R's rows, so it
skips the concentration DFTs and the amplifier and runs the two
distributions, each of which reads only its own block's rows.  A
skipped stage would map zeros to zeros, and a row no push reaches holds
zeros, so the moments keep their bits.  A bare transform is one block,
R being every mode; it pushes its panels through (M, L) in the same
loop, at O(K^2) a column, and skips nothing.

One generator, numpy's SFC64 seeded by ``seed`` (Small Fast Chaotic,
Doty-Humphrey's PractRand), draws the chi^2 diagonal of every column of
F' in one ``chisquare`` call (numpy's gamma sampler; nu - i in R's
column i, nu - r_R - i in C's, then in A's), then each panel in one
call, into the panel buffer in place: the normals of the complex
amplitudes of every column of the panel, the first panel's lead column
g first, in row order, x before p, over the modes its columns can
reach.  The first panel reaches every mode, so g is drawn whole; a
panel of shared columns from column j of C and A reaches modes
C.start + j/2 to A.stop - j/2, one band.  Then each block's part keeps
the normals in its block's rows on and below its diagonal, puts the chi
values on it and is zero elsewhere.  Every normal, g's and F''s,
comes from the Box-Muller transform (Box & Muller, Ann. Math. Statist.
29, 610 (1958)): an amplitude's (x, p) is (r cos t, r sin t) for the
next two ``random`` uniforms (u, v), with r = sqrt(-2 log(1 - u)) in
float64 and the angle t = 2 pi v rounded to float32, its cosine and sine
taken by numpy's float32 SIMD loops (:func:`_normals`).  The float32
angle is the one place where precision is traded for speed: each normal
lies within 1e-6 r of float64 Box-Muller on the same uniforms (2.6e-7 r
at most over 2^22 draws), and the tails stop at r = sqrt(106 log 2) =
8.57, where u's 53 bits end, a radius a pair of independent normals
passes with probability 2^-53.  The kernel draws a normal in about
6.5 ns against SFC64's ziggurat ``standard_normal``'s 9.7 ns (numpy 2.4,
a 2-vCPU Xeon with AVX-512), a third of it the uniforms.  _PANEL = 32 is
part of the stream's definition.  The same arguments give the same
moments under one numpy version, platform and BLAS build: numpy does not
promise that its samplers keep their output across versions, they call
the platform's math library, and the FFTs and BLAS products may round in
a build-dependent way.  numpy's float32 cosine and sine gave the same
bits on its AVX2 (X86_V3) and AVX-512 (X86_V4) paths, and its float64
log differed between them in the last bit only, up to 3e-14 on a
z-score; its X86_V2 baseline and non-x86 platforms round the cosine and
sine otherwise and do not repeat the bits.  Through the machine's stages
the one BLAS product is the 2 x 2 amplifier, and ``verify`` printed the
same bytes under 1 and 2 OpenBLAS threads (more were not tried); a bare
transform's (M, L) products may also round by thread count.  This is
stream version 9.

Stream version 8 drew the same way but packed F''s columns R, C, A,
each block's own, with A's factor in mode order; its g and F' live on
as the test oracle ``tests/oracles.py::stream_8_draws``, and version
9's as ``stream_9_draws``.  Stream version 7 drew version 8's g and F'
in another order: g in a call of its own, then each panel block by
block.  Stream version 6 is version 7's draw with numpy's ziggurat
``standard_normal``, stream version 5 that draw from numpy's PCG64
(``np.random.default_rng(seed)``), and stream version 4 W's whole
d x min(d, nu) factor F as one block; ``tests/oracles.py::stream_5_factor``
assembles the F' of versions 4 to 7 whole.  Stream version 3 drew F
whole before the first push, its normals row by row; it agrees with
versions 4 to 9 in law, not in bits (``tests/oracles.py::stream_3_factor``).

Stream version 1 drew every sample: block b of BLOCK_SIZE samples took
its standard normals from a Philox generator keyed (seed, b), one (rows,
2K) array per block with mode m's x and p in columns 2m and 2m + 1.
Its generator and the test oracle ``tests/oracles.py::serial_simulate``
that runs it live on in the tests.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property

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
# the definition of stream versions 4 to 9.  16 to 128 ran within noise
# of each other for K = 1030 modes on a 2-CPU Xeon.
_PANEL = 32
# Normal pairs :func:`_normals` turns at once.
_CHUNK = 1 << 12
STREAM_VERSION = 9
_TWO_PI = 2.0 * math.pi
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


def _generator(seed: int) -> np.random.Generator:
    """The generator of stream versions 6 to 9: numpy's SFC64 seeded by
    ``seed``."""
    return np.random.Generator(np.random.SFC64(seed))


def _normals(gen: np.random.Generator, out: np.ndarray) -> None:
    """Fill the contiguous float64 array ``out``, of even size, with the
    standard normals of stream versions 7 to 9, by the Box-Muller
    transform (Box & Muller, Ann. Math. Statist. 29, 610 (1958)): each
    consecutive pair of ``gen.random`` uniforms (u, v) gives the pair
    (r cos t, r sin t), r = sqrt(-2 log(1 - u)) in float64 and t = 2 pi v
    rounded to float32, whose cosine and sine are float32.  The pairs are
    turned _CHUNK at a
    time in place of their uniforms, through 12 bytes of scratch a pair
    (r and t; the cosine waits in the float32 half of v's slot), so two
    calls draw the same normals as one over both arrays.
    """
    n = out.size // 2
    m = min(_CHUNK, n)
    r = np.empty(m)
    t = np.empty(m, np.float32)
    for start in range(0, 2 * n, 2 * m):
        uv = out[start : start + 2 * m]
        if uv.size < 2 * m:
            r, t = r[: uv.size // 2], t[: uv.size // 2]
        gen.random(out=uv)
        u, v = uv[0::2], uv[1::2]
        np.subtract(1.0, u, out=r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        v *= _TWO_PI
        t[...] = v
        cos = uv.view(np.float32)[2::4]
        np.cos(t, out=cos)
        np.sin(t, out=t)
        # Widened in place before the products, so that no ufunc call
        # takes a buffer for a mixed-type operand.
        u[...] = cos
        u *= r
        v[...] = t
        v *= r


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
) -> list[tuple[int, int, int, int, int, int, bool]]:
    """The layout of stream version 9's block factor F' over ``blocks``,
    runs of modes that tile range(K), the first shared: one (col, key,
    width, dof_b, top, bottom, flip) per block, its first column of F' and
    that column's index in the chi^2 diagonal, which runs block by block,
    its r_b = min(2 len(rows), dof_b) columns and their degrees of freedom
    dof_b, and the modes [top, bottom) its first column can be nonzero in.
    The shared block has dof_b = dof and reaches every mode below it; the
    other two have dof - r_0, reach their own modes only and share F''s
    columns from r_0 on, the third mode-reversed (``flip``): column j
    reaches modes top to bottom - j/2, the others' top + j/2 to bottom.
    With one block F' is the 2K x min(2K, dof) factor F of Wishart(I_2K,
    dof).
    """
    shared, *private = blocks
    width = min(2 * (shared.stop - shared.start), dof)
    out = [(0, 0, width, dof, shared.start, blocks[-1].stop, False)]
    key = width
    for rows, flip in zip(private, (False, True)):
        w = min(2 * (rows.stop - rows.start), dof - width)
        out.append((width, key, w, dof - width, rows.start, rows.stop, flip))
        key += w
    return out


def _factor_panel(
    gen: np.random.Generator,
    chi: np.ndarray,
    factor: list[tuple[int, int, int, int, int, int, bool]],
    c: int,
    out: np.ndarray,
) -> tuple[int, int]:
    """Draw the panel of the block factor F' of :func:`_factor_blocks`
    from column c into the C-contiguous (K, lead + w) complex array
    ``out``, as amplitudes x + ip after a lead column that the first
    panel (c = 0, lead = 1) has and the others do not, and return
    (first, stop): the modes its columns can be nonzero in lie in
    range(first, stop).

    Each block's columns hold its Bartlett factor (Odell & Feiveson, JASA
    61, 199 (1966); the module docstring gives the law for every dof),
    sqrt(chi^2(dof_b - i)) on the diagonal of its column i (``chi`` holds
    these for every column of F'), normals below it in its rows (every
    row below, for the shared block), zeros above; a flipped block's
    quadratures run from its last mode up, x before p.  One
    :func:`_normals` call fills ``out``'s rows first to stop, every
    column, in place, the first panel's lead column holding g.  Then each
    run of columns is zero in the rows no block part over it reaches, and
    each part is zero above its diagonal and puts chi on it.
    """
    k, cols = out.shape
    lead = 1 if c == 0 else 0
    # (first and end column of out, first and stop mode, o = 1 if it
    # starts on a p row, flip, chi) of each block part.
    parts = []
    for col, key, width, _, top, bottom, flip in factor:
        lo, hi = max(c, col), min(c + cols - lead, col + width)
        if lo < hi:
            j = lo - col
            top, bottom = (top, bottom - j // 2) if flip else (top + j // 2, bottom)
            parts.append((lead + lo - c, lead + hi - c, top, bottom, j % 2, flip,
                          chi[key + j : key + hi - col]))
    first, stop = min(part[2] for part in parts), max(part[3] for part in parts)
    out[:first] = 0.0
    out[stop:] = 0.0
    _normals(gen, out[first:stop].view(float).reshape(-1))
    # The parts over a run of columns reach adjacent runs of modes.
    cuts = sorted({edge for part in parts for edge in part[:2]})
    for lo, hi in zip(cuts, cuts[1:]):
        over = [part for part in parts if part[0] <= lo < part[1]]
        out[first : min(part[2] for part in over), lo:hi] = 0.0
        out[max(part[3] for part in over) : stop, lo:hi] = 0.0
    # Read as (mode, quadrature, column): block quadrature row
    # 2 (mode - top) + i, or 2 (bottom - 1 - mode) + i flipped, meets
    # block column j + i - j % 2.
    quadratures = out.view(float).reshape(k, cols, 2).transpose(0, 2, 1)
    for lo, hi, top, bottom, o, flip, diagonal in parts:
        h = (hi - lo + o + 1) // 2
        corner = (quadratures[bottom - h : bottom, :, lo:hi][::-1] if flip
                  else quadratures[top : top + h, :, lo:hi])
        corner[_ABOVE[o, :h, :, : hi - lo]] = 0.0
        corner[_DIAGONAL[o, :h, :, : hi - lo]] = diagonal
    return first, stop


def _panel_sums(stages, gen, chi, factor, means, scale) -> np.ndarray:
    """The modes' x x, x p and p p sums, a (3, K) array, over the columns
    of ``stages``'s image of the block factor F' of ``factor``, whose
    diagonal ``chi`` holds, g and each _PANEL-column panel of F' drawn
    from ``gen`` by :func:`_factor_panel`.  The complex input means
    ``means`` are replaced by the image of the sample mean
    means + scale g.

    Mode m's quadratures (x, p) are the amplitude x + ip of a complex
    view.  The first panel carries g in its lead column, turned into the
    sample mean in place, and every panel is drawn into one buffer and
    pushed through ``stages`` there, so a panel's columns become columns
    of S F'.  Every row is summed: one no push reaches holds zeros.
    """
    k = means.size
    r = max(col + width for col, _, width, *_ in factor)
    sums = np.zeros((3, k))
    buffer = np.empty(k * (_PANEL + 1), dtype=complex)
    for c in range(0, r, _PANEL):
        lead = 1 if c == 0 else 0
        panel = buffer[: k * (lead + min(_PANEL, r - c))].reshape(k, -1)
        first, stop = _factor_panel(gen, chi, factor, c, panel)
        if lead:
            panel[:, 0] *= scale
            panel[:, 0] += means
        stages._push(panel, first=first, stop=stop)
        if lead:
            means[:] = panel[:, 0]
        x, p = panel.real[:, lead:], panel.imag[:, lead:]
        for row, (u, v) in zip(sums, ((x, x), (x, p), (p, p))):
            row += np.einsum("ij,ij->i", u, v)
    return sums


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
    ``pciclone.machine._network``: each _PANEL-column panel of the block
    factor F', the sample mean riding in the first, drawn when it is
    reached into one reused buffer, is pushed through it as complex
    amplitudes x + ip and reduced into the modes' 2 x 2 sums, so F' is
    never held.  The machine's stages
    (also linked from the transforms ``build_machine`` returns) push a
    column through in-place FFTs at O(K log K), told the rows in which a
    panel can be nonzero so that they skip the stages it leaves at zero;
    a bare transform is one block and pushes through (M, L).  No K x K
    array is formed.  The route the panels take is the one gated: a
    transform whose commutation residual, the probe bound read through
    that route, is above ``CANONICAL_TOL`` is refused, as
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
    # The input means, replaced by the sampled output means.
    means = _quadratures(layout.input_amplitudes(config.psi)).reshape(-1)
    sigma = math.sqrt(VACUUM_VARIANCE)
    # Input samples spaced more coarsely than the vacuum noise could not
    # resolve it, so their moments are refused, not drawn.
    if np.spacing(np.max(np.abs(means))) > sigma:
        raise DomainError(
            f"psi={config.psi} is too large for the samples to resolve the noise"
        )

    n = config.sample_count
    blocks = stages.blocks if isinstance(stages, _Network) else (slice(0, k),)
    factor = _factor_blocks(blocks, n - 1)
    gen = _generator(config.seed)
    chi = np.sqrt(gen.chisquare(np.concatenate(
        [dof - np.arange(width) for _, _, width, dof, *_ in factor])))
    _log.debug("sampling %d samples of %d modes from a %d x %d Wishart factor",
               n, k, 2 * k, max(col + width for col, _, width, *_ in factor))
    sums = _panel_sums(stages, gen, chi, factor, means.view(complex),
                       sigma / math.sqrt(n))
    xx, xp, pp = sums * (VACUUM_VARIANCE / (n - 1))
    covariances = np.stack((xx, xp, xp, pp), axis=-1).reshape(k, 2, 2)
    var_pairs = np.stack((xx, pp), axis=-1)
    return EmpiricalMoments(
        sample_count=n,
        psi=config.psi,
        means=means.reshape(k, 2),
        covariances=covariances,
        mean_se=np.sqrt(var_pairs / n),
        var_se=var_pairs * math.sqrt(2.0 / (n - 1)),
    )


_Z_COLUMNS = ("z_mean_x", "z_mean_p", "z_var_x", "z_var_p", "z_fidelity")
# The output roles, in the order ``to_dict`` lists them.
_ROLES = ("clone", "anticlone", "residual")
_ROLE_CODES = {role: code for code, role in enumerate(_ROLES)}
_ROLE_NAMES = np.array(_ROLES, dtype=object)
_COLUMN_INDEX = np.arange(len(_Z_COLUMNS))
_TINY = np.finfo(float).tiny
# Below this |z|, sums and squares of a role's z-scores stay far from
# overflow for any mode count that fits in memory.
_UNSCALED = 2.0**480


def _json_floats(a: np.ndarray) -> list:
    """``a`` as nested lists of floats, each non-finite entry None, which
    JSON writes as null."""
    finite = np.isfinite(a)
    if finite.all():
        return a.tolist()
    return np.where(finite, a, None).tolist()


def _json_float(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class ComparisonSummary:
    """Per-mode z-scores against the analytic predictions, and the verdict.

    Row j of the read-only (K, 5) table ``z`` holds mode j's z_mean_x,
    z_mean_p, z_var_x, z_var_p and z_fidelity, and ``roles[j]`` its role,
    one of clone, anticlone and residual.  Any |z| above the finite,
    positive ``threshold``, or a NaN z, fails.  ``worst`` names the
    largest |z| (the first NaN, if any).
    """

    roles: tuple[str, ...]
    z: np.ndarray
    threshold: float = Z_FLAG

    def __post_init__(self):
        object.__setattr__(self, "z", frozen_array(self.z, float))
        shape = (len(self.roles), len(_Z_COLUMNS))
        if self.z.shape != shape:
            raise DomainError(f"z must have shape {shape}, got {self.z.shape}")
        if not _ROLE_CODES.keys() >= set(self.roles):
            raise DomainError(f"roles must be among {_ROLES}")
        require_finite(threshold=self.threshold)
        if not self.threshold > 0:
            raise DomainError(f"threshold must be > 0, got {self.threshold}")

    @cached_property
    def _codes(self) -> np.ndarray:
        """Each mode's role's index in _ROLES (:func:`compare_to_analytic`
        sets it as it assigns the roles)."""
        return np.fromiter(map(_ROLE_CODES.__getitem__, self.roles), np.intp)

    @cached_property
    def _abs_z(self) -> np.ndarray:
        return np.abs(self.z)

    @cached_property
    def max_abs_z(self) -> float:
        # np.max, unlike max, keeps a NaN wherever it stands, so a NaN fails.
        return float(np.max(self._abs_z))

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.threshold

    @property
    def worst(self) -> dict:
        """The mode, role, column and signed value of the largest |z|: the
        first in row order on a tie, and the first NaN if there is one,
        as :attr:`max_abs_z` reads it."""
        mode, col = divmod(int(np.argmax(self._abs_z)), len(_Z_COLUMNS))
        return {"mode": mode, "role": self.roles[mode], "column": _Z_COLUMNS[col],
                "z": float(self.z[mode, col])}

    def flagged(self) -> list[int]:
        """Modes with a |z| above the threshold or a NaN z."""
        if self.passed:
            return []
        row_max = np.max(self._abs_z, axis=1)
        return np.flatnonzero(~(row_max <= self.threshold)).tolist()

    @property
    def rows(self) -> list[dict]:
        return [
            {"mode": mode, "role": role, **dict(zip(_Z_COLUMNS, z))}
            for mode, (role, z) in enumerate(zip(self.roles, self.z.tolist()))
        ]

    def _by_role(self) -> dict:
        """``to_dict``'s ``by_role``, from whole-array reductions over the
        table's rows sorted by role (array methods, not numpy's slower
        function wrappers, keep it cheap at small K)."""
        order = self._codes.argsort(kind="stable")
        counts = np.bincount(self._codes, minlength=len(_ROLES)).tolist()
        present = [code for code, m in enumerate(counts) if m]
        n = [counts[code] for code in present]
        starts = list(itertools.accumulate(n, initial=0))[:-1]
        z = self.z[order]
        abs_z = np.abs(z)
        # Each role's first largest |z| in each column, its first NaN if
        # it has one, as argmax finds them.
        top = np.array([abs_z[s : s + m].argmax(0) for s, m in zip(starts, n)])
        top += np.array(starts)[:, None]
        mean, spread, worst_z = stats = np.empty((3, len(n), len(_Z_COLUMNS)))
        worst_z[...] = z[top, _COLUMN_INDEX]
        sizes = np.array(n)[:, None]
        scaled = not self.max_abs_z < _UNSCALED
        if scaled:
            # Scaled by that largest |z|, every z lies in [-1, 1], so no sum
            # or square overflows.  A column that holds a non-finite z gets
            # a NaN scale, or divides inf by inf, and so a NaN mean and
            # spread.
            scale = np.maximum(np.abs(worst_z), _TINY)
            with np.errstate(invalid="ignore"):
                z /= scale.repeat(n, axis=0)
        np.add.reduceat(z, starts, out=mean)
        mean /= sizes
        z -= mean.repeat(n, axis=0)
        z *= z
        np.add.reduceat(z, starts, out=spread)
        spread /= sizes
        np.sqrt(spread, out=spread)
        if scaled:
            mean *= scale
            spread *= scale
        if self.passed:
            above = [[0] * len(_Z_COLUMNS) for _ in n]
        else:
            within = np.add.reduceat(abs_z <= self.threshold, starts, dtype=np.intp)
            above = (sizes - within).tolist()
        return {
            _ROLES[code]: {"modes": m, "above": a, "mean": mu, "spread": sd,
                           "worst_mode": worst_mode, "worst_z": worst}
            for code, m, a, mu, sd, worst, worst_mode in zip(
                present, n, above, *_json_floats(stats), order[top].tolist())
        }

    def to_dict(self) -> dict:
        """A summary whose size does not grow with the mode count.
        ``columns`` names the five z-scores.  ``by_role`` holds, for each
        role with modes, in the order clone, anticlone, residual: its
        mode count ``modes``, and lists aligned with ``columns`` of
        ``above`` (the count of its |z| above the threshold, or NaN),
        the ``mean`` and ``spread`` (population standard deviation) of
        its z-scores, and ``worst_mode`` and ``worst_z``, its largest
        |z| as :attr:`worst` picks it.  ``flagged`` holds the mode, role
        and five z-scores of each :meth:`flagged` mode, in mode order.
        Then the verdict: ``threshold``, ``max_abs_z``, ``worst`` and
        ``passed``.  Every non-finite z-score, mean or spread is None,
        which JSON writes as null; the per-mode table is :attr:`rows`.
        """
        modes = self.flagged()
        rows = _json_floats(self.z[modes]) if modes else []
        worst = self.worst
        worst["z"] = _json_float(worst["z"])
        return {
            "columns": list(_Z_COLUMNS),
            "by_role": self._by_role(),
            "flagged": [{"mode": mode, "role": self.roles[mode], "z": z}
                        for mode, z in zip(modes, rows)],
            "threshold": self.threshold,
            "max_abs_z": _json_float(self.max_abs_z),
            "worst": worst,
            "passed": self.passed,
        }


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
    codes = np.full(k, _ROLE_CODES["residual"])
    amp = np.zeros(k, dtype=complex)
    var_pred = np.full(k, VACUUM_VARIANCE)
    f_pred = np.ones(k)
    for role, slots, a, v, f in (
        ("clone", layout.clone_slots, emp.psi, report.var_clone, report.f_clone),
        ("anticlone", layout.anticlone_slots, emp.psi.conjugate(),
         report.var_anticlone, report.f_anticlone),
    ):
        idx = list(slots)
        codes[idx], amp[idx], var_pred[idx], f_pred[idx] = _ROLE_CODES[role], a, v, f

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
    summary = ComparisonSummary(tuple(_ROLE_NAMES[codes].tolist()), table, threshold)
    object.__setattr__(summary, "_codes", codes)
    return summary


__all__ = [
    "BLOCK_SIZE",
    "STREAM_VERSION",
    "Z_FLAG",
    "ComparisonSummary",
    "EmpiricalMoments",
    "SampleConfig",
    "compare_to_analytic",
    "simulate",
]
