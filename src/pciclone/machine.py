"""Multimode cloning machine for coherent states with phase-conjugate inputs.

The machine takes N replicas of a coherent state psi together with N'
replicas of its phase conjugate psi*, and emits M clones plus
M' = M + N' - N anticlones.  It is built from five stages in three
steps acting on K modes:

    1. concentrate: one DFT merges the N signal replicas into one mode,
       another the N' conjugate replicas into a second,
    2. amplify: a two-mode phase-insensitive amplifier of gain G couples
       the two concentrated modes,
    3. distribute: inverse DFTs spread the amplified modes over M clone
       and M' anticlone outputs.

Every clone carries mean exactly psi with added thermal noise (G-1)/M per
mode; anticlones carry psi* with (G-1)/M'.  The closed-form evaluators
here (gains, noise, fidelities, comparison baselines) are what the
explicit transform is tested against.

One private description of the stages serves both routes:
:func:`build_machine` assembles the explicit K x K pair (M, L) from it,
and the ``verify`` path pushes columns through it at O(K log K) each and
certifies it with Gaussian probes, holding no K x K array.  The layout
gives each distribution block as its port plus one run of vacua, so
every DFT block is transformed in place on one contiguous run of rows;
a push skips the stages whose rows are all zero.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .canonical import CanonicalTransform, _apply_dft, pcia_transform
from .errors import DomainError, require_finite, require_integer
from .gaussian import _PROBES, GaussianState, _probe_bound, coherent_state

# Smallest sum of square roots in _gain_and_excess whose rounding still
# absorbs the error of a root of an underflowed product.
_MIN_ROOTS = 2.0 * math.sqrt(sys.float_info.min) / sys.float_info.epsilon

# Bytes per mode of the layout's slot tuples while they are built and
# checked (112 to 116 traced at K = 6e5 to 2e6) and of the stages' slot
# arrays (8).
_SLOT_BYTES = 128
# Bytes a `pciclone verify` run holds whatever K: the argument parser
# (about 47 KB) and the output document.  A warmed run of main() traced
# 51.2 KB at K = 2 and 49.6 KB at K = 4 beyond the K-sized part of
# _working_set (Python 3.11, numpy 2.4).
_VERIFY_BYTES = 64 * 1024


@dataclass(frozen=True)
class CloningConfig:
    """Input/output multiplicities (N, N', M) of a cloning run.

    The anticlone count is not free: mean preservation on both channels
    forces M' = M + N' - N.  Only the amplification regime M >= N is
    supported; M < N would call for attenuation instead.
    """

    n_inputs: int
    n_conj: int
    m_clones: int

    def __post_init__(self):
        n, nc, m = self.n_inputs, self.n_conj, self.m_clones
        require_integer(n_inputs=n, n_conj=nc, m_clones=m)
        if n < 0 or nc < 0:
            raise DomainError(f"input counts must be >= 0, got N={n}, N'={nc}")
        if n + nc < 1:
            raise DomainError("need at least one input replica (N + N' >= 1)")
        if m < 1:
            raise DomainError(f"m_clones must be >= 1, got {m}")
        if m < n:
            raise DomainError(
                f"M={m} < N={n} is the attenuation regime, not supported"
            )

    @property
    def m_anticlones(self) -> int:
        """M' = M + N' - N; >= N' whenever M >= N."""
        return self.m_clones + self.n_conj - self.n_inputs


@dataclass(frozen=True)
class MachineLayout:
    """Slot assignment for the K-mode transform of one machine.

    Input roles partition range(total_modes) into signal replicas,
    conjugate replicas, and the vacua consumed by each distribution
    stage.  Output roles partition the same slots into clones,
    anticlones, and residual modes left over by the concentration DFTs.
    """

    total_modes: int
    signal_slots: tuple[int, ...]
    conjugate_slots: tuple[int, ...]
    clone_vacuum_slots: tuple[int, ...]
    anticlone_vacuum_slots: tuple[int, ...]
    clone_slots: tuple[int, ...]
    anticlone_slots: tuple[int, ...]
    residual_slots: tuple[int, ...]

    def __post_init__(self):
        k = self.total_modes
        everything = range(k)
        inputs = (
            self.signal_slots
            + self.conjugate_slots
            + self.clone_vacuum_slots
            + self.anticlone_vacuum_slots
        )
        outputs = self.clone_slots + self.anticlone_slots + self.residual_slots
        if sorted(inputs) != list(everything):
            raise DomainError("input roles do not partition the mode slots")
        if sorted(outputs) != list(everything):
            raise DomainError("output roles do not partition the mode slots")

    def input_amplitudes(self, psi: complex) -> np.ndarray:
        """Complex amplitude vector: psi on signal slots, conj(psi) on
        conjugate slots, 0 on vacuum slots."""
        require_finite(psi=psi)
        amps = np.zeros(self.total_modes, dtype=complex)
        amps[list(self.signal_slots)] = psi
        amps[list(self.conjugate_slots)] = np.conj(psi)
        return amps

    def input_state(self, psi: complex) -> GaussianState:
        """Coherent product state carrying the replicas and vacua."""
        return coherent_state(self.input_amplitudes(psi))


@dataclass(frozen=True)
class NoiseReport:
    """Closed-form predictions for one configuration.

    Thermal photon numbers obey var = 1/2 + n_th and f = 1/(1 + n_th) in
    each channel.  The anticlone fields are None when M' = 0 (no
    anticlone channel exists).  Baselines describe the best standard
    cloner fed the same K = N + N' replicas of psi: variance add
    1/K - 1/M (clamped at zero for M <= K, where standard cloning is
    already perfect) and the matching fidelities.
    """

    gain: float
    n_th_clone: float
    n_th_anticlone: float | None
    var_clone: float
    var_anticlone: float | None
    f_clone: float
    f_anticlone: float | None
    baseline_var: float
    baseline_f: float
    baseline_f_anticlone: float
    measurement_limit_noise: float

    def to_dict(self) -> dict:
        return asdict(self)


def gain_from_amplitudes(alpha: float, beta: float, gamma: float) -> float:
    """Gain of the minimal-noise amplifier matching the mean constraint.

    For inputs with means alpha*psi and beta*psi* on its two ports, the
    cheapest canonical transform producing mean gamma*psi on port 1 has

        sqrt(G) = (gamma^2 + beta^2)
                  / (alpha*gamma + beta*sqrt(gamma^2 - alpha^2 + beta^2)).

    This is the quotient form of the quadratic-root solution; unlike the
    root form it has no removable singularity at alpha = beta, where it
    equals the limit (gamma^2 + alpha^2) / (2*alpha*gamma) directly.
    Signs are immaterial (they can be absorbed into mode phases), so
    magnitudes are used.  |gamma| < |alpha| would require attenuation
    rather than amplification and is rejected, as are non-finite values
    and a gain beyond the float range.
    """
    require_finite(alpha=alpha, beta=beta, gamma=gamma)
    a, b, c = abs(alpha), abs(beta), abs(gamma)
    if a == 0.0 and b == 0.0:
        raise DomainError("alpha and beta cannot both vanish")
    if c < a:
        raise DomainError(
            f"|gamma|={c} < |alpha|={a} is the attenuation regime, not supported"
        )
    # The gain is invariant under a common scale; an exact power of two
    # that brings the largest magnitude into [1/2, 1) keeps the squares
    # in the float range without changing the bits of an in-range gain.
    _, exp = math.frexp(max(a, b, c))
    a, b, c = (math.ldexp(x, -exp) for x in (a, b, c))
    root = math.sqrt(c * c - a * a + b * b)
    try:
        return ((c * c + b * b) / (a * c + b * root)) ** 2
    except (OverflowError, ZeroDivisionError):
        raise DomainError(
            f"(alpha, beta, gamma) = ({alpha}, {beta}, {gamma}) gives a gain "
            f"beyond the float range"
        ) from None


def _gain_and_excess(n, nc, m, mc, lost=False) -> tuple[float, float]:
    """(G, G - 1) for counts N, N', M, M' given as exact integers or as
    floats: G as in :func:`gain_from_counts`, G - 1 from the identity in
    :func:`noise_report`.  An overflowed product, root sum or gain raises
    :class:`DomainError`, as does a value of nonzero factors below the
    normal range (``lost`` flags one among the counts) unless the sum of
    roots, from _MIN_ROOTS up, absorbs its error.
    """
    tiny = sys.float_info.min
    try:
        sig, con = n * m, nc * mc
        roots = math.sqrt(sig) + math.sqrt(con)
        lost = lost or (n and sig < tiny) or (nc and mc and con < tiny)
        in_range = roots < math.inf and (roots >= _MIN_ROOTS or not lost)
        gain = ((m + nc) / roots) ** 2 if in_range else math.inf
    except OverflowError:
        gain = math.inf
    if not gain < math.inf:
        raise DomainError(
            f"counts (N, N', M, M') = ({n}, {nc}, {m}, {mc}) leave the float "
            f"range of the gain"
        )
    if m <= n:
        # G = 1 at M = N; below it lies only the slack of attenuates().
        return gain, 0.0
    rt_m, rt_mc = math.sqrt(m), math.sqrt(mc)
    rt_n, rt_nc = math.sqrt(n), math.sqrt(nc)
    root_excess = (m - n) / (rt_m * rt_mc + rt_n * rt_nc)
    root_excess *= (m + nc) / (rt_n * rt_m + rt_nc * rt_mc)
    return gain, root_excess * root_excess


def gain_from_counts(config: CloningConfig) -> float:
    """Amplifier gain that copies N + N' replicas onto M clones.

    Evaluates sqrt(G) = (M + N') / (sqrt(N M) + sqrt(N' M')), a
    rationalized quotient that is finite and smooth at N = N' where it
    reduces to the balanced value G = (M + N)^2 / (4 M N).  Written this
    way the duality G(N, N', M) = G(N', N, M') holds bit-exactly.
    Counts whose products leave the float range raise
    :class:`DomainError`.
    """
    return _gain_and_excess(
        config.n_inputs, config.n_conj, config.m_clones, config.m_anticlones
    )[0]


def attenuates(n: float, m: float, a: float) -> bool:
    """Whether the split (1-a)*n signals, a*n conjugates onto M clones
    lies in the attenuation regime M < (1-a)n.

    A slack of a few ulps keeps the boundary a = 1 - M/n itself, which
    is not exactly representable, in the amplification regime.
    """
    require_finite(n=n, m=m, a=a)
    return (1.0 - a) * n - m > 1e-9 * max(m, n)


def _split_gain_noise(n: float, m: float, a: float) -> tuple[float, float]:
    """(G, n_th) of :func:`asymmetry_gain` and :func:`asymmetry_noise`
    from one evaluation."""
    require_finite(n=n, m=m, a=a)
    if n <= 0:
        raise DomainError(f"total input count must be > 0, got {n}")
    if m <= 0:
        raise DomainError(f"clone count must be > 0, got {m}")
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"conjugate fraction must lie in [0, 1], got {a}")
    if attenuates(n, m, a):
        raise DomainError(
            f"M={m} < (1-a)n={(1.0 - a) * n} is the attenuation regime"
        )
    n_sig, n_con = (1.0 - a) * n, a * n
    m_anti = max(m + (2.0 * a - 1.0) * n, 0.0)
    # A split count of a nonzero share that fell below the normal range.
    tiny = sys.float_info.min
    lost = (a < 1.0 and n_sig < tiny) or (a > 0.0 and n_con < tiny)
    gain, excess = _gain_and_excess(n_sig, n_con, m, m_anti, lost)
    return gain, excess / m


def asymmetry_gain(n: float, m: float, a: float) -> float:
    """Gain for splitting n total inputs as (1-a)*n signals, a*n conjugates.

    Continuous relaxation of :func:`gain_from_counts` with N = (1-a)n,
    N' = a*n, M' = M + (2a-1)n; non-integer replica counts are allowed.
    Feasibility requires M >= N, i.e. a >= 1 - M/n (see
    :func:`attenuates`).  Inputs whose products under- or overflow far
    enough to change the gain, or whose gain overflows, raise
    :class:`DomainError` rather than return a wrong gain.
    """
    return _split_gain_noise(n, m, a)[0]


def asymmetry_noise(n: float, m: float, a: float) -> float:
    """Added thermal photons per clone, n_th = (G - 1)/M, for the split of
    :func:`asymmetry_gain`, with N = (1-a)n, N' = a*n, M' = M + N' - N and
    G - 1 from the identity of :func:`noise_report`.  It does not cancel
    as G -> 1: at N = 0 it is M/n, so n_th = 1/n even where M/n is below
    the float epsilon and G rounds to 1.  Raises :class:`DomainError`
    where :func:`asymmetry_gain` does.
    """
    return _split_gain_noise(n, m, a)[1]


def measurement_noise(n_inputs: int, n_conj: int) -> float:
    """Large-M noise floor 1/(sqrt(N) + sqrt(N'))^2 per clone quadrature pair.

    This is the added thermal photon number left when distributing over
    infinitely many clones; equivalently the accuracy of the best joint
    measurement on the same input set.  Both counts must be integers.
    """
    require_finite(n_inputs=n_inputs, n_conj=n_conj)
    require_integer(n_inputs=n_inputs, n_conj=n_conj)
    if n_inputs < 0 or n_conj < 0:
        raise DomainError("replica counts must be >= 0")
    if n_inputs + n_conj < 1:
        raise DomainError("need at least one input replica")
    return 1.0 / (math.sqrt(n_inputs) + math.sqrt(n_conj)) ** 2


def p_function_density(n_th: float, xi: complex, psi: complex) -> float:
    """Glauber P density of a clone: thermal Gaussian of mean photon
    number n_th centred on the target amplitude psi.

    Normalized so that the integral over the complex plane is 1; the
    n_th -> 0 limit is a Dirac delta and must be handled by the caller.
    """
    require_finite(n_th=n_th, xi=xi, psi=psi)
    if n_th <= 0:
        raise DomainError(f"thermal photon number must be > 0, got {n_th}")
    return math.exp(-abs(xi - psi) ** 2 / n_th) / (math.pi * n_th)


def _standard_baseline(k_inputs: int, m_clones: int) -> tuple[float, float]:
    # Best k -> M cloner without conjugate inputs adds 1/k - 1/M thermal
    # photons; for M <= k copying is already perfect, so clamp at zero.
    added = max(0.0, 1.0 / k_inputs - 1.0 / m_clones)
    return 0.5 + added, 1.0 / (1.0 + added)


def noise_report(config: CloningConfig) -> NoiseReport:
    """All closed-form predictions for one configuration.

    The added noise is n_th = (G - 1)/M per clone and (G - 1)/M' per
    anticlone, with G - 1 from the identity

        G - 1 = ((M - N)(M + N')
                 / ((sqrt(M M') + sqrt(N N'))(sqrt(N M) + sqrt(N' M'))))^2,

    which does not cancel as G -> 1.
    """
    n, nc = config.n_inputs, config.n_conj
    m, mc = config.m_clones, config.m_anticlones
    gain, excess = _gain_and_excess(n, nc, m, mc)
    n_th = excess / m
    if mc >= 1:
        n_th_anti = excess / mc
        var_anti = 0.5 + n_th_anti
        f_anti = 1.0 / (1.0 + n_th_anti)
    else:
        n_th_anti = var_anti = f_anti = None
    k = n + nc
    baseline_var, baseline_f = _standard_baseline(k, m)
    return NoiseReport(
        gain=gain,
        n_th_clone=n_th,
        n_th_anticlone=n_th_anti,
        var_clone=0.5 + n_th,
        var_anticlone=var_anti,
        f_clone=1.0 / (1.0 + n_th),
        f_anticlone=f_anti,
        baseline_var=baseline_var,
        baseline_f=baseline_f,
        baseline_f_anticlone=k / (k + 1.0),
        measurement_limit_noise=measurement_noise(n, nc),
    )


def _block_starts(config: CloningConfig) -> tuple[int, int, int, int]:
    """(a2, dist_start, anti_start, total) of the layout: the conjugate
    port, the first clone vacuum, the first anticlone vacuum and the mode
    count.  Slots 0:a2 hold the signal replicas, a2:dist_start the
    conjugate ones; both amplifier ports, 0 and a2, lie in 0:dist_start.
    """
    # Both amplifier ports exist even when a channel has no replicas (the
    # slot is then fed vacuum), hence the max(., 1) block widths.
    a2 = max(config.n_inputs, 1)
    dist_start = a2 + max(config.n_conj, 1)
    anti_start = dist_start + config.m_clones - 1
    return a2, dist_start, anti_start, anti_start + max(config.m_anticlones - 1, 0)


def _machine_layout(config: CloningConfig) -> MachineLayout:
    n, nc, mc = config.n_inputs, config.n_conj, config.m_anticlones
    a1 = 0
    a2, dist_start, anti_start, total = _block_starts(config)
    clone_extra = tuple(range(dist_start, anti_start))
    anti_extra = tuple(range(anti_start, total))

    signal = tuple(range(n))
    conjugate = tuple(range(a2, a2 + nc))
    clone_vac = clone_extra if n else (a1,) + clone_extra
    anti_vac = anti_extra if nc else (a2,) + anti_extra

    clones = (a1,) + clone_extra
    anticlones = (a2,) + anti_extra if mc >= 1 else ()
    leftover = () if mc >= 1 else (a2,)
    residual = tuple(range(1, n)) + tuple(range(a2 + 1, a2 + nc)) + leftover
    return MachineLayout(
        total_modes=total,
        signal_slots=signal,
        conjugate_slots=conjugate,
        clone_vacuum_slots=clone_vac,
        anticlone_vacuum_slots=anti_vac,
        clone_slots=clones,
        anticlone_slots=anticlones,
        residual_slots=residual,
    )


def _apply_stage(
    mm: np.ndarray, ll: np.ndarray, rows: list[int], stage: CanonicalTransform
) -> None:
    """Act with ``stage`` on modes ``rows`` of b = mm a + ll a*, in place.

    This is :func:`~pciclone.canonical.compose` with the stage embedded
    on ``rows``, restricted to the rows the stage changes.
    """
    sm, sl = stage.m_matrix, stage.l_matrix
    m_rows, l_rows = mm[rows], ll[rows]
    mm[rows] = sm @ m_rows + sl @ l_rows.conj()
    ll[rows] = sm @ l_rows + sl @ m_rows.conj()


@dataclass(frozen=True, eq=False)
class _Network:
    """The machine's five stages on ``mode_count`` modes, in order: a
    concentration DFT on each replica block of ``concentration``, the
    ``amplifier`` on its two ``ports``, and an inverse DFT distributing
    each port over itself and the run of vacua that follows it, the
    (port, run) pairs of ``distribution`` (clones, then anticlones).
    ``blocks`` cuts the modes into the replica block R, 0 up to the first
    clone vacuum, which holds both ports, and the two runs C and A of
    vacua: every output row is supported on R and C or on R and A, so the
    sampler draws the Wishart factor in these blocks.
    :func:`build_machine` assembles (M, L) from it; :meth:`_push` applies
    it to columns at O(K log K) each, and its certificates read
    E = S Omega S^T - Omega off probes pushed through it, so the verify
    path holds no K x K array.
    """

    mode_count: int
    concentration: tuple[slice, slice]
    ports: tuple[int, int]
    amplifier: CanonicalTransform
    distribution: tuple[tuple[int, slice], tuple[int, slice]]
    blocks: tuple[slice, slice, slice]

    @cached_property
    def _concentration_runs(self) -> list[tuple[slice, int]]:
        """The concentration DFTs as (run, batch) for
        :func:`~pciclone.canonical._apply_dft`: one batch of two when the
        replica blocks are adjacent and of one length (N = N'), else each
        block alone."""
        signal, conjugate = self.concentration
        length = signal.stop - signal.start
        if conjugate.start == signal.stop and conjugate.stop - conjugate.start == length:
            return [(slice(signal.start, conjugate.stop), 2)]
        return [(rows, 1) for rows in self.concentration]

    def _push(
        self,
        a: np.ndarray,
        transpose: bool = False,
        first: int = 0,
        stop: int | None = None,
    ) -> tuple[slice, ...]:
        """Turn each column alpha of the (K, cols) complex array ``a`` into
        M alpha + L conj(alpha) in place, which is S acting on the
        quadratures (Re alpha, Im alpha).  With ``transpose`` S^T acts
        instead: the stages run in reverse order and each DFT in the
        other direction, since the DFT matrix and the amplifier's
        quadrature matrix are symmetric (a passive U's image transposes
        to that of its conjugate transpose).  Returns the runs of rows the
        push may have changed, which hold every row of ``first`` to
        ``stop``.

        Each block is transformed in place by
        :func:`~pciclone.canonical._apply_dft`, a distribution block
        through its port's row copied next to its run.  ``a``'s columns
        can be nonzero only in the rows ``first`` to ``stop`` (None: to
        the end): the forward push skips the concentration DFTs and the
        amplifier when every replica row, 0 up to the first clone vacuum,
        lies outside them, and a distribution block whose rows all do,
        since those stages would map zeros to zeros.  The transposed push
        never skips.
        """
        k = self.mode_count
        if transpose or stop is None:
            stop = k
        if transpose:
            first = 0
        amplify = first < self.distribution[0][1].start
        dist = [(port, run) for port, run in self.distribution
                if amplify or first < run.stop and run.start < stop]
        conc = [(rows, None, transpose, batch)
                for rows, batch in self._concentration_runs] if amplify else []
        spread = [(run, port, not transpose, 1) for port, run in dist]
        before, after = (spread, conc) if transpose else (conc, spread)
        for rows, port, inverse, batch in before:
            _apply_dft(a, rows, inverse, port, batch)
        if amplify:
            ports = list(self.ports)
            x = a[ports]
            a[ports] = self.amplifier.m_matrix @ x + self.amplifier.l_matrix @ x.conj()
        for rows, port, inverse, batch in after:
            _apply_dft(a, rows, inverse, port, batch)
        if amplify:
            return (slice(0, k),)
        return tuple(r for port, run in dist for r in (slice(port, port + 1), run))

    @cached_property
    def _bound(self) -> float:
        """The probe bound of :data:`~pciclone.gaussian._CERTIFICATE`,
        read through the stages."""
        return _probe_bound(self.mode_count, self._push)

    @property
    def commutation_residual(self) -> float:
        """Upper bound on the commutation residual of the (M, L) the
        stages compose, as :attr:`_bound` states."""
        return self._bound

    @property
    def symplectic_residual(self) -> float:
        """Upper bound on max|S Omega S^T - Omega|, as :attr:`_bound`
        states."""
        return self._bound


def _network(config: CloningConfig) -> tuple[_Network, MachineLayout]:
    """The machine's stages and its layout."""
    layout = _machine_layout(config)
    a2, dist_start, anti_start, k = _block_starts(config)
    # A port with no run (M = 1 or M' <= 1) is a one-mode DFT: the
    # identity.  At M' = 0 port a2 is a residual mode, left so too.
    network = _Network(
        mode_count=k,
        concentration=(slice(0, config.n_inputs), slice(a2, a2 + config.n_conj)),
        ports=(0, a2),
        amplifier=pcia_transform(gain_from_counts(config)),
        distribution=((0, slice(dist_start, anti_start)), (a2, slice(anti_start, k))),
        blocks=(slice(0, dist_start), slice(dist_start, anti_start),
                slice(anti_start, k)),
    )
    return network, layout


def _working_set(config: CloningConfig, samples: int | None = None) -> int:
    """Bytes a run on ``config`` holds at its peak, known before anything
    is allocated: the slots of the layout and the stages, plus (M, L),
    32 K^2 bytes, for :func:`build_machine` (``samples`` None), or for a
    ``verify`` run _VERIFY_BYTES, two arrays the size of one panel of the
    Wishart factor with the sample mean and three the size of the probes:
    16 K (2 (_PANEL + 1) + 3 _PROBES) bytes whatever the sample count.
    Every panel is drawn into one reused buffer and each DFT block is
    transformed in place, so sampling holds the buffer and at most one
    other panel-sized array (a block's part of a panel drawn apart, or
    one block's FFT output), and the certificate, run before it, at most
    four probe-sized ones (the probes, their image and two temporaries of
    its norm); the sum bounds both.
    """
    # montecarlo, which defines the panel width, imports this module.
    from .montecarlo import _PANEL

    k = _block_starts(config)[3]
    if samples is None:
        held = 32 * k * k
    else:
        held = _VERIFY_BYTES + 16 * k * (2 * (_PANEL + 1) + 3 * _PROBES)
    return _SLOT_BYTES * k + held


def _physical_memory() -> float:
    """Bytes of physical memory, read with os.sysconf; inf if unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _require_memory(config: CloningConfig, samples: int | None = None) -> None:
    """Refuse a run whose :func:`_working_set` exceeds physical memory with
    :class:`DomainError`, in numpy's words for a failed allocation."""
    need, have = _working_set(config, samples), _physical_memory()
    if need > have:
        raise DomainError(
            f"Unable to allocate {need / 2**30:.3g} GiB for a machine of "
            f"{_block_starts(config)[3]} modes: physical memory is "
            f"{have / 2**30:.3g} GiB"
        )


def build_machine(config: CloningConfig) -> tuple[CanonicalTransform, MachineLayout]:
    """Explicit K-mode canonical transform of the machine plus its layout.

    The stages of :func:`_network` in order: concentration DFTs act on the
    replica blocks, the amplifier couples the two concentrated ports, and
    inverse DFTs distribute each port over its output block.  Each stage
    updates only the rows of (M, L) it touches, and each DFT, an
    orthonormal FFT run in place on a contiguous run of rows as
    :meth:`_Network._push` runs it, only on the column views of (M, L)
    those rows can reach, so assembly costs O(M log M (N + N' + M) +
    M' log M' (N + N' + M')) beyond allocating the K x K pair, which
    :func:`_require_memory` refuses beyond physical memory.  The transform keeps the stages as a private
    link, so :func:`~pciclone.montecarlo.simulate` pushes through them.
    Feeding the layout's input state yields clones of mean exactly psi and
    anticlones of mean exactly psi*.
    """
    _require_memory(config)
    network, layout = _network(config)
    _, dist_start, anti_start, k = _block_starts(config)
    mm = np.eye(k, dtype=complex)
    ll = np.zeros((k, k), dtype=complex)
    # L stays zero until the amplifier, and each replica block of M is
    # the identity, so concentration acts on that block of M alone.
    for block in network.concentration:
        _apply_dft(mm[:, block], block)
    _apply_stage(mm, ll, list(network.ports), network.amplifier)
    # The ports' rows now reach the inputs 0:dist_start; a distribution
    # block's other rows are its vacua, identity rows of M and zero rows
    # of L.  The clone vacua dist_start:anti_start follow the inputs.
    inputs = slice(0, dist_start)
    m_cols = ([slice(0, anti_start)], [inputs, slice(anti_start, k)])
    for (port, run), cols in zip(network.distribution, m_cols):
        for view in [mm[:, c] for c in cols] + [ll[:, inputs]]:
            _apply_dft(view, run, True, port)
    # Read-only hands both matrices over to the transform uncopied.
    mm.setflags(write=False)
    ll.setflags(write=False)
    transform = CanonicalTransform(mm, ll)
    object.__setattr__(transform, "_network", network)
    return transform, layout


__all__ = [
    "CloningConfig",
    "MachineLayout",
    "NoiseReport",
    "asymmetry_gain",
    "asymmetry_noise",
    "attenuates",
    "build_machine",
    "gain_from_amplitudes",
    "gain_from_counts",
    "measurement_noise",
    "noise_report",
    "p_function_density",
]
