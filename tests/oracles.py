"""Reference computations used only by the tests.

Output moments are derived directly from the operator coefficients
(M, L) by complex-amplitude algebra, never through the quadrature-space
matrix route the library uses, so the two paths verify each other.  For
b_i = sum_j M_ij a_j + L_ij a_j* acting on a product of coherent states
with amplitudes psi_j:

    <b_i>      = sum_j M_ij psi_j + L_ij conj(psi_j)
    Var x_i    = 1/2 sum_j |M_ij|^2 + |L_ij|^2 + 2 Re(M_ij L_ij)
    Var p_i    = 1/2 sum_j |M_ij|^2 + |L_ij|^2 - 2 Re(M_ij L_ij)
    Cov(x,p)_i = sum_j Im(M_ij L_ij)

The fidelity oracle integrates the thermal Glauber P density against the
coherent-state overlap kernel exp(-|xi - psi|^2) radially.

The assembly oracle builds the machine the dense way, embedding every
stage, the DFTs as the explicit matrices of :func:`dft_transform`, in a
K x K transform and composing them with :func:`compose`, where the
library pushes identity columns through the stages and applies the DFTs
as orthonormal FFTs.  The gathered-DFT oracles take each DFT block's
rows by index into a copy, FFT blocks of one length in one batched call
and scatter the result back, both for the stages' pushes and for
assembly, which updates the rows of (M, L) stage by stage, each DFT on
the columns its rows can reach, where the library transforms each block
in place on one contiguous run of rows; the two agree bit for bit.

The asymmetry oracle finds the best conjugate fraction by brute force, a
grid scan sharpened by golden-section search, where the library uses a
closed form.  The amplifier oracle finds the search's multiplier
iteratively, by Brent's method on the secular function of the reduced
problem :class:`AmplifierSearchProblem`, where the library solves the
secular equation in closed form and reads its certificate without the
problem's functions.

The certificate oracles evaluate the commutation and symplectic
residuals from their defining dense products, with the dense symplectic
form, where the library bounds both from Gaussian probes pushed through
the map, never forming E = S Omega S^T - Omega.  The dense probe oracle
applies the whole E to the same probes and reads them mode by mode.  The
one-pass probe oracle pushes all the probes through the map at once, as
the library did before it pushed them in batches, and must read the
library's bits.
The amplitude-gain oracle is the closed form without the library's
power-of-two rescaling.

The comparison oracle scores sampled moments one output mode at a time,
through a single-mode Gaussian state and :func:`fidelity_with_coherent`,
where the library scores all modes as whole arrays.

The sampling oracle is stream version 1: it draws every sample, block
by block with :func:`block_normals`, pushes each block through S by one
product and merges the block moments in order, where the library draws
the moments themselves from their exact law (stream version 9).  The
two agree in law, not in bits.  Stream version 3, which drew the same
law's Wishart factor F whole and row by row, is an oracle too, and so
are the block factor F' of stream versions 5 to 7 assembled whole from
its panels (stream version 4's F where it has one block) and stream
versions 8's and 9's g and F', drawn panel by panel over every column a
panel's rows hold, version 9's placed through an explicit support mask
and a permutation of the anticlone block's rows: all feed one product
with the whole S, from the library's generator or from PCG64, where the
library pushes one panel of F' at a time through the machine's stages.
The normals of stream versions 1 to 6 are numpy's ``standard_normal``,
those of stream versions 7 to 9 the library's Box-Muller kernel; :func:`box_muller` is that kernel's
float64 reference, its angle and cosine and sine in float64 where the
kernel takes them in float32.

The Fock oracle works outside phase space, where every other check
shares its conventions (a = (x + ip)/sqrt(2), vacuum variance 1/2, the
quadrature image and the coherent-fidelity formula): it squeezes the
concentrated inputs as truncated Fock vectors and reads each clone's
and anticlone's fidelity off a density matrix sent through a loss
channel, where the library propagates Gaussian moments.

The added-noise oracle evaluates n_th = (G - 1)/M and (G - 1)/M' in
60-digit decimal arithmetic.  The symplectic-image oracle fills S from
the complex sums M + L and M - L, where the library writes each block
in place.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.sparse.linalg import expm_multiply

from pciclone import gaussian
from pciclone.canonical import CanonicalTransform, pcia_transform, to_symplectic
from pciclone.errors import DomainError, require_integer
from pciclone.gaussian import GaussianState, fidelity_with_coherent, symplectic_form
from pciclone.machine import (
    _block_starts,
    _machine_layout,
    _network,
    asymmetry_gain,
    gain_from_counts,
)
from pciclone.montecarlo import (
    BLOCK_SIZE,
    _PANEL,
    ComparisonSummary,
    EmpiricalMoments,
    _generator,
    _normals,
)


def operator_means(m, l, psi):
    """Complex output amplitudes for coherent inputs psi (length-K)."""
    psi = np.asarray(psi, dtype=complex)
    return m @ psi + l @ psi.conj()


def quadrature_mean_vector(m, l, psi):
    """Interleaved (x1, p1, ..., xK, pK) means, convention a=(x+ip)/sqrt(2)."""
    amps = operator_means(m, l, psi)
    out = np.empty(2 * len(amps))
    out[0::2] = np.sqrt(2.0) * amps.real
    out[1::2] = np.sqrt(2.0) * amps.imag
    return out


def operator_variances(m, l):
    """Arrays (var_x, var_p, cov_xp) per output mode for vacuum-noise inputs."""
    mag = np.abs(m) ** 2 + np.abs(l) ** 2
    re = 2.0 * np.real(m * l)
    var_x = 0.5 * np.sum(mag + re, axis=1)
    var_p = 0.5 * np.sum(mag - re, axis=1)
    cov_xp = np.sum(np.imag(m * l), axis=1)
    return var_x, var_p, cov_xp


def thermal_overlap_fidelity(n_th):
    """Numerical overlap of a thermal P density of width n_th with the
    coherent projector; closed form would be 1/(1+n_th)."""
    integrand = lambda r: (2.0 * r / n_th) * np.exp(-r * r / n_th - r * r)
    value, _ = quad(integrand, 0.0, np.inf)
    return value


def scan_asymmetry(n, m, grid_step=1e-3, refine_tol=1e-9):
    """(a, gain) minimizing asymmetry_gain(n, m, a) over the feasible
    a in [max(0, 1 - M/n), 1]: a uniform grid, ties toward the smallest
    a, then golden-section search around an interior grid minimum."""
    a_lo = max(0.0, 1.0 - m / n)
    count = max(int(math.ceil((1.0 - a_lo) / grid_step)) + 1, 2)
    grid = np.linspace(a_lo, 1.0, count)
    gains = np.array([asymmetry_gain(n, m, a) for a in grid])
    idx = int(np.flatnonzero(gains <= gains.min() + 1e-12)[0])
    a = float(grid[idx])
    if 0 < idx < len(grid) - 1 and gains[idx - 1] > gains[idx] < gains[idx + 1]:
        res = minimize_scalar(
            lambda x: asymmetry_gain(n, m, x),
            bracket=(grid[idx - 1], grid[idx], grid[idx + 1]),
            method="golden",
            options={"xtol": refine_tol},
        )
        a = float(min(max(res.x, grid[idx - 1]), grid[idx + 1]))
    return a, asymmetry_gain(n, m, a)


@dataclass(frozen=True)
class AmplifierSearchProblem:
    """Reduced minimization after gauge fixing and mean-constraint elimination.

    All row coefficients are taken real (phases gauged away) and beta is
    scaled to 1, leaving alpha and gamma rescaled accordingly.  The mean
    constraint <b> = gamma*psi for every psi forces

        l12 = gamma - alpha*m11        m12 = -alpha*l11,

    so the free variables are x = (m11, l11, m13, l13).  The objective is
    the output noise (half the sum of squared coefficients) and the
    constraint is the row normalization sum(M^2) - sum(L^2) = 1.
    """

    alpha: float
    gamma: float

    def coefficients(self, x: np.ndarray) -> tuple[float, ...]:
        """(m11, m12, m13, l11, l12, l13) implied by the free variables."""
        m11, l11, m13, l13 = x
        return (
            float(m11),
            float(-self.alpha * l11),
            float(m13),
            float(l11),
            float(self.gamma - self.alpha * m11),
            float(l13),
        )

    def objective(self, x: np.ndarray) -> float:
        m11, l11, m13, l13 = x
        l12 = self.gamma - self.alpha * m11
        return 0.5 * (
            m11 * m11
            + l12 * l12
            + (1.0 + self.alpha**2) * l11 * l11
            + m13 * m13
            + l13 * l13
        )

    def objective_grad(self, x: np.ndarray) -> np.ndarray:
        m11, l11, m13, l13 = x
        l12 = self.gamma - self.alpha * m11
        return np.array(
            [m11 - self.alpha * l12, (1.0 + self.alpha**2) * l11, m13, l13]
        )

    def constraint(self, x: np.ndarray) -> float:
        m11, l11, m13, l13 = x
        l12 = self.gamma - self.alpha * m11
        return (
            m11 * m11
            - l12 * l12
            - (1.0 - self.alpha**2) * l11 * l11
            + m13 * m13
            - l13 * l13
            - 1.0
        )

    def constraint_grad(self, x: np.ndarray) -> np.ndarray:
        m11, l11, m13, l13 = x
        l12 = self.gamma - self.alpha * m11
        return np.array(
            [
                2.0 * m11 + 2.0 * self.alpha * l12,
                -2.0 * (1.0 - self.alpha**2) * l11,
                2.0 * m13,
                -2.0 * l13,
            ]
        )


def secular_amplifier(alpha, beta, gamma):
    """(couplings (m11, m12, m13, l11, l12, l13), multiplier) of the
    amplifier search, found by Brent's method (Moré, 1993).

    The problem is :class:`AmplifierSearchProblem`'s, in coordinates
    y = (m11 - 1, l11, m13, l13) that keep the digits of l12 near
    gamma = alpha: with the excess delta = (gamma - alpha)/beta, formed
    exactly (Sterbenz) before the division, l12 = delta - alpha*y_0, and
    the constraint is -delta^2 + g.y + y.C.y/2, with no cancelling
    gamma - alpha*m11 or m11^2 - 1.  Objective and constraint have the
    diagonal Hessians A, C and linear terms f, g, and the stationary point
    y(lambda) = -(f + lambda*g) / (A + lambda*C) is taken per coordinate
    on the window of lambda where A + lambda*C is positive semidefinite.
    The constraint along it, the secular function phi(lambda), does not
    increase there; its root is the solution.  When phi has no root in
    the window (the hard case alpha = 0), lambda sits at the window's
    lower end and m11, whose curvature vanishes there, takes the
    constraint mass.  One exact step along the constraint gradient
    closes the gap rounding leaves, and lambda is refitted to the final
    point by least squares.
    """
    a, b, c = abs(alpha), abs(beta), abs(gamma)
    al, delta = a / b, (c - a) / b
    a2 = al * al
    hess_f = np.array([1.0 + a2, 1.0 + a2, 1.0, 1.0])
    hess_g = 2.0 * np.array([1.0 - a2, a2 - 1.0, 1.0, -1.0])
    lin_f = np.array([1.0 - al * delta, 0.0, 0.0, 0.0])
    lin_g = np.array([2.0 + 2.0 * al * delta, 0.0, 0.0, 0.0])
    up, down = hess_g > 0, hess_g < 0
    lam_lo = float(np.max(-hess_f[up] / hess_g[up]))
    lam_hi = float(np.min(-hess_f[down] / hess_g[down]))

    def constraint(y):
        return float(lin_g @ y + 0.5 * (y @ (hess_g * y)) - delta * delta)

    def stationary(lam):
        curv = hess_f + lam * hess_g
        return np.divide(-(lin_f + lam * lin_g), curv, out=np.zeros(4), where=curv > 0)

    def phi(lam):
        return constraint(stationary(lam))

    phi_lo, phi_hi = phi(lam_lo), phi(lam_hi)
    if phi_lo >= 0.0 >= phi_hi:
        lam = brentq(phi, lam_lo, lam_hi, xtol=1e-300, disp=False)
    else:
        lam = lam_lo if phi_lo < 0.0 else lam_hi
    y = stationary(lam)

    # The constraint is quadratic along the line; take the root nearest y.
    grad = lin_g + hess_g * y
    if grad.any():
        d = grad / np.max(np.abs(grad))
    else:
        d = np.eye(4)[np.argmin(hess_f + lam * hess_g)]
    gap, slope, bend = constraint(y), grad @ d, d @ (hess_g * d)
    root = math.sqrt(max(slope * slope - 2.0 * bend * gap, 0.0))
    denom = slope + math.copysign(root, slope)
    if denom:
        y = y - 2.0 * gap / denom * d
    grad, obj_grad = lin_g + hess_g * y, lin_f + hess_f * y
    lam = -float(obj_grad @ grad) / float(grad @ grad)
    v, l11, m13, l13 = (float(t) for t in y)
    return (1.0 + v, -al * l11, m13, l11, delta - al * v, l13), lam


def identity_transform(mode_count):
    """M = identity, L = 0."""
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    return CanonicalTransform(np.eye(mode_count), np.zeros((mode_count, mode_count)))


def embed(transform, targets, total_modes):
    """Act with ``transform`` on the listed modes, identity elsewhere."""
    if len(targets) != transform.mode_count:
        raise DomainError(
            f"{transform.mode_count}-mode transform given {len(targets)} targets"
        )
    if len(set(targets)) != len(targets):
        raise DomainError(f"repeated target index in {targets}")
    for t in targets:
        if not 0 <= t < total_modes:
            raise DomainError(f"target index {t} out of range [0, {total_modes})")
    m = np.eye(total_modes, dtype=complex)
    l = np.zeros((total_modes, total_modes), dtype=complex)
    sel = np.ix_(targets, targets)
    m[sel] = transform.m_matrix
    l[sel] = transform.l_matrix
    return CanonicalTransform(m, l)


def compose(
    first: CanonicalTransform, second: CanonicalTransform
) -> CanonicalTransform:
    """Transform acting as ``second`` after ``first``.

    Substituting b = M1 a + L1 a* into c = M2 b + L2 b* gives
    M = M2 M1 + L2 conj(L1) and L = M2 L1 + L2 conj(M1).
    """
    if first.mode_count != second.mode_count:
        raise DomainError(
            f"mode counts differ: {first.mode_count} vs {second.mode_count}"
        )
    m1, l1 = first.m_matrix, first.l_matrix
    m2, l2 = second.m_matrix, second.l_matrix
    return CanonicalTransform(m2 @ m1 + l2 @ l1.conj(), m2 @ l1 + l2 @ m1.conj())


def dft_transform(mode_count: int, inverse: bool = False) -> CanonicalTransform:
    """Passive discrete-Fourier mixing of K modes (L = 0).

    The forward direction concentrates: its first row is uniformly
    1/sqrt(K), so K equal coherent amplitudes psi merge into a single mode
    of amplitude sqrt(K) psi while the other K-1 outputs are left in the
    vacuum.  With ``inverse=True`` the conjugate transpose distributes one
    mode evenly over K outputs (first column uniformly 1/sqrt(K)).

    Entries follow the unitary convention M_lk = exp(2 pi i l k / K)/sqrt(K).
    """
    require_integer(mode_count=mode_count)
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    idx = np.arange(mode_count)
    m = np.exp(2j * np.pi * np.outer(idx, idx) / mode_count) / np.sqrt(mode_count)
    return CanonicalTransform(
        m.conj().T if inverse else m, np.zeros((mode_count, mode_count))
    )


def dense_build_machine(config):
    """(transform, layout) of the machine from dense K x K stages composed
    in order: concentrate, amplify, distribute."""
    layout = _machine_layout(config)
    n, nc, mc = config.n_inputs, config.n_conj, config.m_anticlones
    a1, a2 = 0, max(n, 1)
    k = layout.total_modes
    stages = []
    if n > 1:
        stages.append(embed(dft_transform(n), list(range(n)), k))
    if nc > 1:
        stages.append(embed(dft_transform(nc), list(range(a2, a2 + nc)), k))
    stages.append(embed(pcia_transform(gain_from_counts(config)), [a1, a2], k))
    stages.append(
        embed(dft_transform(config.m_clones, inverse=True), list(layout.clone_slots), k)
    )
    if mc > 1:
        stages.append(
            embed(dft_transform(mc, inverse=True), list(layout.anticlone_slots), k)
        )
    transform = identity_transform(k)
    for stage in stages:
        transform = compose(transform, stage)
    return transform, layout


def gathered_dft(arrays, rows, inverse=False):
    """Act with ``dft_transform(len(rows), inverse)`` on the rows ``rows``
    (indices, or a slice) of ``arrays``, an array or a list of arrays
    sharing those rows, in place: the rows are gathered into one copy
    (the arrays' columns joined), FFTed into a new array and scattered
    back.  A (B, K) index array acts on B blocks of K rows with one
    batched FFT.  Fewer than two rows are left as they are."""
    if isinstance(arrays, np.ndarray):
        arrays = [arrays]
    idx = rows if isinstance(rows, slice) else np.asarray(rows, dtype=np.intp)
    blocks = [a[idx] for a in arrays]
    if blocks[0].shape[-2] < 2:
        return
    fft = np.fft.fft if inverse else np.fft.ifft
    whole = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)
    out = fft(whole, axis=-2, norm="ortho")
    start = 0
    for a, block in zip(arrays, blocks):
        a[idx] = out[..., start : start + block.shape[-1]]
        start += block.shape[-1]


def _gathered_stage(blocks):
    """A DFT stage's two row lists as :func:`gathered_dft` takes them:
    one (2, length) index array if both have one length, else the two."""
    rows = [np.asarray(b, dtype=np.intp) for b in blocks]
    return [np.stack(rows)] if len(rows[0]) == len(rows[1]) else rows


def gathered_push(config, a, transpose=False):
    """:meth:`~pciclone.machine._Network._push` of the machine of
    ``config`` by :func:`gathered_dft`, its distribution rows read off
    the layout's clone and anticlone slots, never skipping a stage."""
    network, layout = _network(config)
    modes = np.arange(layout.total_modes)
    conc = _gathered_stage([modes[b] for b in network.concentration])
    dist = _gathered_stage([layout.clone_slots, layout.anticlone_slots])
    first = [(rows, transpose) for rows in conc]
    last = [(rows, not transpose) for rows in dist]
    if transpose:
        first, last = last, first
    for rows, inverse in first:
        gathered_dft(a, rows, inverse)
    ports = list(network.ports)
    x = a[ports]
    amp = network.amplifier
    a[ports] = amp.m_matrix @ x + amp.l_matrix @ x.conj()
    for rows, inverse in last:
        gathered_dft(a, rows, inverse)


def gathered_build_machine(config):
    """The (M, L) of :func:`~pciclone.machine.build_machine` by
    :func:`gathered_dft`: each distribution block's rows, read off the
    layout, gathered with the columns they reach joined."""
    network, layout = _network(config)
    _, dist_start, anti_start, k = _block_starts(config)
    mm = np.eye(k, dtype=complex)
    ll = np.zeros((k, k), dtype=complex)
    for block in network.concentration:
        gathered_dft(mm[:, block], block)
    # The amplifier on the ports' rows of b = mm a + ll a*.
    ports = list(network.ports)
    amp = network.amplifier
    m_rows, l_rows = mm[ports], ll[ports]
    mm[ports] = amp.m_matrix @ m_rows + amp.l_matrix @ l_rows.conj()
    ll[ports] = amp.m_matrix @ l_rows + amp.l_matrix @ m_rows.conj()
    inputs = slice(0, dist_start)
    m_cols = ([slice(0, anti_start)], [inputs, slice(anti_start, k)])
    for rows, cols in zip((layout.clone_slots, layout.anticlone_slots), m_cols):
        gathered_dft([mm[:, c] for c in cols] + [ll[:, inputs]], rows, inverse=True)
    return mm, ll


def dense_commutation_residual(m, l):
    """Max-norm of M L^T - L M^T and of M M^H - L L^H - I, each from two
    dense complex products."""
    sym = m @ l.T - l @ m.T
    unit = m @ m.conj().T - l @ l.conj().T - np.eye(m.shape[0])
    return float(max(np.max(np.abs(sym)), np.max(np.abs(unit))))


def dense_symplectic_residual(s):
    """Max-norm of S Omega S^T - Omega with the dense 2K x 2K Omega."""
    omega = symplectic_form(s.shape[0] // 2)
    return float(np.max(np.abs(s @ omega @ s.T - omega)))


def probe_quadratures(k):
    """The probes of :func:`~pciclone.gaussian._probe_bound` for K modes,
    as a real (2K, probes) array of interleaved quadratures."""
    gen = np.random.default_rng(gaussian._PROBE_SEED)
    v = gen.standard_normal((k, 2 * gaussian._PROBES)).view(complex)
    return np.stack((v.real, v.imag), axis=1).reshape(2 * k, -1)


def dense_probe_bound(s):
    """max_{i,j} ||(E v_j)_i|| / eps over the modes i, (E v_j)_i being
    mode i's (x, p) pair of E v_j, with the dense E = S Omega S^T - Omega
    and the library's probes v_j; NaN or inf if E holds one."""
    k = s.shape[0] // 2
    omega = symplectic_form(k)
    with np.errstate(invalid="ignore", over="ignore"):
        e = (s @ omega @ s.T - omega) @ probe_quadratures(k)
        pairs = np.linalg.norm(e.reshape(k, 2, -1), axis=1)
        return float(np.max(pairs)) / gaussian._PROBE_EPSILON


@np.errstate(invalid="ignore", over="ignore")  # a NaN or inf is the refusal
def one_pass_probe_bound(mode_count, push):
    """The probe bound of :func:`~pciclone.gaussian._probe_bound` with
    every probe pushed in one pass: the probes, their image and |E v|
    held at once."""
    gen = np.random.default_rng(gaussian._PROBE_SEED)
    v = gen.standard_normal((mode_count, 2 * gaussian._PROBES)).view(complex)
    e = v.copy()
    push(e, True)
    e *= -1j
    push(e, False)
    v *= 1j
    e += v
    return float(np.max(np.abs(e))) / gaussian._PROBE_EPSILON


def commutation_scale(m, l):
    """Bound on the entries of M M^H + L L^H and of |M L^T| + |L M^T|:
    the largest squared row norm of [M L].  Rounding in either residual
    is relative to this size, not to the residual itself."""
    return float(np.max(np.sum(np.abs(m) ** 2 + np.abs(l) ** 2, axis=1)))


def symplectic_scale(s):
    """Bound on the entries of |X| |Y|^T + |Y| |X|^T: the largest squared
    row norm of S."""
    return float(np.max(np.sum(s**2, axis=1)))


def unscaled_gain_from_amplitudes(alpha, beta, gamma):
    """Amplitude gain (gamma^2 + beta^2)^2 / (alpha gamma + beta root)^2
    on the unscaled magnitudes."""
    a, b, c = abs(alpha), abs(beta), abs(gamma)
    root = math.sqrt(c * c - a * a + b * b)
    return ((c * c + b * b) / (a * c + b * root)) ** 2


def _scalar_z(diff, se):
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return float(diff / se)


def per_mode_compare(emp, report, layout, threshold=5.0):
    """ComparisonSummary of ``emp`` against ``report``, one mode at a time:
    each mode's moments become a single-mode GaussianState whose fidelity
    with its target comes from fidelity_with_coherent."""
    if emp.mode_count != layout.total_modes:
        raise DomainError(
            f"moments cover {emp.mode_count} modes, layout has {layout.total_modes}"
        )
    if layout.anticlone_slots and report.var_anticlone is None:
        raise DomainError("layout has anticlones but the report carries none")

    psi = emp.psi
    sqrt2 = math.sqrt(2.0)
    expectations = {}
    for mode in layout.clone_slots:
        expectations[mode] = ("clone", psi, report.var_clone, report.f_clone)
    for mode in layout.anticlone_slots:
        expectations[mode] = (
            "anticlone",
            psi.conjugate(),
            report.var_anticlone,
            report.f_anticlone,
        )
    for mode in layout.residual_slots:
        expectations[mode] = ("residual", 0j, 0.5, 1.0)

    roles, z_rows = [], []
    for mode in sorted(expectations):
        role, amp, var_pred, f_pred = expectations[mode]
        mean_pred = (sqrt2 * amp.real, sqrt2 * amp.imag)
        mx, mp = emp.means[mode]
        vx, vp = emp.covariances[mode, 0, 0], emp.covariances[mode, 1, 1]
        se_mx, se_mp = emp.mean_se[mode]
        se_vx, se_vp = emp.var_se[mode]

        state = GaussianState(1, emp.means[mode], emp.covariances[mode])
        f_emp = fidelity_with_coherent(state, 0, amp)
        # Delta method through f = 1/(1 + n_th) with n_th estimated from
        # the two quadrature variances.
        n_th_emp = 0.5 * (vx + vp) - 0.5
        se_n_th = 0.5 * math.hypot(se_vx, se_vp)
        se_f = se_n_th / (1.0 + n_th_emp) ** 2

        roles.append(role)
        z_rows.append([
            _scalar_z(mx - mean_pred[0], se_mx),
            _scalar_z(mp - mean_pred[1], se_mp),
            _scalar_z(vx - var_pred, se_vx),
            _scalar_z(vp - var_pred, se_vp),
            _scalar_z(f_emp - f_pred, se_f),
        ])
    return ComparisonSummary(tuple(roles), np.array(z_rows), threshold)


def comparison_summary(roles, z, threshold=5.0):
    """``ComparisonSummary.to_dict``'s ``by_role`` and ``flagged`` from the
    (K, 5) table ``z``, one mode and one column at a time: the mean and
    spread (population standard deviation) by math.fsum over the
    column's finite z-scores, None if any is not finite, and the worst
    z the first largest |z|, a NaN beating every number, as None when
    not finite."""

    def json_float(x):
        return x if math.isfinite(x) else None

    rows = np.asarray(z, dtype=float).tolist()
    by_role = {}
    for role in ("clone", "anticlone", "residual"):
        modes = [j for j, r in enumerate(roles) if r == role]
        if not modes:
            continue
        entry = {"modes": len(modes), "above": [], "mean": [], "spread": [],
                 "worst_mode": [], "worst_z": []}
        for c in range(5):
            column = [rows[j][c] for j in modes]
            entry["above"].append(sum(not abs(x) <= threshold for x in column))
            worst = modes[0]
            for j in modes:
                here, best = rows[j][c], rows[worst][c]
                if not math.isnan(best) and (math.isnan(here) or abs(here) > abs(best)):
                    worst = j
            mean = spread = None
            if all(math.isfinite(x) for x in column):
                mean = math.fsum(column) / len(column)
                square = math.fsum((x - mean) ** 2 for x in column)
                spread = math.sqrt(square / len(column))
            entry["mean"].append(mean)
            entry["spread"].append(spread)
            entry["worst_mode"].append(worst)
            entry["worst_z"].append(json_float(rows[worst][c]))
        by_role[role] = entry
    flagged = [{"mode": j, "role": roles[j], "z": [json_float(x) for x in row]}
               for j, row in enumerate(rows)
               if not all(abs(x) <= threshold for x in row)]
    return {"by_role": by_role, "flagged": flagged}


def exact_added_noise(n, nc, m):
    """(n_th clone, n_th anticlone or None) of counts (N, N', M), from
    G - 1 in 60-digit decimal arithmetic."""
    mc = m + nc - n
    with localcontext() as ctx:
        ctx.prec = 60
        root_gain = Decimal(m + nc) / (Decimal(n * m).sqrt() + Decimal(nc * mc).sqrt())
        excess = root_gain * root_gain - 1
        return +(excess / m), (+(excess / mc) if mc >= 1 else None)


def _fock_coherent(amplitude, cutoff):
    """The coherent state |amplitude> on Fock levels 0 to cutoff - 1."""
    c = np.empty(cutoff, dtype=complex)
    c[0] = math.exp(-abs(amplitude) ** 2 / 2.0)
    for n in range(1, cutoff):
        c[n] = c[n - 1] * amplitude / math.sqrt(n)
    return c


def _fock_loss(rho, eta):
    """A one-mode density matrix sent through the loss channel of
    transmissivity ``eta``, through its Kraus operators
    E_k |n> = sqrt(C(n, k) eta^(n-k) (1 - eta)^k) |n - k>."""
    cutoff = rho.shape[0]
    out = np.zeros_like(rho)
    for k in range(cutoff):
        n = np.arange(k, cutoff)
        kraus = np.zeros((cutoff, cutoff))
        kraus[n - k, n] = np.sqrt(
            [math.comb(j, k) * eta ** (j - k) * (1.0 - eta) ** k for j in n])
        out += kraus @ rho @ kraus.T
    return out


def fock_fidelities(config, psi, cutoff):
    """(clone fidelity with psi, anticlone fidelity with conj(psi)) of the
    machine of ``config``, in Fock space truncated to ``cutoff`` levels
    a mode.

    Once concentrated, the inputs are |sqrt(N) psi> on the first
    amplifier port and |sqrt(N') conj(psi)> on the second.  The amplifier
    is the two-mode squeezer exp(r (a1^+ a2^+ - a1 a2)), cosh r = sqrt(G),
    applied by ``expm_multiply``; G is the gain that takes the ports' means
    to sqrt(M) psi and sqrt(M') conj(psi).  The distribution DFT spreads a
    port evenly over its block, the other inputs vacua, so each clone's
    marginal is the first port's reduced state through a loss channel of
    transmissivity 1/M, and each anticlone's the second's at 1/M'
    (M' >= 1).  The levels the cutoff drops must hold a negligible mass.
    """
    n, nc, m, mc = config.n_inputs, config.n_conj, config.m_clones, config.m_anticlones
    root_gain = (m + nc) / (math.sqrt(n * m) + math.sqrt(nc * mc))
    r = math.acosh(root_gain)
    state = np.outer(_fock_coherent(math.sqrt(n) * psi, cutoff),
                     _fock_coherent(math.sqrt(nc) * np.conj(psi), cutoff))
    # a1^+ a2^+ |j, l> = sqrt((j + 1)(l + 1)) |j + 1, l + 1>, flat index
    # j * cutoff + l.
    j, l = np.divmod(np.arange(cutoff * cutoff), cutoff)
    keep = (j < cutoff - 1) & (l < cutoff - 1)
    src = np.flatnonzero(keep)
    raise_both = sparse.csr_matrix(
        (r * np.sqrt((j[keep] + 1.0) * (l[keep] + 1.0)), (src + cutoff + 1, src)),
        shape=(cutoff * cutoff,) * 2)
    out = expm_multiply(raise_both - raise_both.T, state.reshape(-1))
    out = out.reshape(cutoff, cutoff)
    fidelities = []
    for rho, eta, target in ((out @ out.conj().T, 1.0 / m, psi),
                             (out.T @ out.conj(), 1.0 / mc, np.conj(psi))):
        ket = _fock_coherent(target, cutoff)
        fidelities.append(float((ket.conj() @ _fock_loss(rho, eta) @ ket).real))
    return tuple(fidelities)


def ulps_from(got, want):
    """|got - want| in units of the float spacing at ``want`` (a Decimal)."""
    if want == 0:
        return 0.0 if got == 0.0 else math.inf
    with localcontext() as ctx:
        ctx.prec = 60
        return float(abs(Decimal(got) - want) / Decimal(math.ulp(float(want))))


def quadrature_image_from_sums(transform):
    """S of :attr:`CanonicalTransform.quadrature_image`, filled from the
    K x K complex temporaries M + L and M - L."""
    plus = transform.m_matrix + transform.l_matrix
    minus = transform.m_matrix - transform.l_matrix
    k = transform.mode_count
    s = np.empty((2 * k, 2 * k))
    s[0::2, 0::2] = plus.real
    s[0::2, 1::2] = -minus.imag
    s[1::2, 0::2] = plus.imag
    s[1::2, 1::2] = minus.real
    return s


def block_normals(seed: int, block_index: int, rows: int, cols: int) -> np.ndarray:
    """Standard normals of block ``block_index`` under stream version 1."""
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((rows, cols))


def _merge_blocks(acc, block):
    # Pooled update for (count, mean, centered square sums, centered
    # cross sums); associative with fixed order, so blockwise equals a
    # single pass up to rounding (Chan, Golub & LeVeque 1979).
    n1, mu1, sq1, cross1 = acc
    n2, mu2, sq2, cross2 = block
    n = n1 + n2
    delta = mu2 - mu1
    w = n1 * n2 / n
    mu = mu1 + delta * (n2 / n)
    sq = sq1 + sq2 + w * delta * delta
    cross = cross1 + cross2 + w * delta[0::2] * delta[1::2]
    return n, mu, sq, cross


def serial_simulate(transform, layout, config):
    """EmpiricalMoments of a stream-version-1 run, one block at a time:
    block b is ``block_normals(seed, b, rows, 2K)`` scaled, shifted and
    multiplied by S^T whole, reduced about its mean, and merged in order."""
    s_t = to_symplectic(transform).matrix.T
    k = layout.total_modes
    amps = layout.input_amplitudes(config.psi)
    mu_in = np.empty(2 * k)
    mu_in[0::2] = np.sqrt(2.0) * amps.real
    mu_in[1::2] = np.sqrt(2.0) * amps.imag
    acc = (0.0, np.zeros(2 * k), np.zeros(2 * k), np.zeros(k))
    for block_index, start in enumerate(range(0, config.sample_count, BLOCK_SIZE)):
        rows = min(BLOCK_SIZE, config.sample_count - start)
        z = block_normals(config.seed, block_index, rows, 2 * k)
        z *= math.sqrt(0.5)
        z += mu_in
        y = z @ s_t
        mu = y.mean(axis=0)
        y -= mu
        sq = np.einsum("ij,ij->j", y, y)
        cross = np.einsum("ij,ij->j", y[:, 0::2], y[:, 1::2])
        acc = _merge_blocks(acc, (float(rows), mu, sq, cross))
    n, mu, sq, cross = acc
    var = sq / (n - 1.0)
    covariances = np.empty((k, 2, 2))
    covariances[:, 0, 0] = var[0::2]
    covariances[:, 1, 1] = var[1::2]
    covariances[:, 0, 1] = covariances[:, 1, 0] = cross / (n - 1.0)
    var_pairs = var.reshape(k, 2)
    return EmpiricalMoments(
        sample_count=config.sample_count,
        psi=config.psi,
        means=mu.reshape(k, 2),
        covariances=covariances,
        mean_se=np.sqrt(var_pairs / n),
        var_se=var_pairs * math.sqrt(2.0 / (n - 1.0)),
    )


def stream_3_factor(gen, d, dof):
    """Stream version 3's d x r factor F of F F^T ~ Wishart(I_d, dof),
    r = min(d, dof): F_ii = sqrt(chi^2(dof - i)) from one ``chisquare``
    call, then the normals below the diagonal, one ``standard_normal``
    call per row, zeros above it (Bartlett, Proc. R. Soc. Edinburgh 53,
    260 (1933); Uhlig, Ann. Statist. 22, 395 (1994), for dof < d)."""
    r = min(d, dof)
    f = np.zeros((d, r))
    np.fill_diagonal(f, np.sqrt(gen.chisquare(dof - np.arange(r))))
    for i in range(1, d):
        gen.standard_normal(out=f[i, : min(i, r)])
    return f


def standard_normals(gen, shape):
    """The normals of stream versions 1 to 6: numpy's ``standard_normal``."""
    return gen.standard_normal(shape)


def stream_7_normals(gen, shape):
    """The normals of stream versions 7 to 9, from the library's kernel."""
    z = np.empty(shape)
    _normals(gen, z.reshape(-1))
    return z


def box_muller(gen, size):
    """``size`` normals, and the radius of each, by Box-Muller in float64
    from consecutive pairs (u, v) of ``gen.random``: (r cos t, r sin t)
    with r = sqrt(-2 log(1 - u)) and t = 2 pi v, all in float64."""
    u, v = gen.random((size // 2, 2)).T
    r = np.sqrt(-2.0 * np.log(1.0 - u))
    t = 2.0 * np.pi * v
    return (np.column_stack((r * np.cos(t), r * np.sin(t))).reshape(-1),
            np.repeat(r, 2))


def stream_5_factor(gen, d, dof, blocks=None, normals=standard_normals):
    """Stream version 5's block factor F', assembled whole as a d x r
    array, its normals drawn by ``normals(gen, shape)``: numpy's for
    stream versions 4 to 6, :func:`stream_7_normals` for stream version
    7.  ``blocks`` are runs of modes tiling range(d/2), the first
    shared; None is one block, for which F' is stream version 4's F.
    The shared block takes r_0 = min(d_0, dof) columns, each other block
    b r_b = min(d_b, dof - r_0), d_b being its quadrature rows, in block
    order.  The chi^2 diagonal comes first, from one ``chisquare`` call
    over every column's degrees of freedom (dof - i in the shared block,
    dof - r_0 - i in the others).  Then each _PANEL-column panel from
    column c takes, block by block, one (rows, w_b, 2) draw of its
    columns in that block, each mode's column entries as (x, p), over the
    modes from the block's column j0 (mode start + j0/2) down to the end
    of every block (shared) or of its own; F' keeps the draws on and below
    each block's diagonal, puts chi on it and is zero elsewhere."""
    blocks = blocks or (slice(0, d // 2),)
    d0 = 2 * (blocks[0].stop - blocks[0].start)
    r0 = min(d0, dof)
    # (first quadrature row, last row + 1 of the draws, first column,
    # width, degrees of freedom of the first column) per block.
    parts = [(2 * blocks[0].start, d, 0, r0, dof)]
    col = r0
    for rows in blocks[1:]:
        width = min(2 * (rows.stop - rows.start), dof - r0)
        parts.append((2 * rows.start, 2 * rows.stop, col, width, dof - r0))
        col += width
    chi = np.sqrt(gen.chisquare(np.concatenate(
        [top_dof - np.arange(width) for _, _, _, width, top_dof in parts])))
    f = np.zeros((d, col))
    for c in range(0, col, _PANEL):
        for start, end, first, width, _ in parts:
            lo, hi = max(c, first), min(c + _PANEL, first + width)
            if lo < hi:
                top = start + (lo - first) // 2 * 2
                z = normals(gen, ((end - top) // 2, hi - lo, 2))
                f[top:end, lo:hi] = z.transpose(0, 2, 1).reshape(end - top, hi - lo)
    for start, _, first, width, _ in parts:
        for j in range(width):
            f[: start + j, first + j] = 0.0
            f[start + j, first + j] = chi[first + j]
    return f


def _full_product_moments(transform, layout, config, g, f):
    """EmpiricalMoments of input sample mean mu_in + g / sqrt(2 n) and
    factor F through the whole S: means S (mu_in + g / sqrt(2 n)) and
    covariances the 2 x 2 diagonal blocks of S F (S F)^T / (2 (n - 1))."""
    n = config.sample_count
    k = layout.total_modes
    s = to_symplectic(transform).matrix
    sf = s @ f
    amps = layout.input_amplitudes(config.psi)
    mu_in = np.sqrt(2.0) * np.column_stack((amps.real, amps.imag)).reshape(-1)
    means = s @ (mu_in + math.sqrt(0.5 / n) * g)
    pairs = sf.reshape(k, 2, -1)
    covariances = np.einsum("kac,kbc->kab", pairs, pairs) * (0.5 / (n - 1))
    var_pairs = np.diagonal(covariances, axis1=1, axis2=2)
    return EmpiricalMoments(
        sample_count=n,
        psi=config.psi,
        means=means.reshape(k, 2),
        covariances=covariances,
        mean_se=np.sqrt(var_pairs / n),
        var_se=var_pairs * math.sqrt(2.0 / (n - 1)),
    )


def wishart_simulate(transform, layout, config, factor,
                     generator=_generator, normals=standard_normals):
    """EmpiricalMoments of a run that draws g ~ N(0, I_2K) by
    ``normals(gen, 2K)`` and then F = factor(gen, 2K, n - 1) from
    ``gen = generator(seed)`` (by default stream versions 6 to 9's
    SFC64; ``np.random.default_rng``, PCG64, for streams 3 to 5), through
    the whole S: means S (mu_in + g / sqrt(2 n)) and covariances the
    2 x 2 diagonal blocks of S F (S F)^T / (2 (n - 1))."""
    gen = generator(config.seed)
    g = normals(gen, 2 * layout.total_modes)
    f = factor(gen, 2 * layout.total_modes, config.sample_count - 1)
    return _full_product_moments(transform, layout, config, g, f)


def stream_8_draws(gen, d, dof, blocks=None):
    """Stream version 8's g and block factor F', assembled whole as a
    length-d vector and a d x r array, from ``gen``; ``blocks`` as for
    :func:`stream_5_factor`, whose F' has the same shape and support.
    The chi^2 diagonal comes first, from one ``chisquare`` call.  Then
    each _PANEL-column panel from column c takes one (rows, lead + w, 2)
    draw of the library's normals, each mode's entries as (x, p), over
    the modes from the first that a block part of the panel starts on
    (mode start + j0/2 for a part from block column j0) to the last that
    any part reaches (the end of every block for the shared one, else its
    own); the first panel's lead column (lead = 1) is g, over every mode.
    F' keeps the draws in each block's rows below its diagonal, puts chi
    on it and is zero elsewhere."""
    blocks = blocks or (slice(0, d // 2),)
    r0 = min(2 * (blocks[0].stop - blocks[0].start), dof)
    # (first quadrature row, last row + 1, first column, width, degrees of
    # freedom of the first column) per block.
    parts = [(2 * blocks[0].start, d, 0, r0, dof)]
    col = r0
    for rows in blocks[1:]:
        width = min(2 * (rows.stop - rows.start), dof - r0)
        parts.append((2 * rows.start, 2 * rows.stop, col, width, dof - r0))
        col += width
    chi = np.sqrt(gen.chisquare(np.concatenate(
        [top_dof - np.arange(width) for _, _, _, width, top_dof in parts])))
    f = np.zeros((d, col))
    for c in range(0, col, _PANEL):
        w = min(_PANEL, col - c)
        spans = [(start + (max(c, first) - first) // 2 * 2, end)
                 for start, end, first, width, _ in parts
                 if max(c, first) < min(c + w, first + width)]
        top, end = min(s for s, _ in spans), max(e for _, e in spans)
        lead = 1 if c == 0 else 0
        z = stream_7_normals(gen, ((end - top) // 2, lead + w, 2))
        if lead:
            g = z[:, 0].reshape(-1)
        f[top:end, c : c + w] = z[:, lead:].transpose(0, 2, 1).reshape(end - top, w)
    for start, end, first, width, _ in parts:
        for j in range(width):
            f[: start + j, first + j] = 0.0
            f[end:, first + j] = 0.0
            f[start + j, first + j] = chi[first + j]
    return g, f


def stream_8_simulate(transform, layout, config, blocks=None):
    """EmpiricalMoments of stream version 8's draws, :func:`stream_8_draws`
    from the library's generator, through the whole S."""
    g, f = stream_8_draws(_generator(config.seed), 2 * layout.total_modes,
                          config.sample_count - 1, blocks)
    return _full_product_moments(transform, layout, config, g, f)


def stream_9_draws(gen, d, dof, blocks=None):
    """Stream version 9's g and block factor F', assembled whole as a
    length-d vector and a d x r array, from ``gen``; ``blocks`` as for
    :func:`stream_5_factor`.  The shared block takes r_0 = min(d_0, dof)
    columns, and the next two blocks r_1 and r_2 (min(d_b, dof - r_0))
    of the same r - r_0 = max(r_1, r_2) columns after them, the third
    block's quadratures permuted into reverse mode order, x before p
    within a mode.  The chi^2 diagonal comes first, from one
    ``chisquare`` call over every block's columns in block order.  Then
    each _PANEL-column panel takes one (rows, lead + w, 2) draw of the
    library's normals, each mode's entries as (x, p), over the modes that
    its columns' (permuted) lower trapezoids cover; the first panel's
    lead column (lead = 1) is g, over every mode.  F' keeps the draws on
    and below each block's diagonal in its (permuted) rows, puts chi on
    it and is zero elsewhere."""
    blocks = blocks or (slice(0, d // 2),)
    r0 = min(2 * (blocks[0].stop - blocks[0].start), dof)
    # Per block: its quadrature rows in factor order (the shared block's
    # rows run on to d), its first column and its width.
    parts = [(np.arange(2 * blocks[0].start, d), 0, r0)]
    for rows, flip in zip(blocks[1:], (False, True)):
        quads = np.arange(2 * rows.start, 2 * rows.stop).reshape(-1, 2)
        parts.append(((quads[::-1] if flip else quads).reshape(-1), r0,
                      min(2 * (rows.stop - rows.start), dof - r0)))
    chi = np.sqrt(gen.chisquare(np.concatenate(
        [dof - (0 if b == 0 else r0) - np.arange(width)
         for b, (_, _, width) in enumerate(parts)])))
    r = max(col + width for _, col, width in parts)
    # F' may be nonzero where keep is true.
    keep = np.zeros((d, r), dtype=bool)
    for quads, col, width in parts:
        for j in range(width):
            keep[quads[j:], col + j] = True
    f = np.zeros((d, r))
    for c in range(0, r, _PANEL):
        w = min(_PANEL, r - c)
        lead = 1 if c == 0 else 0
        modes = np.flatnonzero(keep[:, c : c + w].any(axis=1)) // 2
        top, end = (0, d // 2) if lead else (modes.min(), modes.max() + 1)
        z = stream_7_normals(gen, (end - top, lead + w, 2))
        if lead:
            g = z[:, 0].reshape(-1)
        f[2 * top : 2 * end, c : c + w] = (
            z[:, lead:].transpose(0, 2, 1).reshape(2 * (end - top), w))
    f[~keep] = 0.0
    values = iter(chi)
    for quads, col, width in parts:
        for j in range(width):
            f[quads[j], col + j] = next(values)
    return g, f


def stream_9_simulate(transform, layout, config, blocks=None):
    """EmpiricalMoments of stream version 9's draws, :func:`stream_9_draws`
    from the library's generator, through the whole S."""
    g, f = stream_9_draws(_generator(config.seed), 2 * layout.total_modes,
                          config.sample_count - 1, blocks)
    return _full_product_moments(transform, layout, config, g, f)
