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
K x K transform and composing them, where the library updates only the
rows each stage touches and applies the DFTs as orthonormal FFTs.

The asymmetry oracle finds the best conjugate fraction by brute force, a
grid scan sharpened by golden-section search, where the library uses a
closed form.

The certificate oracles evaluate the commutation and symplectic
residuals from their defining dense products, with the dense symplectic
form, where the library reads both off one product of the symplectic
image.
The amplitude-gain oracle is the closed form without the library's
power-of-two rescaling.

The comparison oracle scores sampled moments one output mode at a time,
through a single-mode Gaussian state and :func:`fidelity_with_coherent`,
where the library scores all modes as whole arrays.

The sampling oracle is stream version 1: it draws every sample, block
by block with :func:`block_normals`, pushes each block through S by one
product and merges the block moments in order, where the library draws
the moments themselves from their exact law (stream version 3).  The
two agree in law, not in bits.

The added-noise oracle evaluates n_th = (G - 1)/M and (G - 1)/M' in
60-digit decimal arithmetic.  The symplectic-image oracle fills S from
the complex sums M + L and M - L, where the library writes each block
in place.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from pciclone.canonical import (
    CanonicalTransform,
    compose,
    dft_transform,
    pcia_transform,
    to_symplectic,
)
from pciclone.errors import DomainError
from pciclone.gaussian import GaussianState, fidelity_with_coherent, symplectic_form
from pciclone.machine import _machine_layout, asymmetry_gain, gain_from_counts
from pciclone.montecarlo import (
    BLOCK_SIZE,
    ComparisonSummary,
    EmpiricalMoments,
    block_normals,
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


def exact_added_noise(n, nc, m):
    """(n_th clone, n_th anticlone or None) of counts (N, N', M), from
    G - 1 in 60-digit decimal arithmetic."""
    mc = m + nc - n
    with localcontext() as ctx:
        ctx.prec = 60
        root_gain = Decimal(m + nc) / (Decimal(n * m).sqrt() + Decimal(nc * mc).sqrt())
        excess = root_gain * root_gain - 1
        return +(excess / m), (+(excess / mc) if mc >= 1 else None)


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
