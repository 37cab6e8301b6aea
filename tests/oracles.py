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
stage in a K x K transform and composing them, where the library
updates only the rows each stage touches.

The asymmetry oracle finds the best conjugate fraction by brute force, a
grid scan sharpened by golden-section search, where the library uses a
closed form.

The certificate oracles evaluate the commutation and symplectic
residuals from their defining dense products, with the dense symplectic
form, where the library reads them from the structure of the products.
The amplitude-gain oracle is the closed form without the library's
power-of-two rescaling.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from pciclone.canonical import (
    compose,
    dft_transform,
    embed,
    identity_transform,
    pcia_transform,
)
from pciclone.gaussian import symplectic_form
from pciclone.machine import _machine_layout, asymmetry_gain, gain_from_counts


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
