"""Exact searches: rediscover the optimal amplifier, locate best asymmetry.

The amplifier search minimizes the output noise of a single mode coupled
to three input modes (signal port, conjugate port, auxiliary) subject to
the canonical-commutation constraint on that row.  Its purpose is to
confirm, without assuming the answer, that the minimum is the two-mode
amplifier: the auxiliary couplings vanish and the implied gain matches
the closed form of :func:`pciclone.machine.gain_from_amplitudes`.

In the beta = 1 gauge, with the mean constraint solved for
l12 = gamma - alpha*m11 and m12 = -alpha*l11, objective and constraint
are quadratics in (m11, l11, m13, l13) with diagonal Hessians A and C,
so the search is a generalized trust-region subproblem (Moré, 1993):
the global minimum is the Karush-Kuhn-Tucker point whose multiplier
lambda keeps A + lambda*C positive semidefinite.  Only m11 has a linear
term, so the stationary point for a given lambda is zero in every other
coordinate, and the constraint along it, the secular function, is a
quadratic in mu = 1/2 - lambda whose root has a closed form (see
:func:`solve_amplifier`).  At alpha = 0 (the hard case) the root sits at
lambda = -1/2, where m11 has no curvature left and takes the constraint
mass.  lambda is fitted to the point's only nonzero gradient entries, so
the point is stationary by construction; its certificate is the
residuals of the row normalization and of the mean constraint, and the
smallest curvature of A + lambda*C, which must not be negative.  The
completed transform's commutation residual is the normalization's.

The best conjugate fraction a of a fixed input budget n at given M has
a closed form, the stationary point of the gain or the edge of the
amplification regime.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, _require_tolerance, require_finite
from .machine import _split_gain_noise


@dataclass(frozen=True)
class SearchResult:
    """Amplifier-search solution with its optimality certificate.

    alpha, beta, gamma are the input magnitudes; the couplings, objective
    and residuals are in the beta = 1 gauge, where the gain m11**2 is
    read off unchanged.  ``multiplier`` is the constraint's lambda and
    ``min_curvature`` the smallest eigenvalue of A + lambda*C; a
    non-negative value certifies the point as the global minimum.
    ``full_residual`` is the exact commutation residual of the row
    completed to a three-mode transform, M = diag(m11, m11, 1) and L
    pairing the first two modes through l12: ML^T - LM^T vanishes by
    symmetry and MM^H - LL^H - I is diag(d, d, 0) with
    d = m11^2 - l12^2 - 1, so it is ``constraint_residual`` relative to
    the largest squared row norm of [M L], which grows like
    (gamma/beta)^2.  ``constraint_residual`` is absolute.
    ``iterations`` counts evaluations of the secular function; the
    closed form takes none, so it is 0.
    """

    alpha: float
    beta: float
    gamma: float
    m11: float
    m12: float
    m13: float
    l11: float
    l12: float
    l13: float
    objective: float
    constraint_residual: float
    full_residual: float
    gain: float
    multiplier: float
    min_curvature: float
    iterations: int
    converged: bool

    @property
    def aux_norm(self) -> float:
        """Largest coupling the two-mode amplifier would not have."""
        return max(abs(self.m13), abs(self.l13), abs(self.l11), abs(self.m12))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AsymmetryResult:
    """Best conjugate fraction a* for fixed n and M."""

    n: float
    m: float
    a_star: float
    gain: float
    n_th: float

    def to_dict(self) -> dict:
        return {"M" if k == "m" else k: v for k, v in asdict(self).items()}


def solve_amplifier(
    alpha: float,
    beta: float,
    gamma: float,
    *,
    tol: float = 1e-10,
    seed: int = 0,
) -> SearchResult:
    """Global minimum of the output noise over the row couplings.

    In the gauge of the module text (alpha and gamma in units of beta)
    and mu = 1/2 - lambda, the Lagrangian is stationary at
    m11 = mu*alpha*gamma/D, l12 = gamma*(1 - mu)/D with
    D = (1 - mu) + mu*alpha^2 and the other couplings 0.  With
    h = gamma^2 - alpha^2 + 1 the constraint there fixes

        mu = (gamma^2 + 1) / (h + alpha*gamma*sqrt(h)),
        1 - mu = mu * alpha*(gamma - alpha)*(gamma + alpha)
                 / (gamma*sqrt(h) + alpha),

    and mu cancels from both couplings:

        m11 = (gamma*sqrt(h) + alpha) / (gamma + alpha*sqrt(h)),
        l12 = (gamma - alpha)*(gamma + alpha) / (gamma + alpha*sqrt(h)).

    Every term is positive, so neither quotient cancels, and none exceeds
    (gamma/beta)^2, while the products that form mu and 1 - mu overflow
    once gamma/beta passes about 1e60.  gamma - alpha is taken before the
    division by beta, exact (Sterbenz) where the two are close, so l12
    keeps its digits as gamma -> alpha.  At alpha = 0 (the hard case) D
    vanishes at mu = 1, and m11 = sqrt(1 + gamma^2) takes the constraint
    mass.  The multiplier is fitted to the final point, through the
    gradients' m11 entries with this l12, and the curvatures of
    A + lambda*C, 2D, 2alpha^2 - 2mu(alpha^2 - 1), 2(1 - mu) and 2mu,
    are read at it.
    The solve is exact and deterministic: ``seed`` has no effect and is
    kept only because existing callers, such as the benchmark's
    design-scan workload, pass it.

    Raises :class:`ConvergenceError` when the certificate fails, i.e.
    -min_curvature, the residual of m11^2 - l12^2 = 1 over the square of
    the largest of 1, m11 and l12, or the residual of the mean constraint
    l12 + alpha*m11 = gamma over the largest of 1, l12, alpha*m11 and
    gamma exceeds ``tol``, and :class:`DomainError` for non-finite
    input, ``tol`` < 0, outside |gamma| >= |alpha|, when beta = 0 (the
    scaling gauge needs a conjugate-port coupling) or when |gamma/beta|
    > 1e150, where the constraint's terms would overflow.
    """
    _require_tolerance(tol)
    require_finite(alpha=alpha, beta=beta, gamma=gamma)
    a, b, c = abs(alpha), abs(beta), abs(gamma)
    if b == 0.0:
        raise DomainError("beta = 0 cannot be scaled to the beta = 1 gauge")
    if c < a:
        raise DomainError(
            f"|gamma|={c} < |alpha|={a} is the attenuation regime, not supported"
        )
    # The constraint's terms grow like (gamma/beta)^2 and overflow past this.
    if c / b > 1e150:
        raise DomainError(f"|gamma/beta|={c / b} is beyond the float range")

    al, ga = a / b, c / b
    if al == 0.0:
        m11, l12 = math.sqrt(1.0 + ga * ga), ga
    else:
        excess = (c - a) / b
        root = math.sqrt(excess * (ga + al) + 1.0)
        m11 = (ga * root + al) / (ga + al * root)
        l12 = excess * (ga + al) / (ga + al * root)

    # At x = (m11, 0, 0, 0) only the m11 entries of the problem's
    # gradients are nonzero, and lambda makes their combination vanish.
    # They and the constraints are read with the closed form's l12: the
    # eliminated gamma - alpha*m11 cancels once alpha/beta reaches about
    # 1e16, so the mean constraint it stands for is checked apart.
    lam = -(m11 - al * l12) / (2.0 * (m11 + al * l12))
    mu = 0.5 - lam
    d = (1.0 - mu) + mu * al * al
    curvature = 2.0 * np.array([d, al * al - mu * (al * al - 1.0), 1.0 - mu, mu])

    constraint_residual = abs(m11 * m11 - l12 * l12 - 1.0)
    mean_residual = abs(l12 + al * m11 - ga)
    # Residuals are judged as ratios, which cannot overflow, to the terms
    # that form them; those of the mean grow like gamma/beta.
    min_curvature = float(np.min(curvature))
    if not (
        constraint_residual / max(1.0, m11, l12) ** 2 <= tol
        and mean_residual / max(1.0, l12, al * m11, ga) <= tol
        and min_curvature >= -tol
    ):
        raise ConvergenceError(
            f"no certified amplifier for (alpha, beta, gamma)="
            f"({alpha}, {beta}, {gamma}): constraint residual "
            f"{constraint_residual:.3g}, mean residual {mean_residual:.3g}, "
            f"min curvature {min_curvature:.3g}"
        )

    return SearchResult(
        alpha=a,
        beta=b,
        gamma=c,
        m11=m11,
        m12=0.0,
        m13=0.0,
        l11=0.0,
        l12=l12,
        l13=0.0,
        objective=0.5 * (m11 * m11 + l12 * l12),
        constraint_residual=constraint_residual,
        full_residual=constraint_residual / max(1.0, m11 * m11 + l12 * l12),
        gain=m11 * m11,
        multiplier=lam,
        min_curvature=min_curvature,
        iterations=0,
        converged=True,
    )


def minimize_asymmetry(n: float, m: float) -> AsymmetryResult:
    """Conjugate fraction a in [0, 1) minimizing the clone noise.

    The gain of :func:`pciclone.machine.asymmetry_gain` is stationary in
    a at (M - n)/(2M), and a must stay at or above 1 - M/n for the
    amplification regime, so

        a* = max((M - n) / (2M), 1 - M/n).

    For M = n that is a = 0 with zero added noise (the machine is a
    relabelling); for M < n the optimum pins the regime's edge, where
    the noise vanishes; as M grows a* tends to 1/2.
    """
    require_finite(n=n, m=m)
    if n <= 0 or m <= 0:
        raise DomainError(f"need n > 0 and M > 0, got n={n}, M={m}")
    # Halving after the division gives the same bits as (m - n)/(2m),
    # without 2m overflowing for m near the float maximum.
    a_star = max((m - n) / m / 2.0, 1.0 - m / n)
    gain, n_th = _split_gain_noise(n, m, a_star)
    return AsymmetryResult(
        n=float(n), m=float(m), a_star=float(a_star), gain=gain, n_th=n_th
    )


__all__ = [
    "AsymmetryResult",
    "SearchResult",
    "minimize_asymmetry",
    "solve_amplifier",
]
