"""Exact searches: rediscover the optimal amplifier, locate best asymmetry.

The amplifier search minimizes the output noise of a single mode coupled
to three input modes (signal port, conjugate port, auxiliary) subject to
the canonical-commutation constraint on that row.  Its purpose is to
confirm, without assuming the answer, that the minimum is the two-mode
amplifier: the auxiliary couplings vanish and the implied gain matches
the closed form of :func:`pciclone.machine.gain_from_amplitudes`.

Objective and constraint are both quadratic with diagonal Hessians A and
C, so the search is a generalized trust-region subproblem (Moré, 1993):
the global minimum is the Karush-Kuhn-Tucker point whose multiplier
lambda keeps A + lambda*C positive semidefinite.  Only m11 has a linear
term, so the stationary point for a given lambda is zero in every other
coordinate, and the constraint along it, the secular function, is a
quadratic in mu = 1/2 - lambda whose root has a closed form (see
:func:`solve_amplifier`).  At alpha = 0 (the hard case) the root sits at
lambda = -1/2, where m11 has no curvature left and takes the constraint
mass.  Each result carries its certificate, read off the problem's own
constraint and gradients rather than the closed form: the constraint
residual, the multiplier, which must make the point stationary, and the
smallest curvature of A + lambda*C, which must not be negative.

The best conjugate fraction a of a fixed input budget n at given M has
a closed form, the stationary point of the gain or the edge of the
amplification regime.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .canonical import CanonicalTransform, commutation_residual
from .errors import ConvergenceError, DomainError, _require_tolerance, require_finite
from .machine import _split_gain_noise


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


@dataclass(frozen=True)
class SearchResult:
    """Amplifier-search solution with its optimality certificate.

    alpha, beta, gamma are the input magnitudes; the couplings, objective
    and residuals are in the beta = 1 gauge, where the gain m11**2 is
    read off unchanged.  ``multiplier`` is the constraint's lambda and
    ``min_curvature`` the smallest eigenvalue of A + lambda*C; a
    non-negative value certifies the point as the global minimum.
    ``full_residual`` is an upper bound on the commutation residual of
    the row completed to a three-mode transform, the probe bound of
    :func:`~pciclone.gaussian._certificate` read through its (M, L).
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


def _full_completion_residual(coeffs: tuple[float, ...]) -> float:
    # Mirror the searched row into the standard two-mode amplifier shape
    # plus an untouched auxiliary; any coupling outside that shape shows
    # up as a commutation violation of the completed transform.
    m11, m12, m13, l11, l12, l13 = coeffs
    m = np.array([[m11, m12, m13], [0.0, m11, 0.0], [0.0, 0.0, 1.0]])
    l = np.array([[l11, l12, l13], [l12, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return commutation_residual(CanonicalTransform(m, l))


def solve_amplifier(
    alpha: float,
    beta: float,
    gamma: float,
    *,
    tol: float = 1e-10,
    seed: int = 0,
) -> SearchResult:
    """Global minimum of the output noise over the row couplings.

    In the data of :class:`AmplifierSearchProblem` (alpha and gamma in
    units of beta) and mu = 1/2 - lambda, the Lagrangian is stationary at
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
    once gamma/beta passes about 1e60.  At alpha = 0 (the hard case) D
    vanishes at mu = 1, and m11 = sqrt(1 + gamma^2) takes the constraint
    mass.  The multiplier is refitted to the final point by least
    squares, and the curvatures of A + lambda*C, 2D,
    2alpha^2 - 2mu(alpha^2 - 1), 2(1 - mu) and 2mu, are read at it.
    The solve is exact and deterministic: ``seed`` has no effect and is
    kept only because existing callers, such as the benchmark's
    design-scan workload, pass it.

    Raises :class:`ConvergenceError` when the certificate fails, i.e.
    -min_curvature, the constraint residual over the square of the
    largest of 1, m11, l12, gamma and alpha*m11 (the terms that form it)
    or the stationarity residual over the largest objective-gradient
    entry (at least 1) exceeds ``tol``, and :class:`DomainError` for
    non-finite input, ``tol`` < 0, outside |gamma| >= |alpha|, when
    beta = 0 (the scaling gauge needs a conjugate-port coupling) or when
    |gamma/beta| > 1e150, where the constraint's terms would overflow.
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

    problem = AmplifierSearchProblem(alpha=a / b, gamma=c / b)
    al, ga = problem.alpha, problem.gamma
    if al == 0.0:
        m11, l12 = math.sqrt(1.0 + ga * ga), ga
    else:
        root = math.sqrt((ga - al) * (ga + al) + 1.0)
        m11 = (ga * root + al) / (ga + al * root)
        l12 = (ga - al) * (ga + al) / (ga + al * root)
    x = (m11, 0.0, 0.0, 0.0)

    # The multiplier that best fits stationarity at the final point.
    grad, obj_grad = problem.constraint_grad(x), problem.objective_grad(x)
    lam = -float(obj_grad @ grad) / float(grad @ grad)
    mu = 0.5 - lam
    d = (1.0 - mu) + mu * al * al
    curvature = 2.0 * np.array([d, al * al - mu * (al * al - 1.0), 1.0 - mu, mu])

    constraint_residual = abs(problem.constraint(x))
    # Residuals are judged as ratios, which cannot overflow, to the terms
    # that make them; the constraint's rounding starts in
    # l12 = gamma - alpha*m11 and grows like (gamma/beta)^2.
    scale = max(1.0, m11, l12, ga, al * m11) ** 2
    min_curvature = float(np.min(curvature))
    stationarity = np.max(np.abs(obj_grad + lam * grad))
    if not (
        constraint_residual / scale <= tol
        and min_curvature >= -tol
        and stationarity / max(1.0, np.max(np.abs(obj_grad))) <= tol
    ):
        raise ConvergenceError(
            f"no certified amplifier for (alpha, beta, gamma)="
            f"({alpha}, {beta}, {gamma}): constraint residual "
            f"{constraint_residual:.3g}, min curvature {min_curvature:.3g}, "
            f"stationarity residual {stationarity:.3g}"
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
        full_residual=_full_completion_residual((m11, 0.0, 0.0, 0.0, l12, 0.0)),
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
    "AmplifierSearchProblem",
    "AsymmetryResult",
    "SearchResult",
    "minimize_asymmetry",
    "solve_amplifier",
]
