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
lambda keeps A + lambda*C positive semidefinite.  On that window of
lambda the stationary point x(lambda) = -(a + lambda*c) / (A + lambda*C)
is taken per coordinate, and the constraint along it, the secular
function phi(lambda), does not increase; its root is the solution.
When phi has no root in the window (the hard case) lambda sits at the
window's end and the missing constraint mass goes onto the first
coordinate whose curvature vanishes there.  Each result carries its
certificate: the constraint residual, the multiplier, which must make
the point stationary, and the smallest curvature of A + lambda*C, which
must not be negative.

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

    def objective_hess(self) -> np.ndarray:
        s = 1.0 + self.alpha**2
        return np.diag([s, s, 1.0, 1.0])

    def constraint_hess(self) -> np.ndarray:
        t = 1.0 - self.alpha**2
        return np.diag([2.0 * t, -2.0 * t, 2.0, -2.0])


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
    ``iterations`` counts evaluations of the secular function.
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

    Takes the quadratic data of :class:`AmplifierSearchProblem` (Hessians
    A and C, linear terms a and c, constant of the constraint) and solves
    the secular equation phi(lambda) = 0 by Brent's method on the window
    where A + lambda*C is positive semidefinite.  There phi does not
    increase; for alpha > 0 it changes sign between the window's ends.
    At alpha = 0 it is negative throughout (the hard case): lambda is the
    lower end and the first coordinate whose curvature vanishes there,
    m11, takes the constraint mass.  One exact step along the constraint
    gradient then closes the gap that rounding leaves in x(lambda), and
    lambda is refitted to the final point.  The search is deterministic:
    ``seed`` has no effect and is kept only because existing callers,
    such as the benchmark's design-scan workload, pass it.

    Raises :class:`ConvergenceError` when the certificate fails, i.e.
    -min_curvature, the constraint residual over the largest square of a
    term that forms it or the stationarity residual over the largest
    objective-gradient entry (each scale at least 1) exceeds ``tol``, and
    :class:`DomainError` for non-finite input, ``tol`` < 0, outside
    |gamma| >= |alpha|, when beta = 0 (the scaling gauge needs a
    conjugate-port coupling) or when |gamma/beta| > 1e150, where the
    search's quadratic terms would overflow.
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
    # The search's terms grow like (gamma/beta)^2 and overflow past this.
    if c / b > 1e150:
        raise DomainError(f"|gamma/beta|={c / b} is beyond the float range")
    # Imported here: scipy.optimize would quadruple the package's import time.
    from scipy.optimize import brentq

    problem = AmplifierSearchProblem(alpha=a / b, gamma=c / b)
    zero = np.zeros(4)
    hess_f = np.diag(problem.objective_hess())
    hess_g = np.diag(problem.constraint_hess())
    grad_f = problem.objective_grad(zero)
    grad_g = problem.constraint_grad(zero)
    # Lower and upper bounds on lambda keeping every curvature >= 0.
    up, down = hess_g > 0, hess_g < 0
    lam_lo = float(np.max(-hess_f[up] / hess_g[up]))
    lam_hi = float(np.min(-hess_f[down] / hess_g[down]))

    def curvature(lam: float) -> np.ndarray:
        return hess_f + lam * hess_g

    def stationary(lam: float) -> np.ndarray:
        curv = curvature(lam)
        # A coordinate with no curvature left is the hard case's free
        # direction; it starts at 0.
        return np.divide(
            -(grad_f + lam * grad_g), curv, out=np.zeros(4), where=curv > 0
        )

    evaluations = 0

    def phi(lam: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return problem.constraint(stationary(lam))

    phi_lo, phi_hi = phi(lam_lo), phi(lam_hi)
    if phi_lo >= 0.0 >= phi_hi:
        # Near-zero xtol: bracket the root down to brentq's 4-ulp rtol.
        lam = brentq(phi, lam_lo, lam_hi, xtol=1e-300, disp=False)
    else:
        lam = lam_lo if phi_lo < 0.0 else lam_hi
    x = stationary(lam)

    # Close the constraint gap along one line: the constraint gradient, or
    # in the hard case, where it vanishes, the first coordinate without
    # curvature.  The constraint is quadratic along the line; take the
    # root nearest x, in the form that does not cancel.
    grad = problem.constraint_grad(x)
    if grad.any():
        d = grad / np.max(np.abs(grad))
    else:
        d = np.eye(4)[np.argmin(curvature(lam))]
    gap, slope, bend = problem.constraint(x), grad @ d, d @ (hess_g * d)
    root = math.sqrt(max(slope * slope - 2.0 * bend * gap, 0.0))
    denom = slope + math.copysign(root, slope)
    if denom:
        x = x - 2.0 * gap / denom * d
    # The multiplier that best fits stationarity at the final point.
    grad, obj_grad = problem.constraint_grad(x), problem.objective_grad(x)
    lam = -float(obj_grad @ grad) / float(grad @ grad)

    m11, m12, m13, l11, l12, l13 = problem.coefficients(x)
    constraint_residual = abs(problem.constraint(x))
    # Residuals are judged as ratios, which cannot overflow, to the terms
    # that make them; the constraint's grow like (gamma/beta)^2.  Its
    # rounding starts in l12 = gamma - alpha*m11 and (1 - alpha^2) l11^2,
    # so the squares of gamma, alpha*m11, l11 and alpha*l11 scale it too.
    al = problem.alpha
    terms = (m11**2, l12**2, problem.gamma**2, (al * m11) ** 2, l11**2,
             (al * l11) ** 2, m13**2, l13**2)
    min_curvature = float(np.min(curvature(lam)))
    stationarity = np.max(np.abs(obj_grad + lam * grad))
    if not (
        constraint_residual / max(1.0, *terms) <= tol
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
        m12=m12,
        m13=m13,
        l11=l11,
        l12=l12,
        l13=l13,
        objective=0.5
        * (m11**2 + m12**2 + m13**2 + l11**2 + l12**2 + l13**2),
        constraint_residual=constraint_residual,
        full_residual=_full_completion_residual(
            (m11, m12, m13, l11, l12, l13)
        ),
        gain=m11 * m11,
        multiplier=float(lam),
        min_curvature=min_curvature,
        iterations=evaluations,
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
