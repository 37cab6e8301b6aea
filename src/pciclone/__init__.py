"""Cloning of coherent states with phase-conjugate inputs.

Gaussian states and symplectic maps, linear canonical transforms, an
explicit multimode cloning machine with its closed-form noise theory,
numerical searches for the optimal amplifier and input asymmetry, and a
Monte-Carlo phase-space verifier.

The ``pciclone`` logger is silent unless the application configures
logging; :func:`simulate` logs the shape of its Wishart factor at DEBUG.
"""

import logging

from .canonical import (
    CanonicalTransform,
    commutation_residual,
    pcia_transform,
    to_symplectic,
)
from .errors import ConvergenceError, DomainError
from .gaussian import (
    GaussianState,
    SymplecticMap,
    apply_map,
    coherent_state,
    fidelity_with_coherent,
    marginal,
    quadrature_variance,
    symplectic_form,
    vacuum_state,
)
from .machine import (
    CloningConfig,
    MachineLayout,
    NoiseReport,
    asymmetry_gain,
    asymmetry_noise,
    build_machine,
    gain_from_amplitudes,
    gain_from_counts,
    measurement_noise,
    noise_report,
    p_function_density,
)
from .montecarlo import (
    ComparisonSummary,
    EmpiricalMoments,
    SampleConfig,
    compare_to_analytic,
    simulate,
)
from .optimize import (
    AsymmetryResult,
    SearchResult,
    minimize_asymmetry,
    solve_amplifier,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AsymmetryResult",
    "CanonicalTransform",
    "CloningConfig",
    "ComparisonSummary",
    "ConvergenceError",
    "DomainError",
    "EmpiricalMoments",
    "GaussianState",
    "MachineLayout",
    "NoiseReport",
    "SampleConfig",
    "SearchResult",
    "SymplecticMap",
    "apply_map",
    "asymmetry_gain",
    "asymmetry_noise",
    "build_machine",
    "coherent_state",
    "commutation_residual",
    "compare_to_analytic",
    "fidelity_with_coherent",
    "gain_from_amplitudes",
    "gain_from_counts",
    "marginal",
    "measurement_noise",
    "minimize_asymmetry",
    "noise_report",
    "p_function_density",
    "pcia_transform",
    "quadrature_variance",
    "simulate",
    "solve_amplifier",
    "symplectic_form",
    "to_symplectic",
    "vacuum_state",
]
