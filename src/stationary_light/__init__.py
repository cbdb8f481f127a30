"""Stationary light pulses in standing-wave EIT media.

Closed-form polariton dynamics in non-moving and thermal media, grating
Fourier-coefficient machinery, a numerical solver for the non-moving medium,
a first-principles harmonic-ladder oracle, and a scenario CLI emitting
deterministic datasets.
"""

__version__ = "0.1.0"

from .core import (
    CouplingSchedule,
    MediumParams,
    PolaritonField,
    ProbeField,
    SimulationGrid,
    cos2_theta,
    displacement_r,
    gaussian_profile,
    group_velocity,
)
from .fourier import (
    DispersionParams,
    beta,
    coeff_a,
    coeff_d,
    dispersion_params,
    quadrature_oracle,
)
from .analytic import (
    cold_adiabatic_evolve,
    initial_split,
    nonadiabatic_spectral_evolve,
    probe_from_polariton,
    raman_harmonics,
    thermal_adiabatic_evolve,
)
from .solver import (
    SolverError,
    SolverReport,
    characteristic_speeds,
    evolve_cold_numeric,
    evolve_mb_harmonics,
)
from .observables import PulseMetrics, compute_metrics, variance_growth_rate

__all__ = [
    "__version__",
    "CouplingSchedule",
    "MediumParams",
    "PolaritonField",
    "ProbeField",
    "SimulationGrid",
    "cos2_theta",
    "displacement_r",
    "gaussian_profile",
    "group_velocity",
    "DispersionParams",
    "beta",
    "coeff_a",
    "coeff_d",
    "dispersion_params",
    "quadrature_oracle",
    "cold_adiabatic_evolve",
    "initial_split",
    "nonadiabatic_spectral_evolve",
    "probe_from_polariton",
    "raman_harmonics",
    "thermal_adiabatic_evolve",
    "SolverError",
    "SolverReport",
    "characteristic_speeds",
    "evolve_cold_numeric",
    "evolve_mb_harmonics",
    "PulseMetrics",
    "compute_metrics",
    "variance_growth_rate",
]
