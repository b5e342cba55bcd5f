"""1D two-fluid finite-volume solver with an implicit pressure-equilibrium
closure, plus a relative-energy harness that audits energy, weak-strong
stability, volume-fraction stability, and coercivity inequalities between
pairs of runs."""

from .closure import ExponentPair, omega_of_alpha, solve_closure_batch
from .config import ProfileSpec, SimConfig, validate_config
from .fields import (
    DerivedFields,
    FieldState,
    Grid1D,
    derive,
    restrict,
    total_energy,
    total_mass,
)
from .mms import ManufacturedSolution
from .solver import SchemeConfig, StepReport, Trajectory, compute_dt, run, step
from .thermo import PhaseLaw, bregman, helmholtz
from .verify import (
    alpha_stability_check,
    coercivity_check,
    convergence_study,
    energy_audit,
    fraction_terms,
    gronwall_check,
    relative_entropy,
    relative_entropy_series,
)

__version__ = "0.1.0"
