"""starknls: a pseudo-spectral laboratory for the damped mass-critical
nonlinear Schroedinger equation with a uniform-field (Stark) potential.

Core layers:

* spectral: periodic grids, fields, unitary FFTs, the Laplacian, norms.
* ground_state: solitary profiles via Petviashvili iteration, thresholds.
* gauge: accelerated-frame transforms and the pseudo-conformal profile.
* propagator: Strang split-step evolution with adaptive collapse stepping.
* diagnostics: observables, modified conservation laws, blow-up fitting,
  mass concentration.
* harness / cli: reproducible experiment bundles, scans, sweeps, bisection.
"""

from .spectral import (
    Field,
    GridSpec,
    PhysParams,
    SpectralField,
    boundary_mass_fraction,
    forward_transform,
    grad_norm_sq,
    inner,
    inverse_transform,
    l2_norm,
    l2_norm_sq,
    laplacian,
    lp_norm,
    momentum,
    spectral_fill_fraction,
)
from .ground_state import (
    GroundState,
    cached_ground_state,
    ground_state_1d_exact,
    ground_state_energy,
    petviashvili,
    threshold_mass,
)
from .gauge import (
    PseudoConformalParams,
    ah_forward,
    ah_inverse,
    pseudo_conformal_profile,
)
from .propagator import (
    Backend,
    DiagnosticHooks,
    SimState,
    Snapshot,
    StepController,
    StopReason,
    TrajectoryRecord,
    evolve,
    kinetic_substep,
    nonlinear_damped_substep,
    stark_substep_direct,
    strang_step,
)
from .diagnostics import (
    BlowupReport,
    ConcentrationPoint,
    DiagnosticsSample,
    LawCheckReport,
    blowup_sufficient_condition,
    check_energy_rate,
    check_mass_law,
    check_momentum_law,
    concentration_series,
    detect_blowup_and_fit,
    mass_in_window,
    sample,
    sup_mass_in_window,
    t_star_upper_bound,
)
from .config import ScenarioConfig
from .harness import (
    RunResult,
    SweepSpec,
    a_star_bisection,
    backend_difference,
    convergence_study,
    run_scenario,
    sweep,
    threshold_scan,
)
from .storage import read_snapshot, read_trajectory_csv, write_snapshot

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BlowupReport",
    "ConcentrationPoint",
    "DiagnosticHooks",
    "DiagnosticsSample",
    "Field",
    "GridSpec",
    "GroundState",
    "LawCheckReport",
    "PhysParams",
    "PseudoConformalParams",
    "RunResult",
    "ScenarioConfig",
    "SimState",
    "Snapshot",
    "SpectralField",
    "StepController",
    "StopReason",
    "SweepSpec",
    "TrajectoryRecord",
    "a_star_bisection",
    "ah_forward",
    "ah_inverse",
    "backend_difference",
    "blowup_sufficient_condition",
    "boundary_mass_fraction",
    "cached_ground_state",
    "check_energy_rate",
    "check_mass_law",
    "check_momentum_law",
    "concentration_series",
    "convergence_study",
    "detect_blowup_and_fit",
    "evolve",
    "forward_transform",
    "grad_norm_sq",
    "ground_state_1d_exact",
    "ground_state_energy",
    "inner",
    "inverse_transform",
    "kinetic_substep",
    "l2_norm",
    "l2_norm_sq",
    "laplacian",
    "lp_norm",
    "mass_in_window",
    "momentum",
    "nonlinear_damped_substep",
    "petviashvili",
    "pseudo_conformal_profile",
    "read_snapshot",
    "read_trajectory_csv",
    "run_scenario",
    "sample",
    "spectral_fill_fraction",
    "stark_substep_direct",
    "strang_step",
    "sup_mass_in_window",
    "sweep",
    "t_star_upper_bound",
    "threshold_mass",
    "threshold_scan",
    "write_snapshot",
]
