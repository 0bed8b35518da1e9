"""Spectral simulator and verification lab for a quasilinear wave equation
whose propagation speed depends on the solution's Dirichlet energy.

The package solves the mode system two independent ways (fixed-point
iteration on the induced speed, and a directly coupled oracle), audits the
weighted linear energy estimate that underpins well-posedness with blow-up
coefficients, and evaluates machine-checkable certificates of the existence
hypotheses.
"""

from .errors import (
    HypothesisError,
    RangeOverflowError,
    ScenarioError,
    StabilityError,
)
from .spectral import (
    GevreyParams,
    ModeBasis,
    SpectralState,
    Trajectory,
    dirichlet_energy,
    gevrey_norm,
    hamiltonian,
    same_basis,
    sobolev_norm,
    state_gevrey_norm,
)
from .coefficient import (
    AdmissibilityReport,
    AdmissibleClass,
    CoefficientPath,
    OscillatingSpeed,
    check_admissibility,
    equicontinuity_gap,
    graded_grid,
    sup_distance,
    uniform_grid,
)
from .linear import (
    EnergyBoundReport,
    LinearProblem,
    ModeTrajectory,
    approximate_energy,
    decay_integral,
    decay_integral_bound,
    eta_prime,
    mode_trajectory,
    radius_loss,
    regularized_speed,
    solve_linear,
    solve_mode,
    solve_modes,
    verify_energy_bound,
)
from .nonlinear import (
    FixedPointReport,
    InducedSpeedReport,
    KirchhoffRun,
    PerturbationReport,
    check_induced_speed,
    direct_oracle,
    fixed_point_solve,
    induced_slope_bound,
    induced_speed,
    perturbation_probe,
)
from .certificate import (
    Certificate,
    Verdict,
    check_hypotheses,
    data_radius,
    eta0,
    k0_constant,
    q_from_s,
)
from .scenario import Scenario, load_scenario, parse_scenario

__version__ = "0.1.0"
