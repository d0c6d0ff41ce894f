"""Two-level blocking network: exact simulation, fluid limits, and experiments.

A scaled family of Markov call-center models where n generalist
operators hand a fraction of their finished calls to c2 specialists;
an operator whose handoff finds no idle specialist stays blocked until
one frees up.  The package provides the exact jump-chain simulator, the
limiting fluid dynamics with their boundary reflection, a small-instance
matrix oracle, and reproducible experiment suites connecting the three.
"""

from .errors import (
    DomainError,
    GridMismatch,
    InvalidState,
    NoConvergence,
    NonFinite,
    NotIrreducible,
    RegimeError,
    RegimeMismatch,
    SingularSystem,
    TooLarge,
    TooManySwitches,
)
from .model import (
    FluidState,
    ModelParams,
    Regime,
    ScalingParams,
    blocked_fraction_limit,
    classify_regime,
    critical_ratio,
    h_bar,
    overloaded_fixed_point,
    underloaded_fixed_point,
    validate,
    y_b_closed_form,
    y_bar,
    y_underline,
)
from .skorokhod import (
    PathFunctional,
    SampledPath,
    check_complementarity,
    reflect_1d,
    solve_generalized,
)
from .fluid import (
    ReflectedSolution,
    aux_noblock_fluid,
    aux_saturated_fluid,
    gbar_functional,
    hybrid_fluid,
)
from .sim import (
    MicroState,
    Trajectory,
    Transition,
    check_state,
    martingale_residual,
    rescale,
    residual_sup,
    simulate,
    simulate_aux_noblock,
    simulate_aux_saturated,
    simulate_process,
    step,
    transitions,
    write_trajectory_csv,
)
from .oracle import (
    build_generator,
    enumerate_states,
    state_space_size,
    stationary_distribution,
    stationary_moments,
    transient_distribution,
    write_stationary_csv,
)
from .experiments import (
    ExperimentConfig,
    Report,
    convergence_sweep,
    martingale_decay,
    no_blocking_certificate,
    oracle_cross_check,
    phase_scan,
    saturation_certificate,
    save_report,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "GridMismatch", "InvalidState", "NoConvergence", "NonFinite",
    "NotIrreducible", "RegimeError", "RegimeMismatch", "SingularSystem", "TooLarge",
    "TooManySwitches",
    "FluidState", "ModelParams", "Regime", "ScalingParams",
    "blocked_fraction_limit", "classify_regime", "critical_ratio", "h_bar",
    "overloaded_fixed_point", "underloaded_fixed_point", "validate",
    "y_b_closed_form", "y_bar", "y_underline",
    "PathFunctional", "SampledPath", "check_complementarity", "reflect_1d",
    "solve_generalized",
    "ReflectedSolution", "aux_noblock_fluid", "aux_saturated_fluid",
    "gbar_functional", "hybrid_fluid",
    "MicroState", "Trajectory", "Transition", "check_state", "martingale_residual",
    "rescale", "residual_sup", "simulate", "simulate_aux_noblock",
    "simulate_aux_saturated", "simulate_process", "step", "transitions",
    "write_trajectory_csv",
    "build_generator", "enumerate_states", "state_space_size",
    "stationary_distribution", "stationary_moments", "transient_distribution",
    "write_stationary_csv",
    "ExperimentConfig", "Report", "convergence_sweep", "martingale_decay",
    "no_blocking_certificate", "oracle_cross_check", "phase_scan",
    "saturation_certificate", "save_report",
]
