"""Distributionally robust finite-horizon LQG control.

Finds the least-favorable Gaussian noise covariances inside floored Gelbrich
ambiguity balls by Frank-Wolfe with a bisection linearization oracle, and
returns the optimal Kalman-filter output-feedback controller for them,
together with exact cost formulas, gradients, simulation, and verification
tooling.
"""

from .ambiguity import (
    AmbiguitySpec,
    GelbrichBall,
    OracleResult,
    gelbrich_distance,
    oracle_maximize,
    oracle_maximize_blocks,
    sample_feasible,
    sample_feasible_blocks,
)
from .gradient import GradientBlocks, fd_grad, grad_f
from .instances import banded_system, generate_instance, sample_nominal_profile
from .lqg import (
    CovarianceProfile,
    KalmanController,
    KalmanSolution,
    MonteCarloStats,
    RiccatiSolution,
    SimulationResult,
    TimeVaryingSystem,
    assemble_controller,
    kalman_forward,
    lqg_value,
    monte_carlo_cost,
    riccati_backward,
    sample_noise,
    simulate,
)
from .solver import (
    FWConfig,
    FWIteration,
    RobustSolution,
    SaddleReport,
    saddle_check,
    solve,
)
from .stacked import (
    LinearOutputController,
    LinearPurifiedController,
    StackedSystem,
    build_stacked,
    controller_cost_trace,
    output_to_purified,
    purified_from_rollout,
    purified_to_output,
    unroll_controller,
    unroll_kalman,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguitySpec",
    "CovarianceProfile",
    "FWConfig",
    "FWIteration",
    "GelbrichBall",
    "GradientBlocks",
    "KalmanController",
    "KalmanSolution",
    "LinearOutputController",
    "LinearPurifiedController",
    "MonteCarloStats",
    "OracleResult",
    "RiccatiSolution",
    "RobustSolution",
    "SaddleReport",
    "SimulationResult",
    "StackedSystem",
    "TimeVaryingSystem",
    "assemble_controller",
    "banded_system",
    "build_stacked",
    "controller_cost_trace",
    "fd_grad",
    "gelbrich_distance",
    "generate_instance",
    "grad_f",
    "kalman_forward",
    "lqg_value",
    "monte_carlo_cost",
    "oracle_maximize",
    "oracle_maximize_blocks",
    "output_to_purified",
    "purified_from_rollout",
    "purified_to_output",
    "riccati_backward",
    "saddle_check",
    "sample_feasible",
    "sample_feasible_blocks",
    "sample_noise",
    "sample_nominal_profile",
    "simulate",
    "solve",
    "unroll_controller",
    "unroll_kalman",
]
