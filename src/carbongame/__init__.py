"""Differential-game solver and simulator for a two-player agricultural
supply chain reducing carbon emissions, with optional carbon-sink trading.

A farmer and a retailer exert costly efforts that raise a carbon emission
reduction level H; H drives supply, demand, and saleable carbon sinks. The
package computes feedback equilibria under three cooperation modes
(decentralized, Stackelberg with cost sharing, centralized), simulates the
closed-loop dynamics, verifies the solutions against grid dynamic
programming, and reproduces the reference sensitivity experiments.
"""

__version__ = "0.1.0"

from .model import (
    DerivedConstants,
    FeedbackPolicy,
    GameMode,
    GameSolution,
    ModelParams,
    ParameterError,
    QuadraticValue,
    SolutionDiagnostics,
    Trajectory,
    VALUE_LAYOUT,
    carbon_sink,
    demand,
    derive_constants,
    effort_costs,
    reduction_drift,
    supply,
    validate_params,
)
from .solver import (
    BalanceGateError,
    ComplexRootError,
    NoCandidateError,
    NoRealBranchError,
    ScanGateError,
    SolverConfig,
    SolverError,
    UnstableModelError,
    residual_scan,
    solve,
    solve_many,
)
from .profits import (
    HorizonError,
    PayoffBreakdown,
    discounted_profit,
    payoff_rates,
    total_value_at,
    value_at,
)
from .simulate import (
    SimConfig,
    SimulationError,
    TRAJECTORY_COLUMNS,
    exact_trajectory,
    integrate_trajectory,
    steady_state,
    trajectory_table,
)
from .oracle import (
    BestResponse,
    CertificationReport,
    GridSpec,
    OracleError,
    default_grid,
    equilibrium_check,
    grid_best_response,
    leader_improvement_sample,
)
from .experiments import (
    ConfigError,
    ScenarioConfig,
    SweepSpec,
    emit_results,
    load_config,
    run_compare,
    run_sweep,
    run_verify,
)

__all__ = [
    "BalanceGateError",
    "BestResponse",
    "CertificationReport",
    "ComplexRootError",
    "ConfigError",
    "DerivedConstants",
    "FeedbackPolicy",
    "GameMode",
    "GameSolution",
    "GridSpec",
    "HorizonError",
    "ModelParams",
    "NoCandidateError",
    "NoRealBranchError",
    "OracleError",
    "ParameterError",
    "PayoffBreakdown",
    "QuadraticValue",
    "ScanGateError",
    "ScenarioConfig",
    "SimConfig",
    "SimulationError",
    "SolutionDiagnostics",
    "SolverConfig",
    "SolverError",
    "SweepSpec",
    "TRAJECTORY_COLUMNS",
    "Trajectory",
    "UnstableModelError",
    "VALUE_LAYOUT",
    "__version__",
    "carbon_sink",
    "default_grid",
    "demand",
    "derive_constants",
    "discounted_profit",
    "effort_costs",
    "emit_results",
    "equilibrium_check",
    "exact_trajectory",
    "grid_best_response",
    "integrate_trajectory",
    "leader_improvement_sample",
    "load_config",
    "payoff_rates",
    "reduction_drift",
    "residual_scan",
    "run_compare",
    "run_sweep",
    "run_verify",
    "solve",
    "solve_many",
    "steady_state",
    "supply",
    "total_value_at",
    "trajectory_table",
    "validate_params",
    "value_at",
]
