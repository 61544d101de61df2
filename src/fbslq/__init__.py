"""Equilibrium strategies for time-inconsistent LQ control of forward-backward SDEs.

The package integrates the coupled equilibrium Riccati system, computes
closed-loop equilibrium gains by a piecewise contraction iteration in one
dimension, and verifies candidate equilibria by constraint checks,
characterization residuals, and Monte-Carlo spike-variation tests.
"""

from .equilibrium import (
    AssumptionViolatedError,
    EquilibriumSolution,
    NoConvergenceError,
    NonContractiveError,
    SolverConfig,
    solve_equilibrium,
)
from .fields import OneTimeField, Strategy, TimeGrid, TwoTimeField
from .problem import (
    AssumptionReport,
    Coefficients,
    Dimensions,
    ProblemSpec,
    ValidationReport,
    Weights,
    check_one_dim_positivity,
    validate,
)
from .riccati import (
    ConstraintReport,
    P2Field,
    characterization_residual,
    check_constraints,
    feedback_map,
    solve_p1,
    solve_p2,
    solve_p3,
    two_time_diagonals,
)
from .simulate import (
    PathBundle,
    SimConfig,
    SpikeSpec,
    simulate_closed_loop,
    spike_test,
    spike_tests,
)
from .verify import suite_classical_reduction, suite_equilibrium, suite_example_2_5

__version__ = "0.1.0"

__all__ = [
    "TimeGrid",
    "OneTimeField",
    "TwoTimeField",
    "Strategy",
    "Dimensions",
    "Coefficients",
    "Weights",
    "ProblemSpec",
    "ValidationReport",
    "AssumptionReport",
    "validate",
    "check_one_dim_positivity",
    "solve_p1",
    "solve_p2",
    "solve_p3",
    "two_time_diagonals",
    "feedback_map",
    "check_constraints",
    "characterization_residual",
    "ConstraintReport",
    "P2Field",
    "SolverConfig",
    "EquilibriumSolution",
    "solve_equilibrium",
    "NonContractiveError",
    "NoConvergenceError",
    "AssumptionViolatedError",
    "SimConfig",
    "SpikeSpec",
    "PathBundle",
    "simulate_closed_loop",
    "spike_test",
    "spike_tests",
    "suite_example_2_5",
    "suite_classical_reduction",
    "suite_equilibrium",
    "__version__",
]
