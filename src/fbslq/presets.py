"""Built-in problem instances used by the verification suites and the CLI.

A preset is its scenario's spec: each builder reads the document of the same
name in :mod:`fbslq.scenario`, the one definition of that problem, through
:func:`~fbslq.scenario.scenario_to_spec`.
"""

from __future__ import annotations

from .problem import ProblemSpec
from .scenario import (
    classical_reduction_scenario,
    example_2_5_scenario,
    scenario_to_spec,
    smoke_scenario,
)

__all__ = [
    "example_2_5_problem",
    "assumption_smoke_problem",
    "classical_reduction_problem",
]


def example_2_5_problem(grid_steps: int = 1000) -> ProblemSpec:
    """Scalar instance with a vanishing control weight on the diagonal.

    A = D = 0, B = C = 1, R(s,t) = s - t, T = 1, and the terminal weight is
    tied to the running state weight q = 1 so the diagonal of the first
    Riccati field vanishes identically under the zero gain:

        G1(t) = -int_t^T exp(-(T - tau)) q(tau) dtau = -(1 - e^{-(T-t)}),

    a node table exact at the grid nodes.
    """
    return scenario_to_spec(example_2_5_scenario(grid_steps))


def assumption_smoke_problem(grid_steps: int = 1000) -> ProblemSpec:
    """Generic scalar instance satisfying the positivity assumption.

    A = 0.1, B = C = 0.5, D = 1, all hat-coefficients 0.2, H = 0.3,
    Q = M = 0.5, R = N = 1 + 0.1 (s - t), G1 = 0.4, G2 = 0.3, T = 1.
    """
    return scenario_to_spec(smoke_scenario(grid_steps))


def classical_reduction_problem(grid_steps: int = 1000) -> ProblemSpec:
    """Scalar instance reducing to a classical stochastic LQ problem.

    H = 0, all hat-coefficients zero, M = N = G2 = 0, and time-independent
    Q = R = G1 = 1 with A = 0, B = 1, C = 0, D = 1, T = 1.
    """
    return scenario_to_spec(classical_reduction_scenario(grid_steps))
