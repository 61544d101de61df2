"""Built-in problem instances used by the verification suites and the CLI.

A preset is its scenario's spec: each builder reads the document of the same
name in :mod:`fbslq.scenario`, the one definition of that problem, through
:func:`~fbslq.scenario.scenario_to_spec`.  The only instance the scenario
family cannot write, the steep running weight of Example 2.5, overrides Q and
G1 of the unit instance with exact callables.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .kernels import CallableFn, CallableKernel
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


def example_2_5_problem(grid_steps: int = 1000, q: str = "unit") -> ProblemSpec:
    """Scalar instance with a vanishing control weight on the diagonal.

    A = D = 0, B = C = 1, R(s,t) = s - t, T = 1, and the terminal weight is
    tied to the running state weight so the diagonal of the first Riccati
    field vanishes identically under the zero gain:

        G1(t) = -int_t^T exp(-(T - tau)) q(tau) dtau.

    ``q`` selects the running weight: "unit" is q = 1 (closed form
    G1(t) = -(1 - e^{-(T-t)}), a node table exact at the grid nodes);
    "steep" is q(s) = 1 + 9 s^2, which keeps the same vanishing-diagonal
    identity but carries enough curvature that the integrator's truncation
    error is measurable against roundoff.
    """
    if q not in ("unit", "steep"):
        raise ValueError(f"unknown q variant {q!r}")
    spec = scenario_to_spec(example_2_5_scenario(grid_steps))
    if q == "unit":
        return spec

    def steep_q(s, t):
        s = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))[0]
        return (1.0 + 9.0 * s**2)[..., None, None]

    def steep_g1(t):
        t = np.asarray(t, dtype=float)
        val = 10.0 - np.exp(-(spec.horizon - t)) * (9.0 * t**2 - 18.0 * t + 19.0)
        return (-val)[..., None, None]

    weights = dataclasses.replace(
        spec.weights, Q=CallableKernel(steep_q, (1, 1)), G1=CallableFn(steep_g1, (1, 1))
    )
    return dataclasses.replace(spec, weights=weights)


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
