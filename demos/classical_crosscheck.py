"""Time-consistent reduction: the equilibrium gain is the classical LQ gain.

When the backward coupling vanishes (H = 0, all hat-coefficients zero,
M = N = G2 = 0) and the weights do not depend on the evaluation time, the
equilibrium machinery must reproduce plain stochastic LQ feedback.  The
classical side is integrated by an independent code path, so agreement to
1e-6 node-wise is a real cross-check, not a tautology.
"""

import numpy as np

from fbslq import SolverConfig, Strategy, solve_equilibrium
from fbslq.presets import classical_reduction_problem
from fbslq.verify import classical_riccati_feedback

spec = classical_reduction_problem(grid_steps=1000)

# N == 0 exits the positivity floor, so enforcement is waived for this run.
sol = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1),
                        SolverConfig(check_assumptions=False))
p_classical, gain_classical = classical_riccati_feedback(spec)

gap = np.max(np.abs(sol.theta_star.data - gain_classical.data))
print(f"node-wise gain gap (equilibrium vs classical Riccati): {gap:.3e}")

nodes = spec.grid.nodes
print("\n   t      equilibrium     classical")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    i = int(frac * (len(nodes) - 1))
    print(f"  {nodes[i]:.2f}   {sol.theta_star.flat()[i]:+.8f}   {gain_classical.flat()[i]:+.8f}")

assert gap <= 1e-6
print("\nagreement within 1e-6: the two routes coincide on this reduction.")
