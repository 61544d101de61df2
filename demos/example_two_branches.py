"""The parameter-dependence example: one problem, two pass-through choices.

A scalar problem with A = D = 0, B = C = 1, R(s,t) = s - t and a terminal
weight tied to the running weight has a degenerate gain denominator on the
whole diagonal, so the update routes every node through the pass-through
parameter.  With parameter 0 the system solves and all three constraints
hold; with parameter -1/2 the same equations solve but the range-inclusion
constraint fails at every interior node, so that branch certifies nothing --
the solvability of the constrained system genuinely depends on the parameter.
"""

import numpy as np

from fbslq import SolverConfig, Strategy, solve_equilibrium
from fbslq.presets import example_2_5_problem

spec = example_2_5_problem(grid_steps=1000)
cfg = SolverConfig(check_assumptions=False)  # D == 0 sits outside the positivity floor

for label, theta0 in (("zero", 0.0), ("minus half", -0.5)):
    sol = solve_equilibrium(spec, Strategy.constant(spec.grid, theta0), cfg)
    diag = sol.p1_diag.flat()
    rep = sol.constraint_report
    print(f"pass-through parameter = {theta0:+.1f} ({label} branch)")
    print(f"  gain:             constant {sol.theta_star.flat()[0]:+.3f}")
    print(f"  max |P1(t;t)|:    {np.max(np.abs(diag)):.3e}")
    print(f"  P1(0;0):          {diag[0]:.9f}  (closed form 1/e + 1/8 = {np.exp(-1)+0.125:.9f})")
    print(f"  range inclusion:  {'holds everywhere' if rep.range_pass else 'FAILS at interior nodes'}")
    print(f"  PSD / L2:         {rep.psd_pass} / {rep.l2_pass}")
    print()

print("Same equations, same data; only the parameter changed.")
