"""Monte-Carlo spike-variation check of a converged equilibrium gain.

Replacing the control on a shrinking window [t, t + eps) by a fixed direction
must not produce a first-order cost improvement at an equilibrium: the
difference quotient Delta(eps) stays nonnegative and converges to an explicit
quadratic form built from the Riccati diagonal.  Common random numbers couple
every perturbed run to its unperturbed twin, so the ladder resolves far below
the raw Monte-Carlo noise floor.  The perturbation is linear in the direction,
so the same pass also gives the ladder for -v.
"""


from fbslq import SimConfig, SpikeSpec, Strategy, solve_equilibrium, spike_test
from fbslq.presets import assumption_smoke_problem

spec = assumption_smoke_problem(grid_steps=1000)
sol = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1))

cfg = SimConfig(paths=40_000, seed=0, x0=1.0)
t = 0.25
report = spike_test(
    spec, sol.theta_star, sol.p2, cfg, SpikeSpec(v=1.0), t,
    lam=sol.lam, residual=sol.residual,
)

print(f"spike test at t = {t}, {cfg.paths} paths; one pass gives both directions")
print(f"theory: quadratic coefficient {report.rows[0].theory_quadratic:.4f}, "
      f"first-order term {report.rows[0].theory_first_order:+.2e} (for v = +1)")
for rep in (report, report.opposite):
    print()
    print(f"direction v = {rep.v[0]:+g}")
    print("   eps      Delta(eps)   stderr")
    for row in rep.rows:
        print(f"  {row.eps_used:7.4f}  {row.delta:+9.4f}   {row.stderr:.4f}")
    print(f"every Delta >= -3 stderr:            {rep.liminf_pass}")
    print(f"tail matches the quadratic form:     {rep.limit_converged}")
    print(f"estimated first-order coefficient:   {rep.first_order_estimate:+.4f} (should be ~0)")
cost = report.closed_loop
print()
print(f"closed-loop cost from the same paths: {cost.estimate:.6f} +- {cost.stderr:.6f}")
