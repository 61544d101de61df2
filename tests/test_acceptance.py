"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (run with ``-s`` to
see them) and asserts the stated tolerance.  Heavy artifacts (the converged
generic scalar solution at 1000 grid steps) are shared session-wide.
"""

import math
import time

import numpy as np

from fbslq.equilibrium import SolverConfig, solve_equilibrium
from fbslq.fields import Strategy
from fbslq.matrixkit import default_rel_tol, pinv, specnorm
from fbslq.presets import (
    classical_reduction_problem,
    example_2_5_problem,
)
from fbslq.riccati import characterization_residual, solve_p1
from fbslq.simulate import SimConfig, SpikeSpec, spike_tests
from fbslq.verify import classical_riccati_feedback
from tests.oracles import (
    bsde_residual_check,
    in_range,
    penrose_residuals,
    perturbation_scaling,
    steep_example_2_5_problem,
)


def report(num: int, passed: bool, detail: str, elapsed: float):
    line = f"criterion {num}: {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s) - {detail}"
    print(line)
    assert passed, line


def test_criterion_1_example_zero_branch():
    start = time.time()
    spec = example_2_5_problem(1000)
    sol = solve_equilibrium(
        spec, Strategy.zeros(spec.grid, 1, 1), SolverConfig(check_assumptions=False)
    )
    diag_sup = float(np.max(np.abs(sol.p1_diag.data)))
    constraints = sol.constraint_report.all_pass
    elapsed = time.time() - start
    passed = diag_sup <= 1e-6 and constraints and elapsed < 5.0
    report(
        1,
        passed,
        f"max|P1(t;t)| = {diag_sup:.2e} <= 1e-6, constraints pass = {constraints}",
        elapsed,
    )


def test_criterion_2_example_half_branch():
    start = time.time()
    spec = example_2_5_problem(1000)
    sol = solve_equilibrium(
        spec, Strategy.constant(spec.grid, -0.5), SolverConfig(check_assumptions=False)
    )
    target = math.exp(-1.0) + 0.125
    origin_err = abs(float(sol.p1_diag.data[0, 0, 0]) - target)
    interior_fail = not bool(np.any(sol.constraint_report.range_ok_per_node[:-1]))
    elapsed = time.time() - start
    passed = origin_err <= 1e-4 and interior_fail and elapsed < 5.0
    report(
        2,
        passed,
        f"|P1(0;0) - (1/e + 1/8)| = {origin_err:.2e} <= 1e-4, "
        f"range fails at every interior node = {interior_fail}",
        elapsed,
    )


def test_criterion_3_generic_scalar_solver(smoke_solution_1000):
    start = time.time()
    sol = smoke_solution_1000
    spec = sol.spec
    diag = sol.diagnostics
    ratios_ok = all(w.max_contraction_ratio < 0.5 for w in diag.windows)
    residual_ok = all(w.final_residual <= 1e-10 for w in diag.windows)
    resid = characterization_residual(spec, sol.theta_star)
    char_bound = 1e-6 * (1.0 + sol.theta_star.sup_norm())
    char_ok = resid.sup_norm() <= char_bound
    consistency_ok = diag.consistency_gap <= 1e-6
    other = solve_equilibrium(spec, Strategy.constant(spec.grid, 5.0))
    theta0_gap = float(np.max(np.abs(other.theta_star.data - sol.theta_star.data)))
    theta0_ok = theta0_gap <= 10.0 * 1e-10
    elapsed = time.time() - start
    passed = ratios_ok and residual_ok and char_ok and consistency_ok and theta0_ok and elapsed < 60.0
    report(
        3,
        passed,
        f"contraction<0.5 = {ratios_ok}, fp residual<=1e-10 = {residual_ok}, "
        f"characterization {resid.sup_norm():.2e} <= {char_bound:.2e}, "
        f"consistency {diag.consistency_gap:.2e} <= 1e-6, theta0 gap {theta0_gap:.2e}",
        elapsed,
    )


def test_criterion_4_classical_reduction_oracle():
    start = time.time()
    spec = classical_reduction_problem(1000)
    sol = solve_equilibrium(
        spec, Strategy.zeros(spec.grid, 1, 1), SolverConfig(check_assumptions=False)
    )
    _, classical = classical_riccati_feedback(spec)
    gap = float(np.max(np.abs(sol.theta_star.data - classical.data)))
    elapsed = time.time() - start
    passed = gap <= 1e-6 and elapsed < 10.0
    report(4, passed, f"node-wise gain gap vs classical oracle = {gap:.2e} <= 1e-6", elapsed)


def test_criterion_5_spike_variation_monte_carlo(smoke_solution_1000):
    # One pass per t gives both directions: the -v report is ``opposite``,
    # bitwise the separate -v run (TestSpikeDirections), and one draw per RNG
    # block serves all four times (TestSpikeTests).
    start = time.time()
    sol = smoke_solution_1000
    spec = sol.spec
    all_liminf = True
    all_limit = True
    worst = ""
    times = (0.0, 0.25, 0.5, 0.75)
    cfg = SimConfig(paths=100_000, seed=0, x0=1.0)
    reports = spike_tests(
        spec, sol.theta_star, sol.p2, cfg, SpikeSpec(v=1.0), times,
        lam=sol.lam, residual=sol.residual,
    )
    for t, plus in zip(times, reports):
        for v, rep in ((1.0, plus), (-1.0, plus.opposite)):
            all_liminf &= rep.liminf_pass
            all_limit &= rep.limit_converged
            if not (rep.liminf_pass and rep.limit_converged):
                worst = f" (first failure t={t}, v={v})"
    elapsed = time.time() - start
    passed = all_liminf and all_limit and elapsed < 180.0
    report(
        5,
        passed,
        f"every Delta >= -3 stderr = {all_liminf}, tail matches quadratic form "
        f"within 3 stderr = {all_limit}{worst}",
        elapsed,
    )


def test_criterion_6_perturbation_rate(smoke_solution_1000):
    start = time.time()
    sol = smoke_solution_1000
    cfg = SimConfig(paths=20_000, seed=0, x0=1.0)
    rows = perturbation_scaling(sol.spec, sol.theta_star, sol.p2, cfg, SpikeSpec(v=1.0), 0.0)
    eps = np.array([r["eps_used"] for r in rows])
    ex = np.array([r["ex_sup_dx2"] for r in rows])
    eyz = np.array([r["ex_sup_dy2_int_dz2"] for r in rows])
    slope_x = float(np.polyfit(np.log(eps), np.log(ex), 1)[0])
    slope_yz = float(np.polyfit(np.log(eps), np.log(eyz), 1)[0])
    elapsed = time.time() - start
    passed = abs(slope_x - 1.0) <= 0.15 and abs(slope_yz - 1.0) <= 0.15
    report(
        6,
        passed,
        f"log-log slopes: E sup|dX|^2 = {slope_x:.3f}, E[sup|dY|^2 + int|dZ|^2] = {slope_yz:.3f} "
        f"(target 1 +- 0.15)",
        elapsed,
    )


def test_criterion_7_numerical_order(smoke_solution_1000):
    start = time.time()
    errs = {}
    for steps in (500, 1000):
        spec = steep_example_2_5_problem(steps)
        diag = solve_p1(spec, Strategy.zeros(spec.grid, 1, 1)).diagonal()
        errs[steps] = float(np.max(np.abs(diag.data)))
    order_ratio = errs[500] / errs[1000]

    sol = smoke_solution_1000
    r1 = bsde_residual_check(sol.spec, sol.theta_star, sol.p2, SimConfig(paths=4000, seed=0, sub_steps=1))
    r2 = bsde_residual_check(sol.spec, sol.theta_star, sol.p2, SimConfig(paths=4000, seed=0, sub_steps=2))
    halving = r2 / r1
    elapsed = time.time() - start
    passed = order_ratio >= 12.0 and 0.35 <= halving <= 0.65
    report(
        7,
        passed,
        f"P1 diagonal error ratio 500->1000 = {order_ratio:.1f} (>= 12), "
        f"backward-equation residual ratio = {halving:.3f} (0.5 +- 30%)",
        elapsed,
    )


def test_criterion_8_matrixkit_properties():
    # The stated bound scales every residual by |M|; the residual of the
    # second identity naturally scales by |M^+|, so draws with tiny norms or
    # extreme conditioning can exceed the letter of the bound in any float64
    # implementation.  The canonical seed-0 Gaussian ensemble stays clear of
    # that regime; the scale-correct residuals are asserted alongside so the
    # check does not hinge on the draw.
    start = time.time()
    rng = np.random.default_rng(0)
    shapes = [(1, 1), (2, 2), (5, 5), (4, 2), (2, 6)]
    literal_ok = True
    scaled_ok = True
    range_ok = True
    worst = 0.0
    for shape in shapes:
        rel = default_rel_tol(shape)
        for trial in range(200):
            m = rng.standard_normal(shape)
            if trial % 4 == 0 and min(shape) > 1:
                m[:, -1] = m[:, 0]  # rank-deficient slice
            mp = pinv(m)
            r1, r2, r3, r4 = penrose_residuals(m, mp)
            norm_m = max(specnorm(m), 1e-300)
            norm_mp = max(specnorm(mp), 1e-300)
            bound = 10.0 * rel * norm_m
            worst = max(worst, max(r1, r2, r3, r4) / bound)
            literal_ok &= max(r1, r2, r3, r4) <= bound
            scaled_ok &= bool(
                r1 <= 10.0 * rel * norm_m
                and r2 <= 10.0 * rel * norm_mp
                and r3 <= 10.0 * rel
                and r4 <= 10.0 * rel
            )
            range_ok &= in_range(m, m)
    elapsed = time.time() - start
    passed = bool(literal_ok and scaled_ok and range_ok)
    report(
        8,
        passed,
        f"Penrose identities within 10*rel_tol*|M| for 200 matrices x {len(shapes)} shape "
        f"classes (worst fraction {worst:.2f}; scale-correct residuals also hold = "
        f"{bool(scaled_ok)}), in_range(M, M) universal = {bool(range_ok)}",
        elapsed,
    )
