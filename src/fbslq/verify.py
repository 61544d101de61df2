"""Named verification suites bundling the oracles and cross-checks.

Every suite is deterministic given (problem, grid, seed) and returns a
:class:`SuiteReport` whose overall flag is the conjunction of its checks.
The classical-reduction oracle integrates its Riccati equation with a
self-contained RK4 loop (no shared right-hand-side assembly with the main
integrators), so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import EquilibriumSolution, SolverConfig, solve_equilibrium
from .fields import OneTimeField, Strategy
from .presets import example_2_5_problem
from .problem import ProblemSpec
from .riccati import characterization_residual
from .simulate import SimConfig, SpikeSpec, spike_tests

__all__ = [
    "CheckResult",
    "SuiteReport",
    "classical_riccati_feedback",
    "suite_example_2_5",
    "suite_classical_reduction",
    "suite_equilibrium",
    "consistency_bound",
]


@dataclass
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool
    note: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, value, bound, passed, note="") -> None:
        self.checks.append(CheckResult(name, float(value), float(bound), bool(passed), note))

    def add_upper(self, name, value, bound, note="") -> None:
        self.add(name, value, bound, value <= bound, note)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "bound": c.bound,
                    "passed": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


def _is_classical_reduction(spec: ProblemSpec, tol: float = 1e-12) -> bool:
    """H = 0, hat-coefficients = 0, M = N = G2 = 0, time-independent Q, R, G1."""
    nodes = spec.grid.nodes
    probe = nodes[:: max(1, len(nodes) // 16)]
    c, w = spec.coeffs, spec.weights
    zero_hats = all(
        float(np.max(np.abs(fn(probe)))) <= tol for fn in (c.Ahat, c.Bhat, c.Chat, c.Dhat)
    )
    zero_h = float(np.max(np.abs(np.asarray(c.H)))) <= tol
    ss, tt = np.meshgrid(probe, probe, indexing="ij")
    zero_mn = (
        float(np.max(np.abs(w.M(ss, tt)))) <= tol and float(np.max(np.abs(w.N(ss, tt)))) <= tol
    )
    zero_g2 = float(np.max(np.abs(w.G2(probe)))) <= tol
    q_const = float(np.max(np.abs(w.Q(ss, tt) - w.Q(0.0, 0.0)))) <= tol
    r_const = float(np.max(np.abs(w.R(ss, tt) - w.R(0.0, 0.0)))) <= tol
    g1_const = float(np.max(np.abs(w.G1(probe) - w.G1(0.0)))) <= tol
    return zero_hats and zero_h and zero_mn and zero_g2 and q_const and r_const and g1_const


def classical_riccati_feedback(spec: ProblemSpec) -> tuple[OneTimeField, Strategy]:
    """Independent classical stochastic-LQ oracle.

    Integrates  dP/ds + P A + A^T P + C^T P C + Q
                  - (P B + C^T P D)(R + D^T P D)^{-1}(B^T P + D^T P C) = 0,
    P(T) = G1, backward with RK4 on the grid, and returns P with the feedback
    gain  -(R + D^T P D)^{-1}(B^T P + D^T P C)  at every node.
    """
    grid = spec.grid
    nodes, mids = grid.nodes, grid.midpoints
    h = grid.h
    c, w = spec.coeffs, spec.weights
    q0 = w.Q(0.0, 0.0)
    r0 = w.R(0.0, 0.0)

    def rhs(s, p):
        a, b = c.A(s), c.B(s)
        cc, d = c.C(s), c.D(s)
        pb_cpd = p @ b + cc.T @ p @ d
        gain_core = np.linalg.solve(r0 + d.T @ p @ d, pb_cpd.T)
        return -(p @ a + a.T @ p + cc.T @ p @ cc + q0 - pb_cpd @ gain_core)

    n = spec.dims.n
    p = np.empty((grid.num_nodes, n, n))
    p[-1] = w.G1(nodes[-1])
    cur = p[-1]
    for j in range(grid.steps - 1, -1, -1):
        s0, sm, s1 = nodes[j], mids[j], nodes[j + 1]
        k1 = rhs(s1, cur)
        k2 = rhs(sm, cur - 0.5 * h * k1)
        k3 = rhs(sm, cur - 0.5 * h * k2)
        k4 = rhs(s0, cur - h * k3)
        cur = cur - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        cur = 0.5 * (cur + cur.T)
        p[j] = cur

    gains = np.empty((grid.num_nodes, spec.dims.k, n))
    for i, s in enumerate(nodes):
        b, d, cc = c.B(s), c.D(s), c.C(s)
        lam = r0 + d.T @ p[i] @ d
        gains[i] = -np.linalg.solve(lam, b.T @ p[i] + d.T @ p[i] @ cc)
    return OneTimeField(grid, p), Strategy(grid, gains)


def suite_example_2_5(grid_steps: int = 1000) -> SuiteReport:
    """Both parameter branches of the vanishing-control-weight example.

    Zero parameter: the gain vanishes, the Riccati diagonal vanishes, and all
    three constraints hold.  Parameter -1/2: the gain passes the parameter
    through, the diagonal is strictly positive (matching the closed form at
    t = 0), and the range constraint fails at every interior node -- which is
    the expected outcome and therefore recorded as a passing check.
    """
    report = SuiteReport(suite="example25")
    spec = example_2_5_problem(grid_steps)
    cfg = SolverConfig(check_assumptions=False)

    sol0 = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1), cfg)
    report.add_upper("zero_branch_gain_sup", sol0.theta_star.sup_norm(), 1e-12)
    report.add_upper(
        "zero_branch_p1_diag_sup", float(np.max(np.abs(sol0.p1_diag.data))), 1e-6
    )
    rep0 = sol0.constraint_report
    report.add("zero_branch_constraints", float(rep0.all_pass), 1.0, rep0.all_pass)

    half = Strategy.constant(spec.grid, -0.5)
    solh = solve_equilibrium(spec, half, cfg)
    report.add_upper(
        "half_branch_gain_passthrough",
        float(np.max(np.abs(solh.theta_star.data + 0.5))),
        1e-12,
    )
    target = float(np.exp(-1.0) + 0.125)
    report.add_upper(
        "half_branch_p1_origin",
        abs(float(solh.p1_diag.data[0, 0, 0]) - target),
        1e-4,
        note=f"target {target}",
    )
    reph = solh.constraint_report
    interior_all_fail = not bool(np.any(reph.range_ok_per_node[:-1]))
    report.add(
        "half_branch_range_fails_interior",
        float(interior_all_fail),
        1.0,
        interior_all_fail,
        note="range inclusion must fail wherever the diagonal is positive",
    )
    return report


def suite_classical_reduction(spec: ProblemSpec) -> SuiteReport:
    """Compare against the independently integrated classical LQ feedback.

    Scalar problems are solved end to end and the equilibrium gain is matched
    node-wise; for matrix problems the classical gain is fed through the
    characterization residual (the time-consistent case, where it must
    vanish).
    """
    if not _is_classical_reduction(spec):
        raise ValueError("spec does not satisfy the classical-reduction conditions")
    report = SuiteReport(suite="classical")
    _, classical = classical_riccati_feedback(spec)

    if spec.is_one_dimensional():
        cfg = SolverConfig(check_assumptions=False)
        sol = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1), cfg)
        gap = float(np.max(np.abs(sol.theta_star.data - classical.data)))
        report.add_upper("gain_matches_classical", gap, 1e-6)
        scale = 1.0 + sol.theta_star.sup_norm()
        report.add_upper("characterization_residual", sol.residual.sup_norm(), 1e-6 * scale)
    else:
        resid = characterization_residual(spec, classical)
        scale = 1.0 + classical.sup_norm()
        report.add_upper("characterization_residual_classical_gain", resid.sup_norm(), 1e-6 * scale)
    return report


def consistency_bound(solution: EquilibriumSolution) -> float:
    """Bound of the integral/matrix route gap: 1e-6 relative to 1 + max |p1t|.

    A gap above it means the grid under-resolves the problem, for example a
    weight that decays within a few steps.
    """
    p1t = solution.p1_tilde.data[:, 0, 0]
    return 1e-6 * (1.0 + float(np.max(np.abs(p1t))))


def suite_equilibrium(solution: EquilibriumSolution, sim_cfg: SimConfig) -> SuiteReport:
    """Full equilibrium audit of a converged solution.

    Characterization residual, the three constraints, integral/matrix route
    consistency, and spike tests at the grid nodes (q * steps) // 4,
    q = 0..3, with both unit perturbation directions (one spike test per
    node gives both).  The four tests run as one pass of
    :func:`~fbslq.simulate.spike_tests`: one draw per RNG block serves every
    node.  Every check reads what the solution already holds: its residual,
    its constraint report, its consistency gap, and Lambda for the spike
    tests, all formed once with the solution, solved or loaded, from the
    fields of its gain.
    """
    report = SuiteReport(suite="equilibrium")
    theta = solution.theta_star
    spec = solution.spec
    scale = 1.0 + theta.sup_norm()

    report.add_upper("characterization_residual", solution.residual.sup_norm(), 1e-6 * scale)

    rep = solution.constraint_report
    report.add("constraints_all_pass", float(rep.all_pass), 1.0, rep.all_pass)

    gap = solution.diagnostics.consistency_gap
    report.add_upper("integral_route_consistency", gap, consistency_bound(solution))

    grid = spec.grid
    times = [float(grid.nodes[(q * grid.steps) // 4]) for q in range(4)]
    reports = spike_tests(
        spec, theta, solution.p2, sim_cfg, SpikeSpec(v=1.0), times,
        lam=solution.lam, residual=solution.residual,
    )
    for q, rep_s in enumerate(reports):
        for v, rep_v in ((1.0, rep_s), (-1.0, rep_s.opposite)):
            report.add(
                f"spike_liminf_t{q / 4}_v{v:+g}",
                float(rep_v.liminf_pass),
                1.0,
                rep_v.liminf_pass,
            )
    return report
