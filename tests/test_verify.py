import numpy as np
import pytest

from fbslq.equilibrium import SolverConfig, SolverDiagnostics, assemble_solution, solve_equilibrium
from fbslq.fields import Strategy
from fbslq.presets import classical_reduction_problem
from fbslq.riccati import characterization_residual
from fbslq.simulate import SimConfig
from fbslq.verify import (
    classical_riccati_feedback,
    suite_classical_reduction,
    suite_equilibrium,
    suite_example_2_5,
)
from tests.oracles import matrix_reduction_problem, steep_example_2_5_problem, trivial_problem


def test_suite_example_2_5_passes():
    report = suite_example_2_5(500)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "half_branch_range_fails_interior" in names and "half_branch_p1_origin" in names


def test_suite_example_errors_decrease_with_grid():
    # The steep running weight keeps truncation above roundoff, so the
    # diagonal error decreases monotonically as the grid refines.  The
    # suite's checks, but for the unit instance's closed-form origin, hold
    # on the steep instance too.
    cfg = SolverConfig(check_assumptions=False)
    errs = []
    for steps in (250, 500, 1000):
        spec = steep_example_2_5_problem(steps)
        zero = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1), cfg)
        assert zero.theta_star.sup_norm() <= 1e-12
        err = float(np.max(np.abs(zero.p1_diag.data)))
        assert err <= 1e-6
        assert zero.constraint_report.all_pass
        half = solve_equilibrium(spec, Strategy.constant(spec.grid, -0.5), cfg)
        assert np.max(np.abs(half.theta_star.data + 0.5)) <= 1e-12
        assert not np.any(half.constraint_report.range_ok_per_node[:-1])
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_suite_classical_scalar_passes():
    assert suite_classical_reduction(classical_reduction_problem(500)).passed


def test_suite_classical_matrix_gain_passes():
    assert suite_classical_reduction(matrix_reduction_problem(200)).passed


def test_suite_classical_rejects_non_reduction():
    from fbslq.presets import assumption_smoke_problem

    with pytest.raises(ValueError):
        suite_classical_reduction(assumption_smoke_problem(100))


def test_classical_oracle_zero_feedback_when_b_zero():
    # B = 0 and C = 0 kill both feedback channels.
    spec = trivial_problem(100)  # A = B = C = 0, D = 1, R = 1, Q = G1 = 0
    _, gain = classical_riccati_feedback(spec)
    assert gain.sup_norm() == 0.0


def test_suite_equilibrium_passes(smoke_solution):
    cfg = SimConfig(paths=1500, seed=42, x0=1.0)
    report = suite_equilibrium(smoke_solution, cfg)
    assert report.passed
    doc = report.to_dict()
    assert doc["passed"] is True
    assert len(doc["checks"]) == 3 + 8
    # The suite reads the solver's consistency gap.
    gap = next(c.value for c in report.checks if c.name == "integral_route_consistency")
    assert gap == smoke_solution.diagnostics.consistency_gap


def test_suite_equilibrium_rejects_corrupted_gain(smoke_solution):
    spec = smoke_solution.spec
    bad_vals = smoke_solution.theta_star.flat().copy()
    lo, hi = spec.grid.index_of(0.25), spec.grid.index_of(0.5)
    bad_vals[lo:hi] += 0.1
    bad_theta = Strategy.from_flat(spec.grid, bad_vals)
    resid = characterization_residual(spec, bad_theta)
    scale = 1.0 + bad_theta.sup_norm()
    assert resid.sup_norm() > 1e-6 * scale  # residual is first-order in the corruption

    # The solution of the bad gain, as load_solution_dir builds it from a corrupted theta.csv.
    corrupted = assemble_solution(spec, bad_theta, SolverDiagnostics())
    report = suite_equilibrium(corrupted, SimConfig(paths=500, seed=1, x0=1.0))
    assert not report.passed
    failing = [c.name for c in report.checks if not c.passed]
    assert "characterization_residual" in failing
