import json
import os
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from fbslq import equilibrium
from fbslq.cli import main
from fbslq.equilibrium import SolverConfig, solve_equilibrium
from fbslq.fields import Strategy
from fbslq.io_utils import load_solution_dir, two_time_field_rows, write_csv
from fbslq.problem import validate
from fbslq.riccati import solve_p1, solve_p2, solve_p3
from fbslq.scenario import (
    classical_reduction_scenario,
    example_2_5_scenario,
    load_scenario,
    scenario_to_spec,
    smoke_scenario,
    trivial_scenario,
)
from fbslq.simulate import SimConfig, simulate_closed_loop
from fbslq.verify import consistency_bound
from tests.oracles import build_controls, evaluate_cost, matrix_reduction_scenario, second_moment_factor, trivial_problem


@pytest.mark.parametrize(
    "doc",
    [trivial_scenario(60), smoke_scenario(60), example_2_5_scenario(60), classical_reduction_scenario(60)],
)
def test_builtin_scenarios_validate(doc):
    spec = scenario_to_spec(doc)
    assert validate(spec).ok
    assert spec.grid.steps == 60


def test_scenario_grid_override():
    spec = scenario_to_spec(trivial_scenario(60), grid_steps=30)
    assert spec.grid.steps == 30


def test_scenario_missing_field_raises():
    doc = trivial_scenario(20)
    del doc["weights"]["Q"]
    with pytest.raises(ValueError):
        scenario_to_spec(doc)


def test_example_files_solve_to_their_presets_bitwise(tmp_path):
    # Each file goes through JSON and load_scenario; its preset reads the
    # same document in memory, so both solve to the same gain bit for bit.
    from fbslq import presets

    assert main(["example", "--out", str(tmp_path), "--grid-steps", "60"]) == 0
    pairs = {
        "example25.json": presets.example_2_5_problem,
        "trivial.json": trivial_problem,
        "smoke.json": presets.assumption_smoke_problem,
        "classical.json": presets.classical_reduction_problem,
    }
    config = SolverConfig(check_assumptions=False)  # Example 2.5 has R(t, t) = 0
    for name, preset in pairs.items():
        loaded, built = load_scenario(str(tmp_path / name)), preset(60)
        thetas = [solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1), config).theta_star.data
                  for spec in (loaded, built)]
        assert np.array_equal(*thetas), name


def table_smoke_scenario(grid_steps):
    """The smoke document with R and N as 11 x 11 node tables of 1 + 0.1 (s - t).

    Bilinear interpolation is exact for this linear lag, so the table
    kernels take the dense route to the lag kernels' gain.
    """
    doc = smoke_scenario(grid_steps)
    nodes = np.linspace(0.0, 1.0, 11)
    table = {"s_nodes": nodes.tolist(), "t_nodes": nodes.tolist(),
             "values": (1.0 + 0.1 * (nodes[:, None] - nodes[None, :])).tolist()}
    doc["weights"]["R"] = doc["weights"]["N"] = {"type": "table", "params": table}
    return doc


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def solved_smoke(tmp_path_factory):
    """A solution directory of the smoke scenario on 100 steps."""
    root = tmp_path_factory.mktemp("solved")
    scen = write(root, "smoke.json", smoke_scenario(100))
    assert main(["solve", scen, "--out", str(root / "sol")]) == 0
    return str(root / "sol")


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("value", ["1e20", "1e150", "1e300"])
def test_overflowing_loaded_gain_exits_2_with_one_error_line(tmp_path, capsys, solved_smoke, command, value):
    # Every Riccati field of such a gain overflows: the load says so, once,
    # and no float warning reaches stderr.
    sol = tmp_path / "sol"
    shutil.copytree(solved_smoke, sol)
    rows = (sol / "theta.csv").read_text().splitlines()
    (sol / "theta.csv").write_text("\n".join([rows[0]] + [f"{r.split(',')[0]},{value}" for r in rows[1:]]) + "\n")
    suite = ["--suite", "equilibrium"] if command == "verify" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, str(sol), *suite, "--paths", "16", "--out", str(tmp_path / "out")])
    assert code == 2
    assert_one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def rewrite_summary(sol, change):
    path = sol / "summary.json"
    path.write_text(json.dumps(change(json.loads(path.read_text()))))


def set_diagnostics(key, value):
    def change(summary):
        summary["diagnostics"][key] = value
        return summary
    return change


def rewrite_theta_row(sol, row):
    lines = (sol / "theta.csv").read_text().splitlines()
    lines[4] = row(lines[4])
    (sol / "theta.csv").write_text("\n".join(lines) + "\n")


def rewrite_diagnostics_row(sol, row):
    lines = (sol / "diagnostics.csv").read_text().splitlines()
    lines[1] = row(lines[1])
    (sol / "diagnostics.csv").write_text("\n".join(lines) + "\n")


BAD_SOLUTION_FILES = {
    "summary_array": (lambda sol: rewrite_summary(sol, lambda s: []),
                      "summary.json: the document must be a JSON object"),
    "summary_null": (lambda sol: rewrite_summary(sol, lambda s: None),
                     "summary.json: the document must be a JSON object"),
    "diagnostics_string": (lambda sol: rewrite_summary(sol, lambda s: {**s, "diagnostics": "x"}),
                           "summary.json: diagnostics must be a JSON object"),
    "fp_tolerance_array": (lambda sol: rewrite_summary(sol, set_diagnostics("fp_tolerance", [1])),
                           "summary.json: diagnostics.fp_tolerance must be a JSON number"),
    "fp_tolerance_null": (lambda sol: rewrite_summary(sol, set_diagnostics("fp_tolerance", None)),
                          "summary.json: diagnostics.fp_tolerance must be a JSON number"),
    "theta_text": (lambda sol: rewrite_theta_row(sol, lambda r: r.split(",")[0] + ",abc"),
                   "theta.csv: line 5: could not convert string to float: 'abc'"),
    "theta_extra_column": (lambda sol: rewrite_theta_row(sol, lambda r: r + ",1"),
                           "theta.csv: line 5 has 3 columns, want 2"),
    "diagnostics_extra_column": (lambda sol: rewrite_diagnostics_row(sol, lambda r: r + ",1"),
                                 "diagnostics.csv: line 2 has 7 columns, want 6"),
    "diagnostics_short_row": (lambda sol: rewrite_diagnostics_row(sol, lambda r: r.rsplit(",", 1)[0]),
                              "diagnostics.csv: line 2 has 5 columns, want 6"),
    "diagnostics_text": (lambda sol: rewrite_diagnostics_row(sol, lambda r: "x" + r[r.index(","):]),
                         "diagnostics.csv: line 2: invalid literal for int() with base 10: 'x'"),
}


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("case", sorted(BAD_SOLUTION_FILES))
def test_malformed_solution_file_exits_2_with_one_error_line(tmp_path, capsys, solved_smoke, command, case):
    # A file of the wrong JSON type or shape is bad input, not a failed suite.
    sol = tmp_path / "sol"
    shutil.copytree(solved_smoke, sol)
    corrupt, message = BAD_SOLUTION_FILES[case]
    corrupt(sol)
    suite = ["--suite", "equilibrium"] if command == "verify" else []
    assert main([command, str(sol), *suite, "--paths", "16", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: cannot load solution: {message}")
    assert not (tmp_path / "out").exists()


def test_a_blank_diagnostics_line_loads_the_same_windows(tmp_path, solved_smoke):
    # theta.csv skips blank lines, and so does diagnostics.csv.
    sol = tmp_path / "sol"
    shutil.copytree(solved_smoke, sol)
    rewrite_diagnostics_row(sol, lambda r: "\n" + r + "\n")
    windows = load_solution_dir(str(sol)).diagnostics.windows
    assert len(windows) > 1 and windows == load_solution_dir(solved_smoke).diagnostics.windows


def test_an_absent_fp_tolerance_loads_as_nan(tmp_path, solved_smoke):
    sol = tmp_path / "sol"
    shutil.copytree(solved_smoke, sol)
    rewrite_summary(sol, lambda s: {**s, "diagnostics": {}})
    assert np.isnan(load_solution_dir(str(sol)).diagnostics.fp_tolerance)


class TestPassThroughReload:
    """The loader recomputes the pass-through nodes from the gain; it never reads them."""

    @pytest.fixture(scope="class")
    def solved(self, tmp_path_factory):
        """The solution directories of the four example documents, the -0.5 branch and the table scenario."""
        root = tmp_path_factory.mktemp("examples")
        assert main(["example", "--out", str(root), "--grid-steps", "100"]) == 0
        write(root, "table.json", table_smoke_scenario(100))
        runs = {name: [str(root / f"{name}.json")] for name in ("example25", "trivial", "smoke", "classical", "table")}
        runs["example25-half"] = [str(root / "example25.json"), "--theta0", "const:-0.5"]
        for name, args in runs.items():
            assert main(["solve", *args, "--out", str(root / name)]) == 0
        return root

    @pytest.mark.parametrize("name", ["example25", "example25-half", "trivial", "smoke", "classical", "table"])
    def test_the_reloaded_nodes_are_the_solves(self, tmp_path, solved, name):
        sol = tmp_path / name
        shutil.copytree(solved / name, sol)
        recorded = json.loads((sol / "summary.json").read_text())["diagnostics"]["passthrough_nodes"]

        def drop(summary):
            del summary["diagnostics"]["passthrough_nodes"]
            return summary

        rewrite_summary(sol, drop)
        assert load_solution_dir(str(sol)).diagnostics.passthrough_nodes == recorded
        assert len(recorded) == (101 if name.startswith("example25") else 0)

    @pytest.mark.parametrize("name", ["example25", "smoke"])
    @pytest.mark.parametrize("stored", [5, [1.5], [0, 7]], ids=["int", "float_node", "wrong_list"])
    def test_a_wrong_stored_list_is_not_read(self, tmp_path, solved, name, stored):
        sol = tmp_path / name
        shutil.copytree(solved / name, sol)
        recorded = json.loads((sol / "summary.json").read_text())["diagnostics"]["passthrough_nodes"]
        rewrite_summary(sol, set_diagnostics("passthrough_nodes", stored))
        assert load_solution_dir(str(sol)).diagnostics.passthrough_nodes == recorded


class TestCliSolve:
    def test_trivial_scenario_solves_to_zeros(self, tmp_path):
        scen = write(tmp_path, "trivial.json", trivial_scenario(60))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--out", out]) == 0
        data = np.genfromtxt(os.path.join(out, "theta.csv"), delimiter=",", skip_header=1)
        assert np.array_equal(data[:, 1], np.zeros(61))
        for name in ("theta.csv", "p1_diag.csv", "p2.csv", "p3_diag.csv",
                     "diagnostics.csv", "summary.json", "manifest.json", "scenario.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_example_half_branch_flags_range_failure(self, tmp_path):
        scen = write(tmp_path, "ex25.json", example_2_5_scenario(80))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--theta0", "const:-0.5", "--out", out]) == 0
        summary = json.loads((tmp_path / "sol" / "summary.json").read_text())
        assert summary["constraint_report"]["range_pass"] is False
        assert "positivity_audit_failed" in summary

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": {')
        assert main(["solve", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    ONE_LINE_CASES = {  # each refused with exactly one error line
        "huge_horizon": ("horizon", 1.7976931348623157e308),  # its grid midpoints overflow
        "bool_steps": ("grid_steps", True),
        "fractional_steps": ("grid_steps", 50.7),
        "float_steps": ("grid_steps", 1000.0),
        "fractional_dim": ("dims", {"n": 1.9, "m": 1, "k": 1}),
        "string_horizon": ("horizon", "1.0"),
    }

    @pytest.mark.parametrize("case", ["list", "null", "nan_horizon", "inf_horizon", "nan_coeff", "inf_coeff",
                                      "huge_int_coeff", "inf_dimension", "subnormal_horizon", "matrix_dims",
                                      *ONE_LINE_CASES])
    def test_bad_document_exits_2_without_traceback(self, tmp_path, capsys, case):
        doc = smoke_scenario(20)
        if case in self.ONE_LINE_CASES:
            key, value = self.ONE_LINE_CASES[case]
            doc[key] = value
        elif case in ("nan_horizon", "inf_horizon"):
            doc["horizon"] = float(case[:3])
        elif case in ("nan_coeff", "inf_coeff"):
            doc["coeffs"]["A"]["params"]["value"] = [[float(case[:3])]]
        elif case == "huge_int_coeff":  # no float holds it
            doc["coeffs"]["A"]["params"]["value"] = [[10**400]]
        elif case == "inf_dimension":
            doc["dims"]["n"] = float("inf")
        elif case == "subnormal_horizon":  # its grid step underflows to zero
            doc["horizon"] = 5e-324
        elif case == "matrix_dims":  # well formed, but the solver is scalar
            doc = matrix_reduction_scenario(40)
        else:
            doc = {"list": [], "null": None}[case]
        scen = write(tmp_path, "bad.json", doc)
        assert main(["solve", scen, "--out", str(tmp_path / "x")]) == 2
        if case == "matrix_dims" or case in self.ONE_LINE_CASES:
            assert_one_error_line(capsys)
        else:
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    NON_NUMERIC_CASES = {  # (section, entry, its JSON value)
        "string_rate": ("weights", "Q", {"type": "discounted", "params": {"base": [[0.5]], "rate": "2"}}),
        "bool_matrix": ("coeffs", "A", {"type": "constant", "params": {"value": [[True]]}}),
        "bool_alpha": ("weights", "R", {"type": "difference", "params": {"alpha": [[False]], "beta": [[1.0]]}}),
        "string_H": ("coeffs", "H", [["0.3"]]),
        "string_nodes": ("weights", "G1",
                         {"type": "table", "params": {"nodes": ["0", "1"], "values": [[[0.4]], [[0.4]]]}}),
    }

    @pytest.mark.parametrize("case", NON_NUMERIC_CASES)
    def test_non_numeric_scenario_value_exits_2(self, tmp_path, capsys, case):
        # numpy would read each of these as a number; the scenario boundary refuses them.
        doc = smoke_scenario(20)
        section, name, value = self.NON_NUMERIC_CASES[case]
        doc[section][name] = value
        scen = write(tmp_path, "bad.json", doc)
        assert main(["solve", scen, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad scenario: {section}.{name}") and err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--grid-steps=0", "--fp-tolerance=-1", "--fp-tolerance=nan",
                                        "--damping=0", "--window=nan", "--window=0", "--window=-0.5",
                                        "--theta0=const:nan"])
    def test_bad_option_exits_2_without_traceback(self, tmp_path, capsys, option):
        scen = write(tmp_path, "smoke.json", smoke_scenario(20))
        assert main(["solve", scen, "--out", str(tmp_path / "x"), option]) == 2
        assert_one_error_line(capsys)

    NO_WARNING_CASES = {  # each refused with exactly one error line and no float warning
        "one_node_G1": ("G1", {"type": "table", "params": {"nodes": [0.5], "values": [[[0.4]]]}}),
        "one_node_R": ("R", {"type": "table", "params": {"s_nodes": [0.5], "t_nodes": [0.5], "values": [[1.0]]}}),
        "overflowing_Q": ("Q", {"type": "discounted", "params": {"base": [[0.5]], "rate": -800}}),
    }

    @pytest.mark.parametrize("case", NO_WARNING_CASES)
    def test_bad_weight_exits_2_without_a_warning(self, tmp_path, capsys, case):
        # A one-node table has no cell to interpolate in; exp(800 (s - t))
        # overflows on the sample lattice, which validate reports itself.
        doc = smoke_scenario(20)
        slot, spec = self.NO_WARNING_CASES[case]
        doc["weights"][slot] = spec
        scen = write(tmp_path, "bad.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", scen, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        if case == "overflowing_Q":
            assert err == "error: non-finite samples Q\n"
        else:
            assert err == "error: bad scenario: a table needs at least two nodes per axis, got shape (1,)\n"

    def test_validation_failure_exits_2(self, tmp_path):
        doc = trivial_scenario(20)
        doc["weights"]["Q"] = {"type": "constant", "params": {"value": [[1.0, 0.0]]}}
        scen = write(tmp_path, "bad_shape.json", doc)
        assert main(["solve", scen, "--out", str(tmp_path / "x")]) == 2

    def test_solver_failure_exits_3(self, tmp_path, capsys):
        # Strong feedback through a vanishing control weight: the Riccati
        # route at the converged gain overflows (an RK4 step far outside its
        # stability region) and the solver signals failure.
        doc = trivial_scenario(100)
        doc["coeffs"]["B"] = {"type": "constant", "params": {"value": [[40.0]]}}
        doc["weights"]["Q"] = {"type": "constant", "params": {"value": [[1.0]]}}
        doc["weights"]["R"] = {"type": "constant", "params": {"value": [[1e-4]]}}
        doc["weights"]["N"] = {"type": "constant", "params": {"value": [[1e-4]]}}
        doc["weights"]["G1"] = {"type": "constant", "params": {"value": [[1.0]]}}
        scen = write(tmp_path, "vicious.json", doc)
        assert main(["solve", scen, "--out", str(tmp_path / "x")]) == 3
        assert "solver failed" in capsys.readouterr().err

    def test_steep_discounted_weight_solves(self, tmp_path, capsys):
        # Q = 0.5 exp(-800 (s - t)) is at most 0.5 on s >= t, the only part
        # the cost reads, and overflows below the diagonal.
        doc = smoke_scenario(200)
        doc["weights"]["Q"] = {"type": "discounted", "params": {"base": [[0.5]], "rate": 800.0}}
        scen = write(tmp_path, "steep.json", doc)
        out = tmp_path / "sol"
        assert main(["solve", scen, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        theta = np.genfromtxt(out / "theta.csv", delimiter=",", skip_header=1)[:, 1]
        assert len(theta) == 201 and np.all(np.isfinite(theta))

    @pytest.mark.parametrize("steep,within", [(True, False), (False, True)], ids=["steep200", "smoke"])
    def test_prints_the_consistency_gap_and_bound(self, tmp_path, capsys, steep, within):
        # At 200 steps the rate-800 weight is under-resolved: the gap exceeds
        # the bound of verify's integral_route_consistency, and solve says so
        # on stdout while still exiting 0.
        doc = smoke_scenario(200)
        if steep:
            doc["weights"]["Q"] = {"type": "discounted", "params": {"base": [[0.5]], "rate": 800.0}}
        scen = write(tmp_path, "scen.json", doc)
        out = tmp_path / "sol"
        assert main(["solve", scen, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[1].startswith("constraints:") and lines[2].startswith("consistency:")
        fields = dict(part.split("=") for part in lines[2][len("consistency: "):].split(", "))
        gap, bound = float(fields["gap"]), float(fields["bound"])
        summary = json.loads((out / "summary.json").read_text())
        assert gap == float(f"{summary['diagnostics']['consistency_gap']:.6g}")
        assert bound == float(f"{consistency_bound(load_solution_dir(str(out))):.6g}")
        assert fields["within_bound"] == str(within) and (gap <= bound) == within

    def test_outputs_reproduce_byte_for_byte(self, tmp_path):
        scen = write(tmp_path, "smoke.json", smoke_scenario(60))
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["solve", scen, "--out", out_a]) == 0
        assert main(["solve", scen, "--out", out_b]) == 0
        for name in ("theta.csv", "p1_diag.csv", "p2.csv", "p3_diag.csv",
                     "diagnostics.csv", "summary.json", "scenario.json"):
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b, name

    def test_csv_floats_have_full_precision(self, tmp_path):
        scen = write(tmp_path, "smoke.json", smoke_scenario(60))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--out", out]) == 0
        sol = load_solution_dir(out)
        # Round-trip through the CSV is lossless.
        direct = np.genfromtxt(os.path.join(out, "theta.csv"), delimiter=",", skip_header=1)
        assert np.array_equal(direct[:, 1], sol.theta_star.flat())
        # So is the solver's diagnostics record.
        solved = solve_equilibrium(sol.spec, Strategy.zeros(sol.spec.grid, 1, 1))
        assert len(sol.diagnostics.windows) > 1
        assert sol.diagnostics.summary() == solved.diagnostics.summary()

    @pytest.mark.parametrize("doc", [smoke_scenario(60)] + [table_smoke_scenario(n) for n in (100, 200, 400)],
                             ids=["smoke", "table-100", "table-200", "table-400"])
    def test_load_reproduces_integral_state_bitwise(self, tmp_path, doc):
        # Both read their solution off one workspace's buffers, so P2, p1t,
        # Lambda, the residual and the pass-through nodes agree to the bit.
        # The table kernels take the dense quadrature, whose exponent is
        # summed back from T: the windows' p1t is the whole grid's.
        out = str(tmp_path / "sol")
        assert main(["solve", write(tmp_path, "scen.json", doc), "--out", out]) == 0
        spec = scenario_to_spec(doc)
        solved = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1))
        loaded = load_solution_dir(out)
        assert np.array_equal(loaded.p1_tilde.data, solved.p1_tilde.data)
        assert np.array_equal(second_moment_factor(spec, loaded.theta_star).data,
                              second_moment_factor(spec, solved.theta_star).data, equal_nan=True)
        assert np.array_equal(loaded.p2.data, solved.p2.data)
        assert np.array_equal(loaded.p2.mids, solved.p2.mids)
        assert np.array_equal(loaded.lam.data, solved.lam.data)
        assert np.array_equal(loaded.residual.data, solved.residual.data)
        assert loaded.diagnostics.passthrough_nodes == solved.diagnostics.passthrough_nodes
        assert loaded.diagnostics.consistency_gap == solved.diagnostics.consistency_gap

    def test_one_sampling_per_solution(self, tmp_path, monkeypatch):
        # The solver and the loader each sample the P2 coefficients and the
        # diagonal weights once, in the one workspace they read.
        doc = smoke_scenario(60)
        out = str(tmp_path / "sol")
        assert main(["solve", write(tmp_path, "smoke.json", doc), "--out", out]) == 0
        calls = []

        def counted(fn):
            def wrapper(spec):
                calls.append(fn.__name__)
                return fn(spec)
            return wrapper

        for name in ("_p2_samples", "_diag_weights"):
            monkeypatch.setattr(equilibrium, name, counted(getattr(equilibrium, name)))
        load_solution_dir(out)
        assert sorted(calls) == ["_diag_weights", "_p2_samples"]
        calls.clear()
        spec = scenario_to_spec(doc)
        solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1))
        assert sorted(calls) == ["_diag_weights", "_p2_samples"]

    def test_load_reproduces_diagonals_bitwise(self, tmp_path):
        doc = smoke_scenario(60)
        out = str(tmp_path / "sol")
        assert main(["solve", write(tmp_path, "smoke.json", doc), "--out", out]) == 0
        spec = scenario_to_spec(doc)
        solved = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1))
        loaded = load_solution_dir(out)
        assert np.array_equal(loaded.p1_diag.data, solved.p1_diag.data)
        assert np.array_equal(loaded.p3_diag.data, solved.p3_diag.data)

    def test_dump_fields_match_direct_solves(self, tmp_path):
        # The triangles are built on request from solve_p1 / solve_p3.
        doc = smoke_scenario(40)
        out = tmp_path / "sol"
        assert main(["solve", write(tmp_path, "smoke.json", doc), "--out", str(out), "--dump-fields"]) == 0
        spec = scenario_to_spec(doc)
        theta = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1)).theta_star
        direct = {"p1_full.csv": solve_p1(spec, theta),
                  "p3_full.csv": solve_p3(spec, theta, solve_p2(spec, theta))}
        for name, field in direct.items():
            write_csv(tmp_path / name, *two_time_field_rows(field))
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_load_rejects_a_matrix_scenario_before_any_other_work(self, tmp_path):
        # Only scenario.json is there: the dimension check comes before the
        # summary, the gain and the Riccati solves are read or computed.
        write(tmp_path, "scenario.json", matrix_reduction_scenario(40))
        with pytest.raises(ValueError, match="scalar solver only"):
            load_solution_dir(str(tmp_path))


class TestCliVerify:
    def test_example25_suite_exit_zero(self, tmp_path):
        report = str(tmp_path / "rep.json")
        assert main(["verify", "--suite", "example25", "--grid-steps", "300", "--out", report]) == 0
        doc = json.loads(open(report).read())
        assert doc["passed"] is True

    def test_classical_suite_exit_zero(self, tmp_path):
        scen = write(tmp_path, "cls.json", classical_reduction_scenario(300))
        assert main(["verify", scen, "--suite", "classical",
                     "--out", str(tmp_path / "rep.json")]) == 0

    def test_classical_suite_rejects_bad_target(self, tmp_path):
        scen = write(tmp_path, "smoke.json", smoke_scenario(50))
        assert main(["verify", scen, "--suite", "classical",
                     "--out", str(tmp_path / "rep.json")]) == 2

    def test_equilibrium_suite_on_solution(self, tmp_path):
        scen = write(tmp_path, "smoke.json", smoke_scenario(100))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--out", out]) == 0
        assert main(["verify", out, "--suite", "equilibrium", "--paths", "400",
                     "--seed", "3", "--out", str(tmp_path / "rep.json")]) == 0

    def test_equilibrium_suite_fails_on_corrupted_gain(self, tmp_path):
        scen = write(tmp_path, "smoke.json", smoke_scenario(100))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--out", out]) == 0
        path = os.path.join(out, "theta.csv")
        lines = open(path).read().splitlines()
        t50, v50 = lines[51].split(",")
        lines[51] = f"{t50},{float(v50) + 0.25}"
        open(path, "w").write("\n".join(lines) + "\n")
        assert main(["verify", out, "--suite", "equilibrium", "--paths", "400",
                     "--seed", "3", "--out", str(tmp_path / "rep.json")]) == 1

    def test_equilibrium_suite_on_grid_not_a_multiple_of_4(self, tmp_path, capsys):
        scen = write(tmp_path, "smoke.json", smoke_scenario(402))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--out", out]) == 0
        code = main(["verify", out, "--suite", "equilibrium", "--paths", "64",
                     "--seed", "1", "--out", str(tmp_path / "rep.json")])
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("suite, option", [
        ("equilibrium", "--paths=0"),
        ("equilibrium", "--paths=-4"),
        ("equilibrium", "--x0=nan"),
        ("example25", "--grid-steps=0"),
    ])
    def test_bad_numeric_option_exits_2_without_traceback(self, tmp_path, capsys, solved_smoke, suite, option):
        target = [solved_smoke] if suite == "equilibrium" else []
        assert main(["verify", *target, "--suite", suite, option, "--out", str(tmp_path / "rep.json")]) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "rep.json").exists()

    def test_missing_target_exits_2(self, tmp_path):
        assert main(["verify", "--suite", "equilibrium",
                     "--out", str(tmp_path / "rep.json")]) == 2

    def test_overflowing_cost_exits_2_without_report(self, tmp_path, capsys, solved_smoke):
        # A huge finite x0 overflows the spike tests' cost sums: no verdict,
        # and no thread that drew their increments is left running.
        threads = threading.active_count()
        assert main(["verify", solved_smoke, "--suite", "equilibrium", "--paths", "64",
                     "--x0=1e200", "--out", str(tmp_path / "rep.json")]) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "rep.json").exists()
        assert threading.active_count() == threads


class TestCliSimulate:
    def test_simulate_writes_spike_report(self, tmp_path):
        scen = write(tmp_path, "smoke.json", smoke_scenario(100))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--out", out]) == 0
        assert main(["simulate", out, "--paths", "400", "--seed", "7",
                     "--t", "0.5", "--spike-v", "1", "--out", str(tmp_path / "sim")]) == 0
        header = open(tmp_path / "sim" / "spike_report.csv").readline().strip()
        assert header == "eps,delta,stderr,theory_quadratic,theory_first_order"
        costs = json.loads((tmp_path / "sim" / "costs.json").read_text())
        assert costs["paths"] == 400

    def test_simulate_zero_direction_zero_deltas(self, tmp_path):
        scen = write(tmp_path, "smoke.json", smoke_scenario(100))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--out", out]) == 0
        assert main(["simulate", out, "--paths", "200", "--seed", "5",
                     "--t", "0.0", "--spike-v", "0", "--out", str(tmp_path / "sim")]) == 0
        rows = np.genfromtxt(tmp_path / "sim" / "spike_report.csv", delimiter=",", skip_header=1)
        assert np.array_equal(rows[:, 1], np.zeros(len(rows)))

    def test_simulate_cost_matches_bundle_route(self, tmp_path):
        scen = write(tmp_path, "smoke.json", smoke_scenario(100))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--out", out]) == 0
        paths, seed, t = 8192 + 500, 7, 0.25  # two RNG blocks
        assert main(["simulate", out, "--paths", str(paths), "--seed", str(seed), "--t", str(t),
                     "--dump-paths", "--out", str(tmp_path / "sim")]) == 0
        costs = json.loads((tmp_path / "sim" / "costs.json").read_text())
        sol = load_solution_dir(out)
        cfg = SimConfig(paths=paths, seed=seed)
        bundle = simulate_closed_loop(sol.spec, sol.theta_star, sol.p2, cfg, t)
        cost = evaluate_cost(sol.spec, bundle, build_controls(sol.spec, bundle), t)
        assert costs["paths"] == paths
        assert costs["closed_loop_cost"] == pytest.approx(cost.estimate, rel=1e-12)
        assert costs["stderr"] == pytest.approx(cost.stderr, rel=1e-9)
        assert costs["spike"]["opposite"]["v"] == [-1.0]
        # The dumped paths are the first ones of the full closed loop.
        dumped = np.genfromtxt(tmp_path / "sim" / "paths.csv", delimiter=",", skip_header=1)
        nodes = bundle.range_nodes
        assert dumped.shape == (100 * nodes, 5)
        assert np.array_equal(dumped[:, 2].reshape(100, nodes), bundle.X[:100, :, 0])
        assert np.array_equal(dumped[:, 3].reshape(100, nodes), bundle.Y[:100, :, 0])
        assert np.array_equal(dumped[:, 4].reshape(100, nodes), bundle.Z[:100, :, 0])

    @pytest.mark.parametrize("option", [
        "--paths=0",
        "--t=5",
        "--t=0.3337",  # not a grid node
        "--t=nan",
        "--t=1.0",  # the horizon
        "--t=1e308",
        "--x0=nan",
        "--spike-v=inf",
    ])
    def test_bad_numeric_option_exits_2_without_traceback(self, tmp_path, capsys, solved_smoke, option):
        assert main(["simulate", solved_smoke, "--paths", "16", option,
                     "--out", str(tmp_path / "sim")]) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "sim").exists()

    def test_simulate_missing_dir_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope"), "--paths", "10"]) == 2

    @pytest.mark.parametrize("option", ["--x0=1e200", "--x0=-1e200", "--spike-v=1e200"])
    def test_overflowing_cost_exits_2_without_output(self, tmp_path, capsys, solved_smoke, option):
        assert main(["simulate", solved_smoke, "--paths", "64", option,
                     "--out", str(tmp_path / "sim")]) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("option, value", [("--x0", "-1e-05"), ("--spike-v", "-2.5E+3"),
                                               ("--t", "-0.0"), ("--x0", "-.5e1")])
    def test_negative_number_as_a_separate_token(self, tmp_path, solved_smoke, option, value):
        args = ["simulate", solved_smoke, "--paths", "16", "--out"]
        assert main(args + [str(tmp_path / "a"), option, value]) == 0
        assert main(args + [str(tmp_path / "b"), f"{option}={value}"]) == 0
        for name in ("spike_report.csv", "costs.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_simulate_outputs_reproduce_byte_for_byte(self, tmp_path):
        scen = write(tmp_path, "smoke.json", smoke_scenario(80))
        out = str(tmp_path / "sol")
        assert main(["solve", scen, "--out", out]) == 0
        args = ["simulate", out, "--paths", "300", "--seed", "11", "--t", "0.25"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("spike_report.csv", "costs.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name


def test_table_kernels_run_the_dense_route_through_every_command(tmp_path):
    scen = write(tmp_path, "table.json", table_smoke_scenario(100))
    assert load_scenario(scen).weights.lag_factors() is None  # the dense route
    lag = write(tmp_path, "lag.json", smoke_scenario(100))
    for name, path in (("table", scen), ("lag", lag)):
        assert main(["solve", path, "--out", str(tmp_path / name)]) == 0
    got, want = (np.genfromtxt(tmp_path / name / "theta.csv", delimiter=",", skip_header=1)[:, 1]
                 for name in ("table", "lag"))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    sol = str(tmp_path / "table")
    assert main(["verify", sol, "--suite", "equilibrium", "--paths", "2000",
                 "--out", str(tmp_path / "rep.json")]) == 0
    assert main(["simulate", sol, "--paths", "2000", "--t", "0.25", "--dump-paths",
                 "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "paths.csv").exists()


def test_cli_example_writes_scenarios(tmp_path):
    out = str(tmp_path / "scen")
    assert main(["example", "--out", out, "--grid-steps", "100"]) == 0
    names = sorted(os.listdir(out))
    assert names == ["classical.json", "example25.json", "smoke.json", "trivial.json"]
    for name in names:
        assert json.loads((tmp_path / "scen" / name).read_text())["grid_steps"] == 100, name


def test_cli_example_keeps_each_default_without_the_option(tmp_path):
    assert main(["example", "--out", str(tmp_path)]) == 0
    steps = {name: json.loads((tmp_path / name).read_text())["grid_steps"] for name in os.listdir(tmp_path)}
    assert steps == {"classical.json": 1000, "example25.json": 1000, "smoke.json": 1000, "trivial.json": 200}


@pytest.mark.parametrize("steps", ["-5", "0"])
def test_cli_example_rejects_bad_grid_steps(tmp_path, capsys, steps):
    assert main(["example", "--out", str(tmp_path / "scen"), "--grid-steps", steps]) == 2
    assert_one_error_line(capsys)


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fbslq.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fbslq" in proc.stdout
