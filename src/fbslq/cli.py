"""Command-line front end: solve scenarios, run suites, simulate spikes.

Exit codes follow the subcommand contracts: ``solve`` returns 2 on
parse/validation failure, a scenario with n, m or k above one included
(the solver is scalar), and 3 on solver failure; ``verify`` returns 2 on
invalid input and 1 on a failing suite; ``simulate`` returns 2 on missing
or invalid inputs.  Every command exits 2, with one ``error:`` line on
stderr, on an option outside its domain: a count (``--paths``,
``--grid-steps``) below one, a non-finite number, or a ``simulate --t``
that is not a grid node before the horizon.  ``simulate`` and ``verify
--suite equilibrium`` also exit 2, and write no result, when ``--x0`` or
``--spike-v`` is so large that the Monte-Carlo cost sums overflow, or when
the solution's gain makes its Riccati fields overflow.  Every
output directory receives a manifest recording the exact command line,
seeds and tool version; re-running the command reproduces all data files
byte for byte (the manifest's wall-clock stamps are the only run-dependent
bytes).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import sys
import time

from . import __version__
from .equilibrium import EquilibriumError, SolverConfig, solve_equilibrium
from .io_utils import load_solution_dir, theta0_from_desc, write_csv, write_json, write_solution_dir
from .problem import check_one_dim_positivity, validate
from .scenario import (
    classical_reduction_scenario,
    example_2_5_scenario,
    scenario_to_spec,
    smoke_scenario,
    trivial_scenario,
)
from .simulate import SimConfig, SpikeSpec, simulate_closed_loop, spike_test
from .verify import consistency_bound, suite_classical_reduction, suite_equilibrium, suite_example_2_5

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_SOLVER_FAIL = 3


def _manifest(command: str, extras: dict) -> dict:
    return {
        "command": command,
        "argv": sys.argv[1:],
        "tool_version": __version__,
        "wall_clock_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **extras,
    }


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a single ``error:`` line and exit code 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative number in exponent form (-1e-05) is a value, not an option
        # name; the subparsers are built from this class and inherit it.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _load_spec_or_exit(path, grid_steps):
    """The problem of the scenario file ``path`` and the document it was built from, parsed once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = scenario_to_spec(doc, grid_steps)
    except FileNotFoundError:
        print(f"error: scenario file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)
    except (ValueError, KeyError) as exc:
        print(f"error: bad scenario: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)
    report = validate(spec)
    if not report.ok:
        for issue in report.issues:
            print(f"error: {issue}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)
    return spec, doc


def cmd_solve(args) -> int:
    start = time.time()
    spec, scenario_doc = _load_spec_or_exit(args.scenario, args.grid_steps)
    if not spec.is_one_dimensional():
        d = spec.dims
        print(f"error: the solver handles n = m = k = 1 only, got n = {d.n}, m = {d.m}, k = {d.k}", file=sys.stderr)
        return EXIT_BAD_INPUT

    assumption_note = None
    if args.assumption_check:
        audit = check_one_dim_positivity(spec)
        if not audit.passed:
            assumption_note = audit.details
    try:
        theta0 = theta0_from_desc(args.theta0, spec)
        # The audit is advisory at the CLI and has run above: the solver runs
        # either way, so it does not audit again.
        cfg = SolverConfig(
            fp_tolerance=args.fp_tolerance,
            check_assumptions=False,
            initial_window=args.window,
            damping=args.damping,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        solution = solve_equilibrium(spec, theta0, cfg)
    except EquilibriumError as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAIL

    if args.grid_steps is not None:
        scenario_doc["grid_steps"] = args.grid_steps
    outdir = args.out
    summary = write_solution_dir(outdir, solution, scenario_doc, args.theta0)
    if args.dump_fields:
        from .io_utils import two_time_field_rows
        from .riccati import solve_p1, solve_p3

        header, rows = two_time_field_rows(solve_p1(spec, solution.theta_star))
        write_csv(os.path.join(outdir, "p1_full.csv"), header, rows)
        header, rows = two_time_field_rows(solve_p3(spec, solution.theta_star, solution.p2))
        write_csv(os.path.join(outdir, "p3_full.csv"), header, rows)
    if assumption_note is not None:
        summary["positivity_audit_failed"] = assumption_note
        write_json(os.path.join(outdir, "summary.json"), summary)
    write_json(
        os.path.join(outdir, "manifest.json"),
        _manifest(
            "solve",
            {
                "scenario": os.path.abspath(args.scenario),
                "out": os.path.abspath(outdir),
                "theta0": args.theta0,
                "grid_steps": spec.grid.steps,
                "wall_seconds": time.time() - start,
            },
        ),
    )
    flags = solution.constraint_report.summary()
    print(f"solved: gain sup-norm {solution.theta_star.sup_norm():.6g}")
    print(
        "constraints: "
        + ", ".join(f"{k}={flags[k]}" for k in ("l2_pass", "range_pass", "psd_pass"))
    )
    # The integral and matrix routes disagree beyond verify's bound when the
    # grid under-resolves the problem; the solve still succeeds.
    gap, bound = solution.diagnostics.consistency_gap, consistency_bound(solution)
    print(f"consistency: gap={gap:.6g}, bound={bound:.6g}, within_bound={gap <= bound}")
    print(f"outputs written to {outdir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    start = time.time()
    if args.suite == "example25":
        report = suite_example_2_5(1000 if args.grid_steps is None else args.grid_steps)
    elif args.suite == "classical":
        if args.target is None:
            print("error: the classical suite needs a scenario file", file=sys.stderr)
            return EXIT_BAD_INPUT
        spec, _ = _load_spec_or_exit(args.target, args.grid_steps)
        try:
            report = suite_classical_reduction(spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    elif args.suite == "equilibrium":
        if args.target is None or not os.path.isdir(args.target):
            print("error: the equilibrium suite needs a solution directory", file=sys.stderr)
            return EXIT_BAD_INPUT
        try:
            solution = load_solution_dir(args.target)
        except (OSError, ValueError, json.JSONDecodeError, EquilibriumError) as exc:
            print(f"error: cannot load solution: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        cfg = SimConfig(paths=args.paths, seed=args.seed, x0=args.x0)
        try:
            report = suite_equilibrium(solution, cfg)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    else:  # pragma: no cover - argparse enforces choices
        return EXIT_BAD_INPUT

    doc = report.to_dict()
    doc["wall_seconds"] = time.time() - start
    out = args.out or "suite_report.json"
    write_json(out, doc)
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        print(f"[{mark}] {c.name}: value={c.value:.6g} bound={c.bound:.6g}")
    print(f"suite {report.suite}: {'pass' if report.passed else 'FAIL'} (report: {out})")
    return EXIT_OK if report.passed else EXIT_SUITE_FAIL


def cmd_simulate(args) -> int:
    start = time.time()
    try:
        solution = load_solution_dir(args.solution_dir)
    except (OSError, ValueError, json.JSONDecodeError, EquilibriumError) as exc:
        print(f"error: cannot load solution: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    spec = solution.spec
    try:
        start_node = spec.grid.index_of(args.t)
    except ValueError:
        start_node = spec.grid.steps
    if start_node >= spec.grid.steps:
        print(f"error: --t must be a grid node before the horizon {spec.grid.horizon:g}, got {args.t}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    cfg = SimConfig(paths=args.paths, seed=args.seed, x0=args.x0)
    spike = SpikeSpec(v=args.spike_v)

    try:
        report = spike_test(spec, solution.theta_star, solution.p2, cfg, spike, args.t,
                            lam=solution.lam, residual=solution.residual)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    outdir = args.out or args.solution_dir
    os.makedirs(outdir, exist_ok=True)
    write_csv(
        os.path.join(outdir, "spike_report.csv"),
        ["eps", "delta", "stderr", "theory_quadratic", "theory_first_order"],
        (
            [r.eps_used, r.delta, r.stderr, r.theory_quadratic, r.theory_first_order]
            for r in report.rows
        ),
    )

    cost = report.closed_loop
    write_json(
        os.path.join(outdir, "costs.json"),
        {
            "closed_loop_cost": cost.estimate,
            "stderr": cost.stderr,
            "paths": cost.paths,
            "t": args.t,
            "spike": report.summary(),
        },
    )
    if args.dump_paths:
        # The first paths of the spike test's closed loop; only these are stepped.
        bundle = simulate_closed_loop(spec, solution.theta_star, solution.p2, cfg, args.t,
                                      keep=min(100, cfg.paths))
        header = ["path", "t"] + [f"x{i}" for i in range(spec.dims.n)] + [
            f"y{i}" for i in range(spec.dims.m)
        ] + [f"z{i}" for i in range(spec.dims.m)]
        nodes = spec.grid.nodes[bundle.t_index :].tolist()
        def rows():  # one tolist() per path: a numpy scalar per cell is slow to build
            for p in range(bundle.paths):
                for t_node, x, y, z in zip(nodes, *(a[p].tolist() for a in (bundle.X, bundle.Y, bundle.Z))):
                    yield [p, t_node, *x, *y, *z]
        write_csv(os.path.join(outdir, "paths.csv"), header, rows())

    write_json(
        os.path.join(outdir, "manifest.json"),
        _manifest(
            "simulate",
            {
                "solution_dir": os.path.abspath(args.solution_dir),
                "paths": args.paths,
                "seed": args.seed,
                "t": args.t,
                "spike_v": args.spike_v,
                "wall_seconds": time.time() - start,
            },
        ),
    )
    print(f"spike test at t={args.t}: liminf {'pass' if report.liminf_pass else 'FAIL'}, "
          f"limit {'converged' if report.limit_converged else 'not converged'}")
    print(f"closed-loop cost {cost.estimate:.8g} +- {cost.stderr:.3g}")
    return EXIT_OK


def cmd_example(args) -> int:
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    # without --grid-steps, each document keeps its own default
    steps = {} if args.grid_steps is None else {"grid_steps": args.grid_steps}
    docs = {
        "example25.json": example_2_5_scenario(**steps),
        "trivial.json": trivial_scenario(**steps),
        "smoke.json": smoke_scenario(**steps),
        "classical.json": classical_reduction_scenario(**steps),
    }
    for name, doc in docs.items():
        write_json(os.path.join(outdir, name), doc)
        print(f"wrote {os.path.join(outdir, name)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fbslq",
        description="Equilibrium strategies for time-inconsistent LQ control of FBSDEs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a scenario for its equilibrium gain")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--grid-steps", type=_positive_int, default=None)
    p.add_argument("--theta0", default="const:0", help="pass-through parameter, const:<value>")
    p.add_argument("--out", default="solution", help="output directory")
    p.add_argument("--fp-tolerance", type=_finite_float, default=1e-10)
    p.add_argument("--window", type=_finite_float, default=None, help="initial window width (time units)")
    p.add_argument("--damping", type=_finite_float, default=1.0)
    p.add_argument("--no-assumption-check", dest="assumption_check", action="store_false")
    p.add_argument("--dump-fields", action="store_true",
                   help="also dump the full two-time fields (t, s, entries)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("target", nargs="?", help="scenario file or solution directory")
    p.add_argument("--suite", required=True, choices=["example25", "classical", "equilibrium"])
    p.add_argument("--grid-steps", type=_positive_int, default=None)
    p.add_argument("--paths", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=_finite_float, default=1.0)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="spike-variation Monte Carlo on a solved gain")
    p.add_argument("solution_dir")
    p.add_argument("--paths", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--spike-v", type=_finite_float, default=1.0)
    p.add_argument("--x0", type=_finite_float, default=1.0)
    p.add_argument("--out", default=None, help="output directory (default: solution dir)")
    p.add_argument("--dump-paths", action="store_true", help="dump up to 100 paths as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("example", help="write the built-in scenario files")
    p.add_argument("--out", default="scenarios")
    p.add_argument("--grid-steps", type=_positive_int, default=None)
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
