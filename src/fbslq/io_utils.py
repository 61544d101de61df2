"""CSV/JSON writers and the solution-directory format.

All floats are printed with 17 significant digits so round-trips are
lossless; CSV files are comma-separated with a header row, UTF-8, LF line
endings.  A solution directory holds theta.csv, p1_diag.csv, p2.csv,
p3_diag.csv, diagnostics.csv, summary.json and a copy of the scenario.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .equilibrium import (
    EquilibriumSolution,
    SolverDiagnostics,
    WindowDiagnostics,
    assemble_solution,
    p1_tilde,
)
from .fields import OneTimeField, Strategy, TwoTimeField
from .problem import ProblemSpec
from .riccati import solve_p2

__all__ = [
    "fmt",
    "write_csv",
    "write_json",
    "one_time_field_rows",
    "two_time_field_rows",
    "write_solution_dir",
    "load_solution_dir",
    "theta0_from_desc",
]


_DIAGNOSTICS_HEADER = [
    "window_lo", "window_hi", "iterations", "final_residual", "max_contraction_ratio", "halvings"
]


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
            fh.write("\n")


def write_json(path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _entry_headers(shape: tuple[int, int]) -> list[str]:
    return [f"e{i}{j}" for i in range(shape[0]) for j in range(shape[1])]


def one_time_field_rows(field: OneTimeField):
    nodes = field.grid.nodes
    header = ["t"] + _entry_headers(field.entry_shape)
    rows = ([nodes[i]] + list(field.data[i].ravel()) for i in range(len(nodes)))
    return header, rows


def two_time_field_rows(field: TwoTimeField):
    """Stored triangle as rows (t, s, entries...)."""
    nodes = field.grid.nodes
    header = ["t", "s"] + _entry_headers(field.entry_shape)
    def rows():
        for i in range(len(nodes)):
            for j in range(i, len(nodes)):
                yield [nodes[i], nodes[j]] + list(field.data[i, j].ravel())
    return header, rows()


def write_solution_dir(outdir, solution: EquilibriumSolution, scenario: dict, theta0_desc: str):
    os.makedirs(outdir, exist_ok=True)

    header, rows = one_time_field_rows(solution.theta_star)
    write_csv(os.path.join(outdir, "theta.csv"), header, rows)
    header, rows = one_time_field_rows(solution.p1_diag)
    write_csv(os.path.join(outdir, "p1_diag.csv"), header, rows)
    header, rows = one_time_field_rows(solution.p2)
    write_csv(os.path.join(outdir, "p2.csv"), header, rows)
    header, rows = one_time_field_rows(solution.p3_diag)
    write_csv(os.path.join(outdir, "p3_diag.csv"), header, rows)

    diag = solution.diagnostics
    write_csv(
        os.path.join(outdir, "diagnostics.csv"),
        _DIAGNOSTICS_HEADER,
        (
            [w.lo, w.hi, w.iterations, w.final_residual, w.max_contraction_ratio, w.halvings]
            for w in diag.windows
        ),
    )

    summary = {
        "theta0": theta0_desc,
        "grid_steps": solution.spec.grid.steps,
        "horizon": solution.spec.grid.horizon,
        "theta_sup_norm": solution.theta_star.sup_norm(),
        "constraint_report": solution.constraint_report.summary(),
        "diagnostics": diag.summary(),
    }
    write_json(os.path.join(outdir, "summary.json"), summary)
    write_json(os.path.join(outdir, "scenario.json"), scenario)
    return summary


def load_solution_dir(path) -> EquilibriumSolution:
    """Rebuild a solution from a directory written by :func:`write_solution_dir`.

    The gain is read from theta.csv; every derived field is recomputed from
    it, so a corrupted gain shows up in the verification suites rather than
    being masked by stored values, and one whose fields overflow raises
    :class:`~fbslq.equilibrium.EquilibriumError`.  The solver diagnostics are
    read back from diagnostics.csv and summary.json, apart from the
    consistency gap, which is recomputed from the fields.
    """
    from .scenario import load_scenario

    spec = load_scenario(os.path.join(path, "scenario.json"))
    if not spec.is_one_dimensional():
        raise ValueError("solution directories are produced by the scalar solver only")
    with open(os.path.join(path, "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)

    raw = np.genfromtxt(os.path.join(path, "theta.csv"), delimiter=",", skip_header=1)
    raw = np.atleast_2d(raw)
    if raw.shape[0] != spec.grid.num_nodes:
        raise ValueError("theta.csv does not match the scenario grid")
    k, n = spec.dims.k, spec.dims.n
    theta = Strategy(spec.grid, raw[:, 1:].reshape(spec.grid.num_nodes, k, n))

    diagnostics = _load_diagnostics(path, summary.get("diagnostics", {}))
    with np.errstate(over="ignore", invalid="ignore"):
        p2 = solve_p2(spec, theta)
    return assemble_solution(spec, theta, p2, p1_tilde(spec, theta, p2), diagnostics)


def _load_diagnostics(path, summary: dict) -> SolverDiagnostics:
    """Window history from diagnostics.csv, the rest from the summary block."""
    with open(os.path.join(path, "diagnostics.csv"), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _DIAGNOSTICS_HEADER:
        raise ValueError("diagnostics.csv does not start with the diagnostics header")
    windows = [
        WindowDiagnostics(int(lo), int(hi), int(its), float(res), float(ratio), int(halvings))
        for lo, hi, its, res, ratio, halvings in rows[1:]
    ]
    return SolverDiagnostics(
        windows=windows,
        passthrough_nodes=[int(i) for i in summary.get("passthrough_nodes", [])],
        fp_tolerance=float(summary.get("fp_tolerance", "nan")),
    )


def theta0_from_desc(desc: str, spec: ProblemSpec) -> Strategy:
    """The initial gain of a ``const:<value>`` description, as ``solve --theta0``
    takes it and summary.json records it."""
    if desc.startswith("const:"):
        return Strategy.constant(spec.grid, float(desc.split(":", 1)[1]))
    raise ValueError(f"theta0 must look like const:<value>, got {desc!r}")
