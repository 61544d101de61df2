"""CSV/JSON writers and the solution-directory format.

All floats are printed with 17 significant digits so round-trips are
lossless; CSV files are comma-separated with a header row, UTF-8, LF line
endings.  A solution directory holds theta.csv, p1_diag.csv, p2.csv,
p3_diag.csv, diagnostics.csv, summary.json and a copy of the scenario.
"""

from __future__ import annotations

import csv
import json
import numbers
import os

import numpy as np

from .equilibrium import (
    EquilibriumSolution,
    SolverDiagnostics,
    WindowDiagnostics,
    assemble_solution,
)
from .fields import OneTimeField, Strategy, TwoTimeField
from .problem import ProblemSpec

__all__ = [
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


def write_csv(path, header: list[str], rows) -> None:
    """Numeric rows of one cell per header column, each printed by one format string."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def write_json(path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _entry_headers(shape: tuple[int, int]) -> list[str]:
    return [f"e{i}{j}" for i in range(shape[0]) for j in range(shape[1])]


def one_time_field_rows(field: OneTimeField):
    nodes = field.grid.nodes.tolist()
    header = ["t"] + _entry_headers(field.entry_shape)
    rows = ([t] + entries for t, entries in zip(nodes, field.data.reshape(len(nodes), -1).tolist()))
    return header, rows


def two_time_field_rows(field: TwoTimeField):
    """Stored triangle as rows (t, s, entries...) of Python floats, one tolist() per node row."""
    nodes = field.grid.nodes.tolist()
    header = ["t", "s"] + _entry_headers(field.entry_shape)
    def rows():
        for i, t in enumerate(nodes):
            for s, entries in zip(nodes[i:], field.data[i, i:].reshape(len(nodes) - i, -1).tolist()):
                yield [t, s] + entries
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
    it by :func:`~fbslq.equilibrium.assemble_solution`, in the workspace and
    the backward steps of the solver, so a loaded solution is the solved one
    bit for bit.  A corrupted gain shows up in the verification suites rather
    than being masked by stored values, and one whose fields overflow raises
    :class:`~fbslq.equilibrium.EquilibriumError`.  The window history is read
    back from diagnostics.csv and ``fp_tolerance`` from summary.json; the
    consistency gap and the pass-through nodes are recomputed from the
    fields.  A file of the wrong shape or JSON type raises ``ValueError``
    naming the file and the field.
    """
    from .scenario import _typed, load_scenario

    spec = load_scenario(os.path.join(path, "scenario.json"))
    if not spec.is_one_dimensional():
        raise ValueError("solution directories are produced by the scalar solver only")
    with open(os.path.join(path, "summary.json"), "r", encoding="utf-8") as fh:
        summary = _json_object(json.load(fh), "summary.json: the document")
    block = _json_object(summary.get("diagnostics", {}), "summary.json: diagnostics")
    try:  # an absent tolerance reads as NaN
        fp_tolerance = float(_typed(block.get("fp_tolerance", np.nan), numbers.Real, _FP_TOLERANCE))
    except OverflowError:
        raise ValueError(f"{_FP_TOLERANCE} is out of range") from None

    theta = Strategy(spec.grid, _read_gain(os.path.join(path, "theta.csv"), spec))
    diagnostics = SolverDiagnostics(windows=_load_windows(path), fp_tolerance=fp_tolerance)
    return assemble_solution(spec, theta, diagnostics)


_FP_TOLERANCE = "summary.json: diagnostics.fp_tolerance"


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _read_gain(path, spec: ProblemSpec) -> np.ndarray:
    """The gain entries of theta.csv, one row (t, entries...) per grid node."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row][1:]  # blank lines skipped, header dropped
    if len(rows) != spec.grid.num_nodes:
        raise ValueError("theta.csv does not match the scenario grid")
    k, n = spec.dims.k, spec.dims.n
    values = np.empty((len(rows), k * n))
    for i, (line, row) in enumerate(rows):
        if len(row) != 1 + k * n:
            raise ValueError(f"theta.csv: line {line} has {len(row)} columns, want {1 + k * n}")
        try:
            values[i] = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise ValueError(f"theta.csv: line {line}: {exc}") from None
    return values.reshape(len(rows), k, n)


def _load_windows(path) -> list[WindowDiagnostics]:
    """The window history of diagnostics.csv, one row per window; blank lines are skipped."""
    with open(os.path.join(path, "diagnostics.csv"), "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows or rows[0][1] != _DIAGNOSTICS_HEADER:
        raise ValueError("diagnostics.csv does not start with the diagnostics header")
    width = len(_DIAGNOSTICS_HEADER)
    windows = []
    for line, row in rows[1:]:
        if len(row) != width:
            raise ValueError(f"diagnostics.csv: line {line} has {len(row)} columns, want {width}")
        lo, hi, its, res, ratio, halvings = row
        try:
            windows.append(WindowDiagnostics(int(lo), int(hi), int(its), float(res), float(ratio), int(halvings)))
        except ValueError as exc:
            raise ValueError(f"diagnostics.csv: line {line}: {exc}") from None
    return windows


def theta0_from_desc(desc: str, spec: ProblemSpec) -> Strategy:
    """The initial gain of a ``const:<value>`` description, as ``solve --theta0``
    takes it and summary.json records it."""
    if desc.startswith("const:"):
        return Strategy.constant(spec.grid, float(desc.split(":", 1)[1]))
    raise ValueError(f"theta0 must look like const:<value>, got {desc!r}")
