"""The benchmark workloads: inputs from a seed, one pass, and its checks.

Each workload is a closed loop with one caller in one process.  ``prepare``
builds the inputs (this is the set-up the benchmark times separately),
``reuse`` picks up inputs that ``prepare`` left in the work directory, and
``run_pass`` performs the workload once and checks every output.  A failed
check or an exception counts as a failed operation; it never stops the run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE_THETA = Path(__file__).resolve().parent / "reference" / "solve2000_theta.txt"

SOLVE_STEPS = 2000
SMOKE_STEPS = 1000
VERIFY_PATHS = 8192  # one RNG block; the Monte-Carlo ladder is the largest layer
THETA_RTOL = 1e-12
GAP_TOL = 1e-6


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/fbslq`` to benchmark."""


def import_program():
    """Import fbslq from this checkout's ``src`` and nowhere else."""
    if not (SRC / "fbslq" / "__init__.py").is_file():
        raise ProgramMissing(f"no fbslq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fbslq

    if Path(fbslq.__file__).resolve().parent != SRC / "fbslq":
        raise ProgramMissing(f"fbslq was imported from {fbslq.__file__}, not from {SRC}")
    import fbslq.cli  # noqa: F401  (imports every layer the workloads touch)


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    fingerprint: object = None  # outputs every pass of a run must reproduce
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: {traceback.format_exc(limit=3)}")


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def reuse(self) -> None:
        """Take up the inputs ``prepare`` left in the work directory."""
        self.prepare()


class Solve2000(Workload):
    """One equilibrium solve on the 2000-step smoke problem from theta0 = 0.

    The problem has no random input, so the seed does not change this workload.
    """

    name = "solve-2000"

    def prepare(self):
        import numpy as np
        from fbslq.fields import Strategy
        from fbslq.presets import assumption_smoke_problem

        self.spec = assumption_smoke_problem(SOLVE_STEPS)
        self.theta0 = Strategy.zeros(self.spec.grid, 1, 1)
        self.reference = np.loadtxt(REFERENCE_THETA)

    def run_pass(self):
        import numpy as np
        from fbslq import equilibrium

        res = PassResult()
        try:
            sol = equilibrium.solve_equilibrium(self.spec, self.theta0)
        except Exception:
            res.crashed("solve_equilibrium")
            return res
        theta = sol.theta_star.flat()
        ref = self.reference
        rel = (
            float(np.max(np.abs(theta - ref)) / np.max(np.abs(ref)))
            if theta.shape == ref.shape
            else float("inf")
        )
        gap = sol.diagnostics.consistency_gap
        res.check(
            rel <= THETA_RTOL and gap <= GAP_TOL and sol.constraint_report.all_pass,
            f"theta rel. error {rel:.3g}, consistency gap {gap:.3g}, "
            f"constraints {sol.constraint_report.all_pass}",
        )
        res.fingerprint = hashlib.sha256(theta.tobytes()).hexdigest()
        return res


class VerifyEquilibrium(Workload):
    """``fbslq verify <solution> --suite equilibrium`` on the 1000-step smoke solution.

    Set-up writes the smoke scenario and solves it with ``fbslq solve``; each
    pass reloads the solution directory, runs ``suite_equilibrium`` and writes
    the report, all through ``fbslq.cli.main`` in process.  The commands use
    relative paths inside the work directory, as in the README, and each
    starts after a garbage collection, as in a fresh process.  Otherwise the
    moment the collector frees cyclic garbage that holds large arrays depends
    on everything allocated before, down to the length of the checkout's
    path, and the peak memory moved by 5%.
    """

    name = "verify-equilibrium"

    def prepare(self):
        from fbslq.io_utils import write_json
        from fbslq.scenario import smoke_scenario

        self.reuse()
        self.dir.mkdir(parents=True, exist_ok=True)
        write_json(self.dir / "smoke.json", smoke_scenario(SMOKE_STEPS))
        res = PassResult()
        self._cli(res, ["solve", "smoke.json", "--out", "solution"])
        if res.failed:
            raise RuntimeError(f"set-up solve failed: {res.problems}")

    def reuse(self):
        self.dir = self.workdir / "verify"

    def _cli(self, res: PassResult, argv: list[str]) -> None:
        from fbslq import cli

        home = os.getcwd()
        os.chdir(self.dir)
        try:
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            res.check(code == 0, f"fbslq {argv[0]} exited {code}")
        except Exception:
            res.crashed(f"fbslq {argv[0]}")
        finally:
            os.chdir(home)

    def run_pass(self):
        report_path = self.dir / "report.json"
        report_path.unlink(missing_ok=True)
        res = PassResult()
        self._cli(res, ["verify", "solution", "--suite", "equilibrium", "--paths",
                        str(VERIFY_PATHS), "--seed", str(self.seed), "--out", "report.json"])
        if res.failed:
            return res
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            res.crashed("reading report.json")
            return res
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        if report["passed"] is not True or failing or not report["checks"]:
            res.failed += 1
            res.problems.append(f"suite failed, failing checks {failing}")
        report.pop("wall_seconds", None)
        res.fingerprint = json.dumps(report, sort_keys=True)
        return res


WORKLOADS = {w.name: w for w in (Solve2000, VerifyEquilibrium)}


def _status_kib(field_name: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise ValueError(f"{field_name} missing from /proc/self/status")


def peak_rss_bytes() -> int:
    """Peak resident set of this process image.

    ``VmHWM`` rather than ``ru_maxrss``: on Linux the latter keeps the peak
    of the address space replaced by ``exec``, which for a child process is
    the parent's resident set at the time of the fork.
    """
    return _status_kib("VmHWM") * 1024


def current_rss_bytes() -> int:
    return _status_kib("VmRSS") * 1024
