"""fbslq benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload solve-2000 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``;
the metric names and units come from ``BENCHMARK.json``.

``--trace 0`` times set-up (the median of five fresh imports plus preparations),
then repeats the workload for ``--seconds`` seconds with nothing wrapped and
reports the median pass, then measures peak memory in one more pass run by
a separate process (``peak.py``).  ``--trace 1`` alternates untraced and
traced passes for ``--seconds`` seconds and reports the per-layer metrics of
the traced passes (see ``spans.py``); the spans of the last traced pass are
written to ``.perfbench/traces/``.  Every pass checks its outputs, and all
passes of a run must produce identical outputs, traced or not.

Human-readable lines go to standard output first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORK = workloads.ROOT / ".perfbench"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import fbslq.cli; print(time.perf_counter() - t)"
)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_block(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")},
        "seed": seed,
    }


class Tally:
    """Operations attempted and failed over every measured pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None

    def add(self, res: workloads.PassResult, label: str) -> None:
        if self.fingerprint is None:
            self.fingerprint = res.fingerprint
        elif res.fingerprint != self.fingerprint and res.failed == 0:
            res.failed = 1
            res.problems.append("outputs differ from the first pass of this run")
        self.attempted += res.attempted
        self.failed += res.failed
        for problem in res.problems:
            print(f"{label}: failed: {problem}", file=sys.stderr)


def timed_pass(wl, tally, label, tracer=None):
    t0 = time.perf_counter()
    if tracer is None:
        res = wl.run_pass()
    else:
        with tracer:
            res = wl.run_pass()
    wall = time.perf_counter() - t0
    tally.add(res, label)
    return wall


def peak_pass(workload: str, seed: int, workdir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "peak.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    # A fixed mmap threshold hands every freed array of 1 MiB or more straight
    # back to the kernel, so the resident peak follows the live arrays instead
    # of the heap's layout, which shifted it by up to 10% with the length of a
    # path string.  glibc's default of 128 KiB made the 8192-path Monte Carlo
    # spend 25 s of system time in mmap and munmap.
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "1048576"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(10.0, deadline - time.perf_counter()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"peak-memory pass exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter (start-up excluded)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(workloads.SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_end_to_end(cls, args, workdir, tally, deadline):
    imports, prepares = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        wl = cls(args.seed, workdir)
        t0 = time.perf_counter()
        wl.prepare()
        prepares.append(time.perf_counter() - t0)
    setups = [a + b for a, b in zip(imports, prepares)]

    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        walls.append(timed_pass(wl, tally, f"pass {len(walls) + 1}"))

    peak = peak_pass(args.workload, args.seed, workdir, deadline)
    tally.add(workloads.PassResult(peak["attempted"], peak["failed"], peak["fingerprint"]),
              "peak-memory pass")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_mem_mb": peak["peak_growth_bytes"] / 1e6,
    }
    lines = [
        f"wall_s       {metrics['wall_s']:.4f} s   median of {len(walls)} passes "
        f"(min {min(walls):.4f}, max {max(walls):.4f})",
        f"setup_s      {metrics['setup_s']:.4f} s   median of {SETUP_REPEATS} set-ups, each a fresh "
        f"import plus preparing the inputs: {[round(s, 4) for s in setups]}",
        f"peak_mem_mb  {metrics['peak_mem_mb']:.2f} MB  growth of peak resident set over one "
        f"untimed pass in a separate process (from {peak['baseline_bytes'] / 1e6:.1f} MB)",
    ]
    detail = {"walls_s": walls, "imports_s": imports, "prepares_s": prepares, "peak": peak}
    return metrics, lines, peak["spike_stderr"], detail


def run_traced(cls, args, workdir, tally):
    from spans import Tracer, layer_metrics

    wl = cls(args.seed, workdir)
    wl.prepare()
    plain, traced, layers = [], [], []
    tracer = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        if len(plain) <= len(traced):
            plain.append(timed_pass(wl, tally, f"untraced pass {len(plain) + 1}"))
        else:
            tracer = Tracer()
            traced.append(timed_pass(wl, tally, f"traced pass {len(traced) + 1}", tracer))
            layers.append(layer_metrics(tracer))

    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    trace_path = WORK / "traces" / f"{args.workload}.json"
    tracer.dump(trace_path, workload=args.workload, seed=args.seed, wall_s=traced[-1])
    lines = [
        f"traced passes {len(traced)} (median {statistics.median(traced):.4f} s), untraced "
        f"passes {len(plain)} (median {statistics.median(plain):.4f} s); spans in {trace_path}",
    ]
    spike = metrics["simulate.spike_stderr"] if metrics["simulate.path_steps"] else None
    detail = {"traced_walls_s": traced, "untraced_walls_s": plain}
    return metrics, lines, spike, detail


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description="fbslq benchmark (see BENCHMARK.json)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    # Transparent huge pages are granted or not depending on the memory
    # fragmentation of the whole machine, which made the resident-set peak of
    # one pass vary by 10%; with numpy's huge-page advice off it repeats.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads.import_program()
    except (OSError, ValueError, workloads.ProgramMissing) as exc:
        print(f"error: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2

    machine = machine_block(args.seed)
    cls = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            wanted = spec["per_layer"]
            metrics, lines, spike, detail = run_traced(cls, args, workdir, tally)
        else:
            wanted = spec["end_to_end"]
            metrics, lines, spike, detail = run_end_to_end(
                cls, args, workdir, tally, started + RUN_LIMIT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"machine      {json.dumps(machine, sort_keys=True)}")
    print(f"workload     {args.workload}: closed loop, 1 caller, 1 process, seed {args.seed}")
    for line in lines:
        print(line)
    print(f"error_rate   {tally.failed / tally.attempted:.4g}   "
          f"{tally.failed} failed of {tally.attempted} operations")
    print("spike_stderr " + (f"{spike:.6g}   median over spike tests of the standard error "
                             "at the smallest eps" if spike is not None
                             else "n/a   (no Monte-Carlo spike test in this workload)"))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {"machine": machine, "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, **result, "detail": detail}
    results_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
