"""Peak-memory pass of one workload, in a process of its own.

Run by ``run.py``; not a benchmark entry point.  The process imports the
program, takes up the inputs the parent prepared in ``--workdir`` (so that an
expensive set-up does not leave its own peak behind), records its resident
set size, runs one untimed pass and prints one JSON line: the growth of the peak resident set over that baseline, the
operations attempted and failed, the spike-test standard error and the
outputs' fingerprint, which must match the parent's passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    workloads.import_program()
    from spans import Tracer, layer_metrics

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.reuse()
    # Only spike_test is wrapped, to read its standard errors; nothing that
    # allocates per call is recorded.
    with Tracer(only={"simulate.spike_test"}, kernels=False) as tracer:
        gc.collect()
        baseline = workloads.current_rss_bytes()
        res = wl.run_pass()
        peak = workloads.peak_rss_bytes()
    for problem in res.problems:
        print(f"peak pass: failed: {problem}", file=sys.stderr)
    stderr = layer_metrics(tracer)["simulate.spike_stderr"] if tracer.notes else None
    print(json.dumps({
        "peak_growth_bytes": peak - baseline,
        "baseline_bytes": baseline,
        "attempted": res.attempted,
        "failed": res.failed,
        "spike_stderr": stderr,
        "fingerprint": res.fingerprint,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
