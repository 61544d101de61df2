"""Span tracing of fbslq from outside the package.

``Tracer.install`` wraps, for the duration of one traced pass,

* every function that one ``fbslq`` module imports from another (the name in
  the importing module's namespace is replaced, so the call site is known);
* the layer entry points listed in ``OWN_ENTRY_POINTS`` inside their own
  module, so calls made within the module (``characterization_residual``
  solving P2 again, ``cmd_verify`` writing its report) and lazy
  ``from .x import y`` statements are seen too;
* ``TwoTimeKernel.__call__`` and ``TimeFunction.__call__``.

Each call appends one span ``[name, site, start, end, parent]`` to an
in-memory list; ``name`` is ``<defining module>.<function>`` without the
``fbslq.`` prefix and ``site`` is the module whose namespace held the name.
``Tracer.restore`` puts every original object back.  A boundary that a
refactor removes is simply never wrapped, so its metrics read as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import time

OWN_ENTRY_POINTS = {
    "riccati": (
        "solve_p1",
        "solve_p2",
        "solve_p3",
        "_integrate_p2",
        "characterization_residual",
        "check_constraints",
    ),
    "equilibrium": ("solve_equilibrium",),
    "simulate": ("spike_test",),
    "verify": ("suite_equilibrium",),
    "io_utils": ("write_csv", "write_json", "load_solution_dir"),
    "scenario": ("load_scenario",),
    "cli": ("cmd_verify",),
}
KERNEL_METHODS = (("TwoTimeKernel", "__call__"), ("TimeFunction", "__call__"))

SWEEPS = {"riccati.solve_p1", "riccati.solve_p3"}
P2 = {"riccati.solve_p2", "riccati._integrate_p2"}
WRITES = {"io_utils.write_csv", "io_utils.write_json"}
NOTE_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError)


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _fbslq_modules():
    import fbslq

    for info in pkgutil.iter_modules(fbslq.__path__):
        yield importlib.import_module(f"fbslq.{info.name}")


# -- notes: values read from arguments and results at selected boundaries ----


def _note_solve(args, result):
    windows = result.diagnostics.windows
    return {"windows": len(windows), "iterations": sum(w.iterations for w in windows)}


def _fine_steps(spec, cfg, t):
    return (spec.grid.steps - spec.grid.index_of(t)) * cfg.sub_steps


def _note_spike(args, result):
    cfg, spec = args["cfg"], args["spec"]
    tail = min(result.rows, key=lambda r: r.eps_used)
    variants = 1 + len(result.rows)
    return {
        "path_steps": cfg.paths * _fine_steps(spec, cfg, args["t"]) * variants,
        "spike_stderr": tail.stderr,
    }


def _note_write(args, result):
    return {"bytes": os.path.getsize(args["path"])}


NOTES = {
    "equilibrium.solve_equilibrium": _note_solve,
    "simulate.spike_test": _note_spike,
    "io_utils.write_csv": _note_write,
    "io_utils.write_json": _note_write,
}


class Tracer:
    """In-memory span recorder; ``only`` restricts wrapping to some names."""

    def __init__(self, only=None, kernels: bool = True):
        self.only = only
        self.kernels = kernels
        self.spans: list[list] = []
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers --------------------------------------

    def _wanted(self, name: str) -> bool:
        return self.only is None or name in self.only

    def install(self) -> None:
        for module in _fbslq_modules():
            site = _short(module.__name__)
            own = OWN_ENTRY_POINTS.get(site, ())
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or not value.__module__.startswith("fbslq."):
                    continue
                if value.__module__ == module.__name__ and attr not in own:
                    continue
                name = f"{_short(value.__module__)}.{value.__name__}"
                if self._wanted(name):
                    self._patch(module, attr, self._wrap(value, name, site))
        if self.kernels:
            kernels = importlib.import_module("fbslq.kernels")
            for cls_name, method in KERNEL_METHODS:
                cls = getattr(kernels, cls_name, None)
                fn = vars(cls).get(method) if cls is not None else None
                if fn is not None:
                    self._patch(cls, method, self._wrap(fn, f"kernels.{cls_name}.{method}", "kernels"))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, name: str, site: str):
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, site, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if note is not None:
                try:
                    notes[idx] = note(signature.bind(*args, **kwargs).arguments, result)
                except NOTE_ERRORS:
                    pass
            return result

        return wrapper

    # -- output -----------------------------------------------------------------

    def dump(self, path, **extra) -> None:
        """Write every span, with times relative to the first one."""
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            **extra,
            "fields": ["name", "site", "start_s", "end_s", "parent"],
            "spans": [[n, s, a - t0, b - t0, p] for n, s, a, b, p in self.spans],
            "notes": {str(k): v for k, v in self.notes.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and seconds of one traced pass."""
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[4] >= 0:
            child[s[4]] += d
    self_time = [d - c for d, c in zip(dur, child)]

    def outermost(names, site=None):
        """Spans named in ``names`` with no ancestor also named in ``names``."""
        out = []
        for i, s in enumerate(spans):
            if s[0] not in names or (site is not None and s[1] != site):
                continue
            p = s[4]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][4]
            if p < 0:
                out.append(i)
        return out

    def below(i, names):
        """Outermost spans named in ``names`` that run inside span ``i``."""
        out = []
        for j in outermost(names):
            p = spans[j][4]
            while p >= 0 and p != i:
                p = spans[p][4]
            if p == i:
                out.append(j)
        return out

    def total(names, site=None):
        idx = outermost(names, site)
        return len(idx), sum(dur[i] for i in idx)

    def self_of(pred):
        return sum(t for s, t in zip(spans, self_time) if pred(s[0]))

    def noted(key):
        return [n[key] for n in tracer.notes.values() if key in n]

    def layer(module):
        return lambda name: name.startswith(module + ".")

    m: dict[str, float] = {}
    m["riccati.sweep_calls"], m["riccati.sweep_s"] = total(SWEEPS)
    m["riccati.p2_calls"], m["riccati.p2_s"] = total(P2)
    m["simulate.p2_calls"] = len(outermost(P2, site="simulate"))
    m["riccati.residual_calls"], m["riccati.residual_s"] = total({"riccati.characterization_residual"})
    m["riccati.audit_s"] = total({"riccati.check_constraints"})[1]

    # solve_equilibrium minus the riccati spans inside it; kernel sampling
    # done by the fixed point itself is counted here, not only in kernels.s.
    riccati = {s[0] for s in spans if s[0].startswith("riccati.")}
    m["equilibrium.self_s"] = sum(
        dur[i] - sum(dur[j] for j in below(i, riccati))
        for i in outermost({"equilibrium.solve_equilibrium"})
    )
    m["equilibrium.windows"] = sum(noted("windows"))
    m["equilibrium.iterations"] = sum(noted("iterations"))
    its = m["equilibrium.iterations"]
    m["equilibrium.s_per_iteration"] = m["equilibrium.self_s"] / its if its else 0.0

    m["simulate.self_s"] = self_of(layer("simulate"))
    m["simulate.path_steps"] = sum(noted("path_steps"))
    ps = m["simulate.path_steps"]
    m["simulate.ns_per_path_step"] = m["simulate.self_s"] * 1e9 / ps if ps else 0.0
    errs = noted("spike_stderr")
    m["simulate.spike_stderr"] = statistics.median(errs) if errs else 0.0

    kernel_names = {f"kernels.{c}.{meth}" for c, meth in KERNEL_METHODS}
    m["kernels.calls"], m["kernels.s"] = total(kernel_names)
    m["kernels.two_time_calls"] = total({"kernels.TwoTimeKernel.__call__"})[0]

    m["verify.self_s"] = self_of(layer("verify"))

    m["io_utils.write_s"] = total(WRITES)[1]
    m["io_utils.load_s"] = self_of(lambda n: n == "io_utils.load_solution_dir")
    m["io_utils.bytes_written"] = sum(noted("bytes"))
    m["scenario.load_s"] = total({"scenario.load_scenario"})[1]
    m["cli.verify_s"] = total({"cli.cmd_verify"})[1]
    m["trace.spans"] = len(spans)
    return m
