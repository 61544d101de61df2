"""JSON scenario files: the serializable description of a problem instance.

Schema::

    {
      "dims": {"n": 1, "m": 1, "k": 1},
      "horizon": 1.0,
      "grid_steps": 1000,
      "coeffs": {"A": kernel_spec, ..., "Dhat": kernel_spec, "H": [[...]]},
      "weights": {"Q": kernel_spec, "R": ..., "M": ..., "N": ...,
                  "G1": kernel_spec, "G2": kernel_spec}
    }

where ``kernel_spec`` is one of ``constant | discounted | difference |
table`` (see :mod:`fbslq.kernels`).  Matrices are row-major nested arrays of
finite decimals.  Single-time entries (all coefficients, G1, G2) read the
same spec types with the plain time argument in place of (s - t).
"""

from __future__ import annotations

import json

import numpy as np

from .fields import TimeGrid
from .kernels import kernel_from_spec, time_fn_from_spec
from .problem import Coefficients, Dimensions, ProblemSpec, Weights

__all__ = [
    "scenario_to_spec",
    "load_scenario",
    "example_2_5_scenario",
    "trivial_scenario",
    "smoke_scenario",
    "classical_reduction_scenario",
]

_COEFF_KEYS = ("A", "B", "C", "D", "Ahat", "Bhat", "Chat", "Dhat")


def scenario_to_spec(doc: dict, grid_steps: int | None = None) -> ProblemSpec:
    """Build a problem instance from a parsed scenario document."""
    if not isinstance(doc, dict):
        raise ValueError(f"a scenario must be a JSON object, got {type(doc).__name__}")
    try:
        dims = Dimensions(int(doc["dims"]["n"]), int(doc["dims"]["m"]), int(doc["dims"]["k"]))
        horizon = float(doc["horizon"])
        steps = int(grid_steps if grid_steps is not None else doc["grid_steps"])
        shapes = {
            "A": (dims.n, dims.n),
            "B": (dims.n, dims.k),
            "C": (dims.n, dims.n),
            "D": (dims.n, dims.k),
            "Ahat": (dims.m, dims.n),
            "Bhat": (dims.m, dims.k),
            "Chat": (dims.m, dims.m),
            "Dhat": (dims.m, dims.m),
        }
        coeff_fns = {key: time_fn_from_spec(doc["coeffs"][key], shapes[key]) for key in _COEFF_KEYS}
        H = np.asarray(doc["coeffs"]["H"], dtype=float)
        if H.shape != (dims.m, dims.n):
            raise ValueError(f"H has shape {H.shape}, want {(dims.m, dims.n)}")
        wdoc = doc["weights"]
        weights = Weights(
            Q=kernel_from_spec(wdoc["Q"], (dims.n, dims.n)),
            R=kernel_from_spec(wdoc["R"], (dims.k, dims.k)),
            M=kernel_from_spec(wdoc["M"], (dims.m, dims.m)),
            N=kernel_from_spec(wdoc["N"], (dims.m, dims.m)),
            G1=time_fn_from_spec(wdoc["G1"], (dims.n, dims.n)),
            G2=time_fn_from_spec(wdoc["G2"], (dims.m, dims.m)),
        )
    except KeyError as exc:
        raise ValueError(f"scenario is missing required field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"scenario field has the wrong JSON type: {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"scenario number out of range: {exc}") from exc
    coeffs = Coefficients(**coeff_fns, H=H, horizon=horizon)
    return ProblemSpec(dims=dims, coeffs=coeffs, weights=weights, grid=TimeGrid(horizon, steps))


def load_scenario(path, grid_steps: int | None = None) -> ProblemSpec:
    """Parse a scenario file; JSON errors carry line/column diagnostics."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return scenario_to_spec(doc, grid_steps)


def _const(value) -> dict:
    return {"type": "constant", "params": {"value": np.atleast_2d(value).tolist()}}


def _scalar_coeff_docs(A=0.0, B=0.0, C=0.0, D=0.0, Ahat=0.0, Bhat=0.0, Chat=0.0, Dhat=0.0, H=0.0):
    return {
        "A": _const(A),
        "B": _const(B),
        "C": _const(C),
        "D": _const(D),
        "Ahat": _const(Ahat),
        "Bhat": _const(Bhat),
        "Chat": _const(Chat),
        "Dhat": _const(Dhat),
        "H": [[float(H)]],
    }


def example_2_5_scenario(grid_steps: int = 1000) -> dict:
    """Scenario-file version of the vanishing-control-weight example.

    The terminal weight -(1 - e^{-(T-t)}) is shipped as a node table; it is
    exact at the grid nodes, which are the only points the solver reads it.
    """
    T = 1.0
    nodes = TimeGrid(T, grid_steps).nodes
    g1 = -(1.0 - np.exp(-(T - nodes)))
    return {
        "dims": {"n": 1, "m": 1, "k": 1},
        "horizon": T,
        "grid_steps": grid_steps,
        "coeffs": _scalar_coeff_docs(B=1.0, C=1.0),
        "weights": {
            "Q": _const(1.0),
            "R": {"type": "difference", "params": {"alpha": [[1.0]], "beta": [[0.0]]}},
            "M": _const(0.0),
            "N": _const(0.0),
            "G1": {
                "type": "table",
                "params": {"nodes": nodes.tolist(), "values": [[[v]] for v in g1.tolist()]},
            },
            "G2": _const(0.0),
        },
    }


def trivial_scenario(grid_steps: int = 200) -> dict:
    return {
        "dims": {"n": 1, "m": 1, "k": 1},
        "horizon": 1.0,
        "grid_steps": grid_steps,
        "coeffs": _scalar_coeff_docs(D=1.0),
        "weights": {
            "Q": _const(0.0),
            "R": _const(1.0),
            "M": _const(0.0),
            "N": _const(1.0),
            "G1": _const(0.0),
            "G2": _const(0.0),
        },
    }


def smoke_scenario(grid_steps: int = 1000) -> dict:
    difference = {"type": "difference", "params": {"alpha": [[0.1]], "beta": [[1.0]]}}
    return {
        "dims": {"n": 1, "m": 1, "k": 1},
        "horizon": 1.0,
        "grid_steps": grid_steps,
        "coeffs": _scalar_coeff_docs(
            A=0.1, B=0.5, C=0.5, D=1.0, Ahat=0.2, Bhat=0.2, Chat=0.2, Dhat=0.2, H=0.3
        ),
        "weights": {
            "Q": _const(0.5),
            "R": difference,
            "M": _const(0.5),
            "N": difference,
            "G1": _const(0.4),
            "G2": _const(0.3),
        },
    }


def classical_reduction_scenario(grid_steps: int = 1000) -> dict:
    return {
        "dims": {"n": 1, "m": 1, "k": 1},
        "horizon": 1.0,
        "grid_steps": grid_steps,
        "coeffs": _scalar_coeff_docs(B=1.0, D=1.0),
        "weights": {
            "Q": _const(1.0),
            "R": _const(1.0),
            "M": _const(0.0),
            "N": _const(0.0),
            "G1": _const(1.0),
            "G2": _const(0.0),
        },
    }
