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
table`` (see :mod:`fbslq.kernels`).  The dims and ``grid_steps`` are JSON
integers: a boolean or a number written with a fraction or exponent part
(``50.7``, ``1000.0``) is refused.  The horizon is a JSON number, not a
boolean or a string.  Matrices are row-major nested arrays of finite
decimals: H and every kernel parameter hold JSON numbers only, and a boolean
or a string anywhere in them is refused.  Single-time entries (all
coefficients, G1, G2) read the same spec types with the plain time argument
in place of (s - t).

The builders at the end of this module write the built-in problems; each is
the one definition of its instance, which :mod:`fbslq.presets` reads.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from .fields import TimeGrid
from .kernels import kernel_from_spec, time_fn_from_spec
from .problem import _COEFF_SHAPES, _ONE_TIME_WEIGHTS, _WEIGHT_SHAPES, _expected_shape
from .problem import Coefficients, Dimensions, ProblemSpec, Weights

__all__ = [
    "scenario_to_spec",
    "load_scenario",
    "example_2_5_scenario",
    "trivial_scenario",
    "smoke_scenario",
    "classical_reduction_scenario",
]


def _typed(value, kind, name: str):
    """``value`` if it is a ``kind`` (numbers.Integral or numbers.Real) and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be a JSON {'integer' if kind is numbers.Integral else 'number'}, got {value!r}")
    return value


def _numbers(value, name: str):
    """``value``, a JSON number or nested arrays of them: no boolean or string anywhere."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        elif isinstance(item, (bool, str)):
            raise ValueError(f"{name} must hold JSON numbers only, got {item!r}")
    return value


def _entry(doc: dict, section: str, name: str) -> dict:
    """The kernel spec ``doc[section][name]``, its params checked by :func:`_numbers`."""
    spec = doc[section][name]
    for key, value in spec.get("params", {}).items():
        _numbers(value, f"{section}.{name}.params.{key}")
    return spec


def scenario_to_spec(doc: dict, grid_steps: int | None = None) -> ProblemSpec:
    """Build a problem instance from a parsed scenario document."""
    if not isinstance(doc, dict):
        raise ValueError(f"a scenario must be a JSON object, got {type(doc).__name__}")
    try:
        dims = Dimensions(*(_typed(doc["dims"][x], numbers.Integral, f"dims.{x}") for x in "nmk"))
        horizon = float(_typed(doc["horizon"], numbers.Real, "horizon"))
        steps = grid_steps if grid_steps is not None else _typed(doc["grid_steps"], numbers.Integral, "grid_steps")
        coeff_fns = {
            name: time_fn_from_spec(_entry(doc, "coeffs", name), _expected_shape(dims, shape))
            for name, shape in _COEFF_SHAPES.items()
        }
        H = np.asarray(_numbers(doc["coeffs"]["H"], "coeffs.H"), dtype=float)
        if H.shape != (dims.m, dims.n):
            raise ValueError(f"H has shape {H.shape}, want {(dims.m, dims.n)}")
        weights = {}
        for name, shape in _WEIGHT_SHAPES.items():
            build = time_fn_from_spec if name in _ONE_TIME_WEIGHTS else kernel_from_spec
            weights[name] = build(_entry(doc, "weights", name), _expected_shape(dims, shape))
    except KeyError as exc:
        raise ValueError(f"scenario is missing required field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"scenario field has the wrong JSON type: {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"scenario number out of range: {exc}") from exc
    coeffs = Coefficients(**coeff_fns, H=H, horizon=horizon)
    return ProblemSpec(dims=dims, coeffs=coeffs, weights=Weights(**weights), grid=TimeGrid(horizon, steps))


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
