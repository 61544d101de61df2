"""Time-dependent coefficient and weight kernels.

One family serves every entry: :class:`TwoTimeKernel`, matrix functions
K(s, t) on [0, T]^2.  The running cost weights read them at (s, t); the cost
integral only reads the triangle t <= s, but the kernels are defined on the
whole square.  A dynamics coefficient or a terminal/initial weight is a
function of one time, read as ``kernel(t)``, which is K(t, 0): a lag kernel
at lag d = t, or a single-time table or callable (:class:`TableFn`,
:class:`CallableFn`), which evaluates K(s, t) from s alone.  The constant,
discounted and difference formulas are one :class:`LagKernel`, a function of
the lag d = s - t written over a basis exp(-rate d) d^k that an h-shift maps
into itself.  The Riccati diagonals and the integral route advance its few
factor sums node by node instead of sampling L x L tables; table and
callable kernels are sampled.

Scenario files may only use the closed family that :func:`kernel_from_spec`
and :func:`time_fn_from_spec` read (constant / discounted / difference /
table); in-code problem construction may additionally wrap arbitrary
vectorized callables.  All evaluations are pure:
the same arguments always produce bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TwoTimeKernel",
    "LagKernel",
    "TableKernel",
    "CallableKernel",
    "TableFn",
    "CallableFn",
    "kernel_from_spec",
    "time_fn_from_spec",
]


def _as_matrix(value) -> np.ndarray:
    m = np.asarray(value, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m


class TwoTimeKernel:
    """Matrix-valued kernel K(s, t); subclasses implement ``evaluate``; ``kernel(t)`` is K(t, 0)."""

    shape: tuple[int, int]

    def __call__(self, s, t=0.0) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        out = self.evaluate(s, t)
        want = np.broadcast_shapes(s.shape, t.shape) + self.shape
        return np.broadcast_to(out, want)

    def evaluate(self, s, t) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class LagKernel(TwoTimeKernel):
    """A kernel of the lag d = s - t: K = exp(-rate d) (coefs[0] + d coefs[1] + ...).

    ``coefs`` lists one matrix (or scalar) per degree.  The basis
    b_k(d) = exp(-rate d) d^k is shift-invariant,
    b(d + step) = shift(step) @ b(d), and b(0) is the first unit vector.  So a
    sum of K(s_j, t_i) over nodes s_j can be carried relative to the current
    node t_i and moved one node back by a small matrix, without an exponent
    that spans the horizon.  Called with one time, ``kernel(t)`` reads it at
    lag d = t.
    """

    rate: float
    coefs: np.ndarray  # (degree + 1, r, c)

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        coefs = [_as_matrix(c) for c in self.coefs]
        if len({c.shape for c in coefs}) > 1:
            raise ValueError(f"lag kernel coefficient shapes differ: {[c.shape for c in coefs]}")
        object.__setattr__(self, "coefs", np.stack(coefs))

    @property
    def shape(self) -> tuple[int, int]:
        return self.coefs.shape[1:]

    def evaluate(self, s, t):
        # Horner from the top degree; a constant is coefs[0] itself, and the
        # exp factor enters only at rate != 0.
        poly = self.coefs[-1]
        if len(self.coefs) == 1 and self.rate == 0:
            return poly
        d = s - t
        if np.ndim(d):
            d = d[..., None, None]
        for c in self.coefs[-2::-1]:
            poly = d * poly + c
        return poly if self.rate == 0 else np.exp(-self.rate * d) * poly

    def shift(self, step: float) -> np.ndarray:
        """Lower-triangular S with S[k, q] = exp(-rate step) C(k, q) step^(k - q)."""
        size = len(self.coefs)
        out = np.zeros((size, size))
        for k in range(size):
            for q in range(k + 1):
                out[k, q] = math.comb(k, q) * step ** (k - q)
        return math.exp(-self.rate * step) * out


def _locate(nodes: np.ndarray, x: np.ndarray):
    """Cell index and barycentric weight for 1-d linear interpolation, clamped."""
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    den = nodes[i + 1] - nodes[i]
    w = np.clip((x - nodes[i]) / den, 0.0, 1.0)
    return i, w


def _table_nodes(nodes) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 2:
        raise ValueError(f"a table needs at least two nodes per axis, got shape {nodes.shape}")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("table nodes must be strictly increasing")
    return nodes


class TableKernel(TwoTimeKernel):
    """Tabulated kernel, bilinear interpolation on the (s, t) rectangle."""

    def __init__(self, s_nodes, t_nodes, values):
        self.s_nodes = _table_nodes(s_nodes)
        self.t_nodes = _table_nodes(t_nodes)
        v = np.asarray(values, dtype=float)
        if v.ndim == 2:
            v = v[:, :, None, None]
        if v.shape[:2] != (len(self.s_nodes), len(self.t_nodes)):
            raise ValueError("table shape does not match node counts")
        self.values = v
        self.shape = v.shape[2:]

    def evaluate(self, s, t):
        lead = np.broadcast_shapes(s.shape, t.shape)
        s = np.broadcast_to(s, lead)
        t = np.broadcast_to(t, lead)
        i, ws = _locate(self.s_nodes, s)
        j, wt = _locate(self.t_nodes, t)
        ws = ws[..., None, None]
        wt = wt[..., None, None]
        v = self.values
        return (
            v[i, j] * (1 - ws) * (1 - wt)
            + v[i + 1, j] * ws * (1 - wt)
            + v[i, j + 1] * (1 - ws) * wt
            + v[i + 1, j + 1] * ws * wt
        )


class CallableKernel(TwoTimeKernel):
    """In-code kernel from a vectorized callable (s, t) -> (..., r, c); no scenario file writes one."""

    def __init__(self, fn, shape):
        self.fn = fn
        self.shape = (int(shape[0]), int(shape[1]))

    def evaluate(self, s, t):
        return np.asarray(self.fn(s, t), dtype=float)


class TableFn(TwoTimeKernel):
    """Tabulated single-time entry K(s, t) = f(s), linear interpolation, clamped ends."""

    def __init__(self, nodes, values):
        self.nodes = _table_nodes(nodes)
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None, None]
        if v.shape[0] != len(self.nodes):
            raise ValueError("table shape does not match node count")
        self.values = v
        self.shape = v.shape[1:]

    def evaluate(self, s, t):
        i, w = _locate(self.nodes, s)
        w = w[..., None, None]
        return self.values[i] * (1 - w) + self.values[i + 1] * w


class CallableFn(CallableKernel):
    """In-code single-time entry K(s, t) = fn(s) from a vectorized callable s -> (..., r, c)."""

    def evaluate(self, s, t):
        return np.asarray(self.fn(s), dtype=float)


# The lag spec types as (rate, coefs) of their parameters.
_LAG_TYPES = {
    "constant": lambda p: (0.0, [p["value"]]),
    "discounted": lambda p: (p["rate"], [p["base"]]),
    "difference": lambda p: (0.0, [p["beta"], p["alpha"]]),
}


def _from_spec(spec: dict, shape: tuple[int, int], table):
    kind = spec.get("type")
    p = spec.get("params", {})
    if kind in _LAG_TYPES:
        k = LagKernel(*_LAG_TYPES[kind](p))
    elif kind == "table":
        k = table(p)
    else:
        raise ValueError(f"unknown kernel type {kind!r}")
    if k.shape != tuple(shape):
        raise ValueError(f"kernel shape {k.shape} does not match expected {tuple(shape)}")
    return k


def kernel_from_spec(spec: dict, shape: tuple[int, int]) -> TwoTimeKernel:
    """Build a two-time kernel from its JSON description."""
    return _from_spec(spec, shape, lambda p: TableKernel(p["s_nodes"], p["t_nodes"], p["values"]))


def time_fn_from_spec(spec: dict, shape: tuple[int, int]) -> TwoTimeKernel:
    """Build a single-time entry from its JSON description, a kernel read as ``kernel(t)``.

    The same four spec types are accepted; the lag types are read at lag
    d = t, the plain time argument in place of (s - t), and tables are 1-d.
    """
    return _from_spec(spec, shape, lambda p: TableFn(p["nodes"], p["values"]))
