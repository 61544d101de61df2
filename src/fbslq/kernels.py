"""Time-dependent coefficient and weight kernels.

Two families live here:

* :class:`TwoTimeKernel` -- matrix functions K(s, t) on [0, T]^2, used for the
  running cost weights.  The cost integral only reads the triangle t <= s, but
  the kernels are defined on the whole square.  The constant, discounted and
  difference kernels depend on the lag d = s - t alone and expose it as
  :class:`LagFactors`: coefficients over a basis exp(-rate d) d^k that an
  h-shift maps into itself.  The Riccati diagonals and the integral route
  advance those few factor sums node by node instead of sampling L x L
  tables; table and callable kernels have no factors and are sampled.
* :class:`TimeFunction` -- matrix functions of a single time, used for the
  dynamics coefficients and the terminal/initial weights.

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
    "LagFactors",
    "TwoTimeKernel",
    "ConstantKernel",
    "DiscountedKernel",
    "DifferenceKernel",
    "TableKernel",
    "CallableKernel",
    "TimeFunction",
    "ConstantFn",
    "DiscountedFn",
    "AffineFn",
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


def _scale(w, m: np.ndarray) -> np.ndarray:
    """Multiply matrix m by a scalar-or-array weight, broadcasting over leads."""
    w = np.asarray(w, dtype=float)
    return w[..., None, None] * m if w.ndim else w * m


@dataclass(frozen=True)
class LagFactors:
    """A kernel of the lag d = s - t: K = exp(-rate d) (coefs[0] + d coefs[1] + ...).

    The basis b_k(d) = exp(-rate d) d^k is shift-invariant,
    b(d + step) = shift(step) @ b(d), and b(0) is the first unit vector.  So a
    sum of K(s_j, t_i) over nodes s_j can be carried relative to the current
    node t_i and moved one node back by a small matrix, without an exponent
    that spans the horizon.
    """

    rate: float
    coefs: np.ndarray  # (degree + 1, r, c)

    def shift(self, step: float) -> np.ndarray:
        """Lower-triangular S with S[k, q] = exp(-rate step) C(k, q) step^(k - q)."""
        size = len(self.coefs)
        out = np.zeros((size, size))
        for k in range(size):
            for q in range(k + 1):
                out[k, q] = math.comb(k, q) * step ** (k - q)
        return math.exp(-self.rate * step) * out


class TwoTimeKernel:
    """Matrix-valued kernel K(s, t); subclasses implement ``evaluate``."""

    shape: tuple[int, int]

    def __call__(self, s, t) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        out = self.evaluate(s, t)
        want = np.broadcast_shapes(s.shape, t.shape) + self.shape
        return np.broadcast_to(out, want)

    def evaluate(self, s, t) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def lag_factors(self) -> LagFactors | None:
        """The kernel as a function of the lag s - t, or None when it is not one."""
        return None


class ConstantKernel(TwoTimeKernel):
    def __init__(self, value):
        self.value = _as_matrix(value)
        self.shape = self.value.shape

    def lag_factors(self):
        return LagFactors(0.0, self.value[None])

    def evaluate(self, s, t):
        lead = np.broadcast_shapes(np.shape(s), np.shape(t))
        return np.broadcast_to(self.value, lead + self.shape)


class DiscountedKernel(TwoTimeKernel):
    """K(s, t) = exp(-rate * (s - t)) * base."""

    def __init__(self, base, rate):
        self.base = _as_matrix(base)
        self.rate = float(rate)
        self.shape = self.base.shape

    def evaluate(self, s, t):
        w = np.exp(-self.rate * (np.asarray(s, float) - np.asarray(t, float)))
        return _scale(w, self.base)

    def lag_factors(self):
        return LagFactors(self.rate, self.base[None])


class DifferenceKernel(TwoTimeKernel):
    """K(s, t) = alpha * (s - t) + beta."""

    def __init__(self, alpha, beta):
        self.alpha = _as_matrix(alpha)
        self.beta = _as_matrix(beta)
        if self.alpha.shape != self.beta.shape:
            raise ValueError("alpha/beta shape mismatch")
        self.shape = self.alpha.shape

    def evaluate(self, s, t):
        d = np.asarray(s, float) - np.asarray(t, float)
        if np.ndim(d):
            return d[..., None, None] * self.alpha + self.beta
        return d * self.alpha + self.beta

    def lag_factors(self):
        return LagFactors(0.0, np.stack([self.beta, self.alpha]))


def _locate(nodes: np.ndarray, x: np.ndarray):
    """Cell index and barycentric weight for 1-d linear interpolation, clamped."""
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    den = nodes[i + 1] - nodes[i]
    w = np.clip((x - nodes[i]) / den, 0.0, 1.0)
    return i, w


class TableKernel(TwoTimeKernel):
    """Tabulated kernel, bilinear interpolation on the (s, t) rectangle."""

    def __init__(self, s_nodes, t_nodes, values):
        self.s_nodes = np.asarray(s_nodes, dtype=float)
        self.t_nodes = np.asarray(t_nodes, dtype=float)
        v = np.asarray(values, dtype=float)
        if v.ndim == 2:
            v = v[:, :, None, None]
        if v.shape[:2] != (len(self.s_nodes), len(self.t_nodes)):
            raise ValueError("table shape does not match node counts")
        if np.any(np.diff(self.s_nodes) <= 0) or np.any(np.diff(self.t_nodes) <= 0):
            raise ValueError("table nodes must be strictly increasing")
        self.values = v
        self.shape = v.shape[2:]

    def evaluate(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
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


class TimeFunction:
    """Matrix-valued function of a single time."""

    shape: tuple[int, int]

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = self.evaluate(t)
        return np.broadcast_to(out, t.shape + self.shape)

    def evaluate(self, t) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class ConstantFn(TimeFunction):
    def __init__(self, value):
        self.value = _as_matrix(value)
        self.shape = self.value.shape

    def evaluate(self, t):
        return np.broadcast_to(self.value, np.shape(t) + self.shape)


class DiscountedFn(TimeFunction):
    """f(t) = exp(-rate * t) * base (single-time reading of the discounted kernel)."""

    def __init__(self, base, rate):
        self.base = _as_matrix(base)
        self.rate = float(rate)
        self.shape = self.base.shape

    def evaluate(self, t):
        return _scale(np.exp(-self.rate * np.asarray(t, float)), self.base)


class AffineFn(TimeFunction):
    """f(t) = alpha * t + beta (single-time reading of the difference kernel)."""

    def __init__(self, alpha, beta):
        self.alpha = _as_matrix(alpha)
        self.beta = _as_matrix(beta)
        if self.alpha.shape != self.beta.shape:
            raise ValueError("alpha/beta shape mismatch")
        self.shape = self.alpha.shape

    def evaluate(self, t):
        t = np.asarray(t, float)
        if np.ndim(t):
            return t[..., None, None] * self.alpha + self.beta
        return t * self.alpha + self.beta


class TableFn(TimeFunction):
    """Tabulated single-time function, linear interpolation, clamped ends."""

    def __init__(self, nodes, values):
        self.nodes = np.asarray(nodes, dtype=float)
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None, None]
        if v.shape[0] != len(self.nodes):
            raise ValueError("table shape does not match node count")
        self.values = v
        self.shape = v.shape[1:]

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        i, w = _locate(self.nodes, t)
        w = w[..., None, None]
        return self.values[i] * (1 - w) + self.values[i + 1] * w


class CallableFn(TimeFunction):
    """In-code function from a vectorized callable t -> (..., r, c)."""

    def __init__(self, fn, shape):
        self.fn = fn
        self.shape = (int(shape[0]), int(shape[1]))

    def evaluate(self, t):
        return np.asarray(self.fn(t), dtype=float)


def kernel_from_spec(spec: dict, shape: tuple[int, int]) -> TwoTimeKernel:
    """Build a two-time kernel from its JSON description."""
    kind = spec.get("type")
    p = spec.get("params", {})
    if kind == "constant":
        k = ConstantKernel(p["value"])
    elif kind == "discounted":
        k = DiscountedKernel(p["base"], p["rate"])
    elif kind == "difference":
        k = DifferenceKernel(p["alpha"], p["beta"])
    elif kind == "table":
        k = TableKernel(p["s_nodes"], p["t_nodes"], p["values"])
    else:
        raise ValueError(f"unknown kernel type {kind!r}")
    if k.shape != tuple(shape):
        raise ValueError(f"kernel shape {k.shape} does not match expected {tuple(shape)}")
    return k


def time_fn_from_spec(spec: dict, shape: tuple[int, int]) -> TimeFunction:
    """Build a single-time function from its JSON description.

    The same four spec types are accepted; the formulas read with the plain
    time argument t in place of the difference (s - t), and tables are 1-d.
    """
    kind = spec.get("type")
    p = spec.get("params", {})
    if kind == "constant":
        f = ConstantFn(p["value"])
    elif kind == "discounted":
        f = DiscountedFn(p["base"], p["rate"])
    elif kind == "difference":
        f = AffineFn(p["alpha"], p["beta"])
    elif kind == "table":
        f = TableFn(p["nodes"], p["values"])
    else:
        raise ValueError(f"unknown kernel type {kind!r}")
    if f.shape != tuple(shape):
        raise ValueError(f"function shape {f.shape} does not match expected {tuple(shape)}")
    return f
