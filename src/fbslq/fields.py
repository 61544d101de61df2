"""Grid-sampled matrix fields on a uniform time grid.

A :class:`TwoTimeField` holds a matrix function P(s; t) on the triangle
0 <= t <= s <= T, stored as ``data[t_index, s_index]`` with only the upper
triangle (s >= t) meaningful.  A :class:`OneTimeField` holds one matrix per
grid node.  A :class:`Strategy` is a one-time field of feedback gains that
must be finite.

All containers are immutable by convention (arrays are not written after
construction) and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid", "OneTimeField", "TwoTimeField", "Strategy", "interval_gain"]

_NODE_TOL = 1e-9  # how far from a node a time read as that node may be, relative to max(1, horizon)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * T / steps, i = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if not self.horizon / self.steps > 0:
            raise ValueError(f"horizon {self.horizon} is too small for {self.steps} steps")
        if not np.isfinite(float(self.steps - 1) * float(self.h) + float(self.horizon)):  # t_{L-2} + T
            raise ValueError(f"horizon {self.horizon} is too large: the grid midpoints overflow")

    @property
    def h(self) -> float:
        return self.horizon / self.steps

    @property
    def num_nodes(self) -> int:
        return self.steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    @property
    def midpoints(self) -> np.ndarray:
        nodes = self.nodes
        return 0.5 * (nodes[:-1] + nodes[1:])

    def index_of(self, t: float) -> int:
        """Node index of time t; t must sit on the grid, within ``_NODE_TOL``."""
        ratio = t / self.h
        i = int(round(ratio)) if np.isfinite(ratio) else -1
        if i < 0 or i > self.steps or abs(i * self.h - t) > _NODE_TOL * max(1.0, self.horizon):
            raise ValueError(f"time {t} is not a grid node")
        return i


def _check_grid(grid: TimeGrid, data: np.ndarray, ndim_lead: int):
    if data.shape[:ndim_lead] != (grid.num_nodes,) * ndim_lead:
        raise ValueError(
            f"field data {data.shape} does not match grid with {grid.num_nodes} nodes"
        )
    if data.ndim != ndim_lead + 2:
        raise ValueError("field entries must be matrices (use shape (..., r, c))")


@dataclass(frozen=True)
class OneTimeField:
    """One matrix per grid node; ``data`` has shape (nodes, r, c)."""

    grid: TimeGrid
    data: np.ndarray

    def __post_init__(self):
        _check_grid(self.grid, self.data, 1)

    @property
    def entry_shape(self) -> tuple[int, int]:
        return self.data.shape[1:]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    def flat(self) -> np.ndarray:
        """Scalar view (nodes,) for 1x1 entries."""
        if self.entry_shape != (1, 1):
            raise ValueError("flat() requires 1x1 entries")
        return self.data[:, 0, 0]

    @classmethod
    def from_flat(cls, grid: TimeGrid, values: np.ndarray) -> "OneTimeField":
        """The field of 1x1 entries ``values[i]``, of the calling class."""
        v = np.asarray(values, dtype=float)
        return cls(grid, v[:, None, None].copy())


@dataclass(frozen=True)
class TwoTimeField:
    """Matrices P(s_j; t_i) for i <= j; ``data[i, j]`` is P(s_j; t_i).

    Entries below the diagonal (j < i) are NaN-filled and never read.
    """

    grid: TimeGrid
    data: np.ndarray

    def __post_init__(self):
        _check_grid(self.grid, self.data, 2)

    @property
    def entry_shape(self) -> tuple[int, int]:
        return self.data.shape[2:]

    def diagonal(self) -> OneTimeField:
        """The trace P(t; t), the only values the feedback map reads."""
        idx = np.arange(self.grid.num_nodes)
        return OneTimeField(self.grid, self.data[idx, idx].copy())

    def at(self, t_index: int, s_index: int) -> np.ndarray:
        if s_index < t_index:
            raise IndexError("two-time field is defined only on t <= s")
        return self.data[t_index, s_index]

    def triangle_mask(self) -> np.ndarray:
        n = self.grid.num_nodes
        i, j = np.indices((n, n))
        return j >= i

    def sup_norm(self) -> float:
        mask = self.triangle_mask()
        return float(np.max(np.abs(self.data[mask]))) if mask.any() else 0.0

    def max_asymmetry(self) -> float:
        """Largest |P - P^T| entry over the stored triangle."""
        sym_gap = np.abs(self.data - np.swapaxes(self.data, -1, -2))
        return float(np.max(sym_gap[self.triangle_mask()]))


@dataclass(frozen=True)
class Strategy(OneTimeField):
    """Feedback gain field: ``data[i]`` is the k x n gain at t_i; see :func:`interval_gain`."""

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.data)):
            raise ValueError("strategy values must be finite")

    @classmethod
    def constant(cls, grid: TimeGrid, gain) -> "Strategy":
        g = np.asarray(gain, dtype=float)
        if g.ndim == 0:
            g = g.reshape(1, 1)
        return cls(grid, np.broadcast_to(g, (grid.num_nodes,) + g.shape).copy())

    @classmethod
    def zeros(cls, grid: TimeGrid, k: int, n: int) -> "Strategy":
        return cls(grid, np.zeros((grid.num_nodes, k, n)))


def interval_gain(values: np.ndarray, lo: int, stop: int, fractions) -> np.ndarray:
    """The gain of intervals lo..stop - 1 at ``fractions`` of each interval.

    ``values[i]`` is the gain at node t_i, flat or with (k, n) entries; entry
    [j - lo, q] of the result, of shape (stop - lo, len(fractions)) + entry
    shape, is the gain at t_j + fractions[q] h.  This is the one rule for the
    gain between nodes: piecewise-constant, Theta_j on [t_j, t_{j+1}), so
    every fraction reads values[j], as a read-only broadcast view.
    """
    return np.broadcast_to(values[lo:stop, None], (stop - lo, len(fractions)) + values.shape[1:])
