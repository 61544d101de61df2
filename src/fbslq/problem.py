"""Problem instances: dimensions, dynamics coefficients, cost weights.

A :class:`ProblemSpec` bundles the forward-backward dynamics

    dX = (A X + B u) ds + (C X + D u) dW
    dY = -(Ahat X + Bhat u + Chat Y + Dhat Z) ds + Z dW,   Y(T) = H X(T)

with the two-time cost weights Q, R, M, N and the single-time weights
G1, G2 evaluated at the (moving) initial time.  The standing-assumption
audit `check_one_dim_positivity` is an empirical, report-style check; it
never raises on a failing hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import TimeGrid
from .kernels import LagKernel, TwoTimeKernel

__all__ = [
    "Dimensions",
    "Coefficients",
    "Weights",
    "ProblemSpec",
    "ValidationReport",
    "AssumptionReport",
    "validate",
    "check_one_dim_positivity",
]


@dataclass(frozen=True)
class Dimensions:
    n: int  # forward state
    m: int  # backward state
    k: int  # control

    def __post_init__(self):
        if min(self.n, self.m, self.k) < 1:
            raise ValueError("dimensions must be positive integers")


@dataclass(frozen=True)
class Coefficients:
    """Dynamics coefficients; all bounded functions on [0, horizon], each read as ``kernel(t)``."""

    A: TwoTimeKernel  # n x n
    B: TwoTimeKernel  # n x k
    C: TwoTimeKernel  # n x n
    D: TwoTimeKernel  # n x k
    Ahat: TwoTimeKernel  # m x n
    Bhat: TwoTimeKernel  # m x k
    Chat: TwoTimeKernel  # m x m
    Dhat: TwoTimeKernel  # m x m
    H: np.ndarray  # m x n, constant
    horizon: float


@dataclass(frozen=True)
class Weights:
    Q: TwoTimeKernel  # n x n, symmetric
    R: TwoTimeKernel  # k x k, symmetric
    M: TwoTimeKernel  # m x m, symmetric
    N: TwoTimeKernel  # m x m, symmetric
    G1: TwoTimeKernel  # n x n, symmetric, read as G1(t)
    G2: TwoTimeKernel  # m x m, symmetric, read as G2(t)

    def lag_factors(self) -> dict[str, LagKernel] | None:
        """Q, R, M and N by name if all four are lag kernels, else None.

        This decides the route of the Riccati diagonals and of p1t: factor
        sums over the kernels' ``coefs`` when it returns them, dense sampling
        otherwise.
        """
        factors = {name: getattr(self, name) for name in "QRMN"}
        return factors if all(isinstance(k, LagKernel) for k in factors.values()) else None


@dataclass(frozen=True)
class ProblemSpec:
    dims: Dimensions
    coeffs: Coefficients
    weights: Weights
    grid: TimeGrid

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    def is_one_dimensional(self) -> bool:
        d = self.dims
        return d.n == d.m == d.k == 1


@dataclass
class ValidationReport:
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass
class AssumptionReport:
    """Outcome of an empirical standing-assumption audit."""

    name: str
    passed: bool
    empirical_constant: float
    details: dict = field(default_factory=dict)


_COEFF_SHAPES = {
    "A": ("n", "n"),
    "B": ("n", "k"),
    "C": ("n", "n"),
    "D": ("n", "k"),
    "Ahat": ("m", "n"),
    "Bhat": ("m", "k"),
    "Chat": ("m", "m"),
    "Dhat": ("m", "m"),
}

_WEIGHT_SHAPES = {
    "Q": ("n", "n"),
    "R": ("k", "k"),
    "M": ("m", "m"),
    "N": ("m", "m"),
    "G1": ("n", "n"),
    "G2": ("m", "m"),
}

_ONE_TIME_WEIGHTS = ("G1", "G2")  # the other weights are two-time kernels


def _expected_shape(dims: Dimensions, spec: tuple[str, str]) -> tuple[int, int]:
    look = {"n": dims.n, "m": dims.m, "k": dims.k}
    return look[spec[0]], look[spec[1]]


def _sample_times(grid: TimeGrid, cap: int = 41) -> np.ndarray:
    """Coarse deterministic sub-lattice of grid nodes, endpoints included."""
    nodes = grid.nodes
    if len(nodes) <= cap:
        return nodes
    idx = np.unique(np.linspace(0, len(nodes) - 1, cap).round().astype(int))
    return nodes[idx]


_SYM_TOL = 1e-9  # largest asymmetry of a weight sample, relative to 1 + its largest entry


# A sample that overflows is reported as non-finite, not warned about.
@np.errstate(over="ignore", invalid="ignore")
def validate(spec: ProblemSpec) -> ValidationReport:
    """Report dimension mismatches, non-finite samples and non-symmetric weights.

    An empty issue list means the spec is well formed.  Pure and idempotent.
    """
    report = ValidationReport()
    dims = spec.dims
    ts = _sample_times(spec.grid)

    if abs(spec.coeffs.horizon - spec.grid.horizon) > 1e-12 * max(1.0, spec.grid.horizon):
        report.issues.append(
            f"grid horizon {spec.grid.horizon} does not span coefficient horizon "
            f"{spec.coeffs.horizon}"
        )

    H = np.asarray(spec.coeffs.H, dtype=float)
    if H.shape != (dims.m, dims.n):
        report.issues.append(f"dimension mismatch H: got {H.shape}, want {(dims.m, dims.n)}")
    elif not np.all(np.isfinite(H)):
        report.issues.append("non-finite samples H")

    for name, shape_spec in _COEFF_SHAPES.items():
        fn = getattr(spec.coeffs, name)
        want = _expected_shape(dims, shape_spec)
        if tuple(fn.shape) != want:
            report.issues.append(f"dimension mismatch {name}: got {tuple(fn.shape)}, want {want}")
            continue
        vals = fn(ts)
        if not np.all(np.isfinite(vals)):
            report.issues.append(f"non-finite samples {name}")

    # Two-time weights are sampled on the triangle s >= t, the only part the cost reads.
    ss, tt = np.meshgrid(ts, ts, indexing="ij")
    tri = ss >= tt
    for name, shape_spec in _WEIGHT_SHAPES.items():
        kern = getattr(spec.weights, name)
        want = _expected_shape(dims, shape_spec)
        if tuple(kern.shape) != want:
            report.issues.append(f"dimension mismatch {name}: got {tuple(kern.shape)}, want {want}")
            continue
        vals = kern(ts) if name in _ONE_TIME_WEIGHTS else kern(ss[tri], tt[tri])
        if not np.all(np.isfinite(vals)):
            report.issues.append(f"non-finite samples {name}")
            continue
        gap = np.abs(vals - np.swapaxes(vals, -1, -2))
        scale = 1.0 + float(np.max(np.abs(vals)))
        if float(np.max(gap)) > _SYM_TOL * scale:
            report.issues.append(f"symmetry violation {name}")
    return report


# s-rows per kernel call of the positivity audit
_AUDIT_ROWS = 64


def _triangle_min(kern: TwoTimeKernel, nodes: np.ndarray) -> float:
    """Minimum of a scalar kernel over the node pairs s >= t.

    A :class:`~fbslq.kernels.LagKernel` depends on the lag s - t alone, and
    on the uniform grid the lags of the node pairs are the L node lags
    t_k - t_0, so one call reads it there.  This is the dense sweep's minimum
    bit for bit when the kernel is monotone in the lag: both minima then sit
    at lag 0 or lag T, and both routes sample those two lags exactly (s = t,
    and T - 0).  Every scenario type (constant, discounted, difference) is
    monotone; an in-code lag kernel with rate != 0 and degree 1 need not be,
    and its two minima may then differ by rounding.  Other kernels are swept
    over the triangle a block of s-rows at a time; each call samples at most
    ``_AUDIT_ROWS`` x len(nodes) points, so the audit needs O(L) memory.
    """
    if isinstance(kern, LagKernel):
        return float(np.min(kern(nodes, nodes[0])[:, 0, 0]))
    lowest = np.inf
    for a in range(0, len(nodes), _AUDIT_ROWS):
        s = nodes[a : a + _AUDIT_ROWS, None]
        t = nodes[None, : a + len(s)]
        vals = kern(s, t)[..., 0, 0]
        tri = np.arange(a, a + len(s))[:, None] >= np.arange(t.shape[1])[None, :]
        lowest = np.minimum(lowest, np.min(vals[tri]))  # a NaN sample propagates
    return float(lowest)


_DELTA_FLOOR = 1e-8  # absolute, in the units of R and N


def check_one_dim_positivity(spec: ProblemSpec) -> AssumptionReport:
    """Audit of the one-dimensional positivity assumption.

    On the grid: R(t,t), N(t,t) and D(t)^2 must admit a common positive floor
    delta >= ``_DELTA_FLOOR``, while Q(s,t), M(s,t) on the triangle and G1(t)
    must be nonnegative.  Returns the largest admissible delta found.
    """
    if not spec.is_one_dimensional():
        raise ValueError("positivity audit applies to one-dimensional specs only")
    nodes = spec.grid.nodes
    w = spec.weights
    c = spec.coeffs

    r_diag = w.R(nodes, nodes)[:, 0, 0]
    n_diag = w.N(nodes, nodes)[:, 0, 0]
    d_sq = c.D(nodes)[:, 0, 0] ** 2
    # numpy's min, unlike Python's, keeps a NaN in any position
    delta = float(np.min([r_diag.min(), n_diag.min(), d_sq.min()]))

    q_min = _triangle_min(w.Q, nodes)
    m_min = _triangle_min(w.M, nodes)
    g1_min = float(np.min(w.G1(nodes)))

    floor_ok = delta >= _DELTA_FLOOR
    nonneg_ok = np.min([q_min, m_min, g1_min]) >= -1e-12
    return AssumptionReport(
        name="one_dim_positivity",
        passed=bool(floor_ok and nonneg_ok),
        empirical_constant=delta,
        details={
            "delta": delta,
            "delta_floor": _DELTA_FLOOR,
            "min_R_diag": float(r_diag.min()),
            "min_N_diag": float(n_diag.min()),
            "min_D_squared": float(d_sq.min()),
            "min_Q": q_min,
            "min_M": m_min,
            "min_G1": g1_min,
        },
    )
