"""Monte-Carlo simulation of the controlled forward-backward system.

Forward paths are Euler-Maruyama; backward components are never regressed
but constructed exactly from the decoupling fields,

    Y = P2 X (+ spike correction),   Z = P2 (C_Th X + chi D v),

which the linear structure makes exact.  The spike correction solves a small
auxiliary linear ODE per perturbation width.

Randomness is counter-based: normals come from independent Philox streams
keyed by (seed, path-block), drawn in (step, path) order inside each fixed
8192-path block.  Chunked or streamed execution therefore reproduces the
bundle API bit for bit, and a spike simulation with v = 0 equals its paired
closed-loop simulation exactly.

Cost quadrature is trapezoidal in time, applied interval by interval with
one-sided limits: the control (and hence Z) is frozen at its interval value,
matching both the Euler dynamics and the closed-left/open-right indicator
convention of the spike window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import OneTimeField, Strategy
from .problem import ProblemSpec
from .riccati import (
    P2Field,
    characterization_residual_from_fields,
    gain_denominator_numerator,
    solve_p1,
    solve_p3,
)

__all__ = [
    "BLOCK_PATHS",
    "SimConfig",
    "SpikeSpec",
    "PathBundle",
    "CostEstimate",
    "SpikeRow",
    "SpikeReport",
    "simulate_closed_loop",
    "simulate_spike",
    "build_controls",
    "evaluate_cost",
    "spike_test",
    "perturbation_scaling",
    "bsde_residual_check",
]

BLOCK_PATHS = 8192  # paths per RNG block; fixed so chunking cannot reorder draws


@dataclass(frozen=True)
class SimConfig:
    paths: int = 100_000
    seed: int = 0
    sub_steps: int = 1
    t_start: float = 0.0
    x0: float | np.ndarray = 1.0

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("paths must be positive")
        if self.sub_steps < 1:
            raise ValueError("sub_steps must be a positive integer")

    def x0_vector(self, n: int) -> np.ndarray:
        x = np.asarray(self.x0, dtype=float).reshape(-1)
        if x.size == 1 and n > 1:
            x = np.full(n, float(x[0]))
        if x.size != n:
            raise ValueError(f"x0 has {x.size} entries, state dimension is {n}")
        return x


@dataclass(frozen=True)
class SpikeSpec:
    v: float | np.ndarray = 1.0
    epsilons: tuple = tuple(2.0 ** (-j) for j in range(3, 11))

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.size == 0 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ValueError("epsilons must be a strictly decreasing positive sequence")

    def v_vector(self, k: int) -> np.ndarray:
        v = np.asarray(self.v, dtype=float).reshape(-1)
        if v.size == 1 and k > 1:
            v = np.full(k, float(v[0]))
        if v.size != k:
            raise ValueError(f"v has {v.size} entries, control dimension is {k}")
        return v


@dataclass(frozen=True)
class PathBundle:
    """Simulated ensemble on the coarse nodes from t_start to T.

    ``Z[:, r]`` holds the interval value on [s_r, s_{r+1}) (left limit at the
    terminal node).  ``spike_steps`` is the perturbation width in coarse grid
    steps (0 for a closed-loop bundle).
    """

    spec: ProblemSpec
    theta: Strategy
    p2: P2Field
    t_index: int
    x0: np.ndarray
    X: np.ndarray  # (paths, range_nodes, n)
    Y: np.ndarray  # (paths, range_nodes, m)
    Z: np.ndarray  # (paths, range_nodes, m)
    increments: np.ndarray  # (paths, fine_steps)
    sub_steps: int
    seed: int
    spike_v: np.ndarray | None = None
    spike_steps: int = 0
    p7v: np.ndarray | None = None  # (range_nodes, m): spike coupling field times v

    @property
    def paths(self) -> int:
        return self.X.shape[0]

    @property
    def range_nodes(self) -> int:
        return self.X.shape[1]

    @property
    def t_start(self) -> float:
        return self.spec.grid.nodes[self.t_index]


@dataclass(frozen=True)
class CostEstimate:
    estimate: float
    stderr: float
    paths: int


@dataclass(frozen=True)
class SpikeRow:
    eps_requested: float
    eps_used: float
    delta: float
    stderr: float
    theory_quadratic: float
    theory_first_order: float


@dataclass
class SpikeReport:
    t: float
    v: np.ndarray
    paths: int
    seed: int
    rows: list[SpikeRow] = field(default_factory=list)
    liminf_pass: bool = False
    limit_converged: bool = False
    first_order_estimate: float = float("nan")

    def summary(self) -> dict:
        return {
            "t": self.t,
            "v": self.v.tolist(),
            "paths": self.paths,
            "seed": self.seed,
            "liminf_pass": self.liminf_pass,
            "limit_converged": self.limit_converged,
            "first_order_estimate": self.first_order_estimate,
            "rows": [
                {
                    "eps_requested": r.eps_requested,
                    "eps_used": r.eps_used,
                    "delta": r.delta,
                    "stderr": r.stderr,
                    "theory_quadratic": r.theory_quadratic,
                    "theory_first_order": r.theory_first_order,
                }
                for r in self.rows
            ],
        }


def _philox_normals(seed: int, block: int, steps: int, width: int) -> np.ndarray:
    """Standard normals (steps, width) from the stream keyed by (seed, block)."""
    key = np.array([np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF), np.uint64(block)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal((steps, width))


def _blocks(paths: int):
    start = 0
    block = 0
    while start < paths:
        width = min(BLOCK_PATHS, paths - start)
        yield block, start, width
        block += 1
        start += width


class _SimPrep:
    """Deterministic per-run arrays shared by all simulation entry points."""

    def __init__(self, spec: ProblemSpec, theta: Strategy, p2: P2Field, cfg: SimConfig):
        grid = spec.grid
        self.spec, self.theta, self.cfg = spec, theta, cfg
        self.i0 = grid.index_of(cfg.t_start)
        self.n_coarse = grid.steps - self.i0
        if self.n_coarse < 1:
            raise ValueError("t_start must lie strictly before the horizon")
        self.sub = cfg.sub_steps
        self.h = grid.h
        self.hf = grid.h / self.sub
        self.F = self.n_coarse * self.sub
        nodes = grid.nodes[self.i0 :]
        self.nodes = nodes  # (range_nodes,)
        n, m, k = spec.dims.n, spec.dims.m, spec.dims.k
        self.n, self.m, self.k = n, m, k
        self.x0 = cfg.x0_vector(n)

        c = spec.coeffs
        fine_t = grid.nodes[self.i0] + self.hf * np.arange(self.F)
        iv = self.i0 + np.arange(self.F) // self.sub  # coarse interval per fine step
        th = theta.values
        self.a_fine = c.A(fine_t) + c.B(fine_t) @ th[iv]  # (F, n, n)
        self.c_fine = c.C(fine_t) + c.D(fine_t) @ th[iv]
        self.b_fine = c.B(fine_t)  # (F, n, k)
        self.d_fine = c.D(fine_t)

        # Coarse-interval stage data for costs and decoupled Z values.
        left_t, right_t = nodes[:-1], nodes[1:]
        th_iv = th[self.i0 : self.i0 + self.n_coarse]
        self.theta_iv = th_iv  # (n_coarse, k, n)
        self.ct_left = c.C(left_t) + c.D(left_t) @ th_iv
        self.ct_right = c.C(right_t) + c.D(right_t) @ th_iv
        self.d_left = c.D(left_t)
        self.d_right = c.D(right_t)

        self.p2_range = p2.data[self.i0 :]  # (range_nodes, m, n)
        self.p2 = p2

    def spike_fine_mask(self, eps_steps: int) -> np.ndarray:
        mask = np.zeros(self.F)
        mask[: eps_steps * self.sub] = 1.0
        return mask

    def spike_node_mask(self, eps_steps: int) -> np.ndarray:
        """chi at coarse interval r (closed left, open right)."""
        mask = np.zeros(self.n_coarse)
        mask[:eps_steps] = 1.0
        return mask


def _solve_p7(spec: ProblemSpec, p2: P2Field, i0: int, eps_steps: int, v: np.ndarray):
    """Spike coupling field on the range nodes: nonzero only on [t, t + eps).

    Backward RK4 of  dP7/ds = -(Chat P7 + chi (P2 B + Bhat + Dhat P2 D)) v
    with P7(T) = 0; the source is constant per interval (the indicator is
    aligned with whole grid steps), so only the window intervals integrate.
    The stages read P2 at the nodes and midpoints carried by ``p2``.
    """
    grid = spec.grid
    m, k = spec.dims.m, spec.dims.k
    range_nodes = grid.steps - i0 + 1
    out = np.zeros((range_nodes, m))
    if eps_steps <= 0:
        return out
    h = grid.h
    c = spec.coeffs
    p2_nodes, p2_mids = p2.data, p2.mids

    def source(time, p2val):
        sv = (p2val @ c.B(time) + c.Bhat(time) + c.Dhat(time) @ p2val @ c.D(time)) @ v
        return sv  # (m,)

    p = np.zeros(m)
    for j in range(i0 + eps_steps - 1, i0 - 1, -1):
        s0, s1 = grid.nodes[j], grid.nodes[j + 1]
        sm = 0.5 * (s0 + s1)
        ch0, chm, ch1 = c.Chat(s0), c.Chat(sm), c.Chat(s1)
        w0 = source(s0, p2_nodes[j])
        wm = source(sm, p2_mids[j])
        w1 = source(s1, p2_nodes[j + 1])

        def rhs(pv, ch, w):
            return -(ch @ pv + w)

        k1 = rhs(p, ch1, w1)
        k2 = rhs(p - 0.5 * h * k1, chm, wm)
        k3 = rhs(p - 0.5 * h * k2, chm, wm)
        k4 = rhs(p - h * k3, ch0, w0)
        p = p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[j - i0] = p
    return out


def _forward_block(prep: _SimPrep, normals: np.ndarray, chi_fine: np.ndarray, bv: np.ndarray, dv: np.ndarray):
    """Euler-Maruyama for one block; yields (node_index, X, dW_sum_of_interval).

    ``normals`` is (F, width); chi_fine masks the spike source per fine step.
    Yields the state at every coarse node including the first.
    """
    width = normals.shape[1]
    x = np.broadcast_to(prep.x0, (width, prep.n)).copy()
    sqrt_hf = np.sqrt(prep.hf)
    yield 0, x, None
    for r in range(prep.n_coarse):
        dw_coarse = np.zeros(width)
        for s in range(prep.sub):
            ell = r * prep.sub + s
            dw = normals[ell] * sqrt_hf
            dw_coarse += dw
            drift = x @ prep.a_fine[ell].T
            diff = x @ prep.c_fine[ell].T
            if chi_fine[ell]:
                drift = drift + bv[ell]
                diff = diff + dv[ell]
            x = x + drift * prep.hf + diff * dw[:, None]
        yield r + 1, x, dw_coarse


def _spike_sources(prep: _SimPrep, v: np.ndarray, eps_steps: int):
    chi = prep.spike_fine_mask(eps_steps)
    bv = prep.b_fine @ v  # (F, n)
    dv = prep.d_fine @ v
    return chi, bv, dv


def simulate_closed_loop(
    spec: ProblemSpec, theta: Strategy, p2: P2Field, cfg: SimConfig
) -> PathBundle:
    """Paths of the closed-loop system with decoupled backward components."""
    return _simulate_bundle(spec, theta, p2, cfg, v=None, eps_steps=0)


def simulate_spike(
    spec: ProblemSpec,
    theta: Strategy,
    p2: P2Field,
    cfg: SimConfig,
    spike: SpikeSpec,
    eps: float,
) -> PathBundle:
    """Paths under the spike-perturbed control chi_[t, t+eps) v + Theta X.

    Uses the same Brownian increments as the paired closed-loop bundle (same
    seed); ``eps`` is snapped to a whole number of coarse grid steps and must
    be at least one step.
    """
    grid = spec.grid
    steps = int(round(eps / grid.h))
    if steps < 1 or eps < grid.h * (1 - 1e-9):
        raise ValueError("eps must be at least one grid step")
    i0 = grid.index_of(cfg.t_start)
    if i0 + steps > grid.steps:
        raise ValueError("spike window extends past the horizon")
    v = spike.v_vector(spec.dims.k)
    return _simulate_bundle(spec, theta, p2, cfg, v=v, eps_steps=steps)


def _simulate_bundle(spec, theta, p2, cfg, v, eps_steps) -> PathBundle:
    prep = _SimPrep(spec, theta, p2, cfg)
    vvec = np.zeros(prep.k) if v is None else v
    chi, bv, dv = _spike_sources(prep, vvec, eps_steps)
    p7v = _solve_p7(spec, p2, prep.i0, eps_steps, vvec)  # (range_nodes, m)

    R = prep.n_coarse + 1
    paths = cfg.paths
    X = np.empty((paths, R, prep.n))
    increments = np.empty((paths, prep.F))
    for block, start, width in _blocks(paths):
        normals = _philox_normals(cfg.seed, block, prep.F, width)
        increments[start : start + width] = (normals * np.sqrt(prep.hf)).T
        for r, x, _ in _forward_block(prep, normals, chi, bv, dv):
            X[start : start + width, r] = x

    # Decoupled backward components at the coarse nodes.
    Y = np.einsum("rmn,prn->prm", prep.p2_range, X) + p7v[None, :, :]
    Z = np.empty((paths, R, prep.m))
    node_chi = prep.spike_node_mask(eps_steps)
    for r in range(prep.n_coarse):
        zc = X[:, r] @ prep.ct_left[r].T
        if node_chi[r]:
            zc = zc + prep.d_left[r] @ vvec
        Z[:, r] = zc @ prep.p2_range[r].T
    # Terminal node: left limit of the last interval.
    zc = X[:, -1] @ prep.ct_right[-1].T
    if node_chi[-1]:
        zc = zc + prep.d_right[-1] @ vvec
    Z[:, -1] = zc @ prep.p2_range[-1].T

    return PathBundle(
        spec=spec,
        theta=theta,
        p2=p2,
        t_index=prep.i0,
        x0=prep.x0,
        X=X,
        Y=Y,
        Z=Z,
        increments=increments,
        sub_steps=cfg.sub_steps,
        seed=cfg.seed,
        spike_v=None if v is None else vvec,
        spike_steps=eps_steps,
        p7v=p7v,
    )


def build_controls(spec: ProblemSpec, bundle: PathBundle) -> np.ndarray:
    """Interval-value control paths u_j = chi_j v + Theta_j X_j, shape (paths, nodes, k).

    The terminal column repeats the last interval's rule at T and never enters
    the cost quadrature.
    """
    th_iv = bundle.theta.values[bundle.t_index : bundle.t_index + bundle.range_nodes - 1]
    u = np.empty((bundle.paths, bundle.range_nodes, spec.dims.k))
    u[:, :-1] = np.einsum("rkn,prn->prk", th_iv, bundle.X[:, :-1])
    u[:, -1] = bundle.X[:, -1] @ th_iv[-1].T
    if bundle.spike_v is not None and bundle.spike_steps > 0:
        u[:, : bundle.spike_steps] += bundle.spike_v
    return u


def _quad_form(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<W x, x> over the trailing axis; leading axes broadcast."""
    return np.einsum("...i,ij,...j->...", x, w, x)


def evaluate_cost(
    spec: ProblemSpec, bundle: PathBundle, control_paths: np.ndarray, t: float
) -> CostEstimate:
    """Monte-Carlo cost estimate at the bundle's deterministic start.

    Interval-wise trapezoid with one-sided limits for the control and Z
    terms; kernels are evaluated at (s, t).  Returns the plain-mean estimate
    (the conditional expectation at a deterministic start) and its standard
    error.
    """
    grid = spec.grid
    if grid.index_of(t) != bundle.t_index:
        raise ValueError("cost must be evaluated at the bundle's start time")
    if control_paths.shape != (bundle.paths, bundle.range_nodes, spec.dims.k):
        raise ValueError("control path array has the wrong shape")
    costs = _pathwise_costs(spec, bundle, control_paths, t)
    est = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / np.sqrt(bundle.paths)) if bundle.paths > 1 else 0.0
    return CostEstimate(estimate=est, stderr=stderr, paths=bundle.paths)


def _pathwise_costs(spec, bundle, control_paths, t) -> np.ndarray:
    grid = spec.grid
    w = spec.weights
    h = grid.h
    nodes = grid.nodes[bundle.t_index :]
    R = bundle.range_nodes
    qk = w.Q(nodes, t)  # (R, n, n)
    rk = w.R(nodes, t)
    mk = w.M(nodes, t)
    nk = w.N(nodes, t)
    g1 = w.G1(t)
    g2 = w.G2(t)

    qx = np.einsum("pri,rij,prj->pr", bundle.X, qk, bundle.X)
    my = np.einsum("pri,rij,prj->pr", bundle.Y, mk, bundle.Y)
    run = np.trapezoid(qx, dx=h, axis=1) + np.trapezoid(my, dx=h, axis=1)

    # Control and Z are interval-frozen: trapezoid the kernel only.
    u_iv = control_paths[:, :-1]
    rk_iv = 0.5 * (rk[:-1] + rk[1:])
    run += h * np.einsum("pri,rij,prj->p", u_iv, rk_iv, u_iv)

    z_left = bundle.Z[:, :-1]
    run += 0.5 * h * np.einsum("pri,rij,prj->p", z_left, nk[:-1], z_left)
    z_right = _interval_z_right(spec, bundle)
    run += 0.5 * h * np.einsum("pri,rij,prj->p", z_right, nk[1:], z_right)

    total = run + _quad_form(bundle.X[:, -1], g1) + _quad_form(bundle.Y[:, 0], g2)
    return 0.5 * total


def _interval_z_right(spec, bundle) -> np.ndarray:
    """Right-endpoint Z values per interval under the interval's (chi, Theta)."""
    grid = spec.grid
    i0 = bundle.t_index
    nodes = grid.nodes[i0:]
    right_t = nodes[1:]
    c = spec.coeffs
    th_iv = bundle.theta.values[i0 : i0 + bundle.range_nodes - 1]
    ct_right = c.C(right_t) + c.D(right_t) @ th_iv  # (R-1, n, n)
    zc = np.einsum("rij,prj->pri", ct_right, bundle.X[:, 1:])
    if bundle.spike_v is not None and bundle.spike_steps > 0:
        dv = c.D(right_t[: bundle.spike_steps]) @ bundle.spike_v
        zc[:, : bundle.spike_steps] += dv
    p2r = bundle.p2.data[i0 + 1 :]
    return np.einsum("rmi,pri->prm", p2r, zc)


# ---------------------------------------------------------------------------
# Streaming engines: spike ladder statistics without materializing bundles.
# ---------------------------------------------------------------------------


class _LadderRun:
    """Simultaneous closed-loop + spike-variant simulation, one pass per block.

    Variant 0 is the unperturbed system; variant q >= 1 applies the spike of
    ``eps_steps[q-1]`` coarse steps.  All variants share each block's normals
    (common random numbers).
    """

    def __init__(self, spec, theta, p2, cfg, v: np.ndarray, eps_steps: list[int], t: float):
        self.prep = _SimPrep(spec, theta, p2, cfg)
        self.spec, self.cfg = spec, cfg
        self.t = t
        self.v = v
        self.eps_steps = eps_steps
        self.V = 1 + len(eps_steps)
        prep = self.prep

        self.chi_fine = np.zeros((self.V, prep.F))
        self.chi_node = np.zeros((self.V, prep.n_coarse))
        self.p7v = np.zeros((self.V, prep.n_coarse + 1, prep.m))
        for q, steps in enumerate(eps_steps, start=1):
            self.chi_fine[q] = prep.spike_fine_mask(steps)
            self.chi_node[q] = prep.spike_node_mask(steps)
            self.p7v[q] = _solve_p7(spec, p2, prep.i0, steps, v)
        self.bv = prep.b_fine @ v
        self.dv = prep.d_fine @ v
        self.dv_left = prep.d_left @ v  # (n_coarse, n)
        self.dv_right = prep.d_right @ v

        w = spec.weights
        nodes = prep.nodes
        self.qk = w.Q(nodes, t)
        self.rk_iv = 0.5 * (w.R(nodes, t)[:-1] + w.R(nodes, t)[1:])
        self.mk = w.M(nodes, t)
        self.nk = w.N(nodes, t)
        self.g1 = w.G1(t)
        self.g2 = w.G2(t)

    def run(self, per_node=None):
        """Accumulate pathwise costs; optionally observe states at every node.

        ``per_node(r, X)`` receives the (V, width, n) state at coarse node r.
        Returns per-variant running sums (sum, sumsq) of the pathwise cost
        differences against variant 0, plus the plain cost sums.
        """
        prep = self.prep
        scalar = prep.n == prep.m == prep.k == 1 and per_node is None
        V = self.V
        sum_d = np.zeros(V - 1)
        sumsq_d = np.zeros(V - 1)
        sum_j = np.zeros(V)
        sumsq_j = np.zeros(V)

        y0 = prep.p2_range[0] @ prep.x0 + self.p7v[:, 0]  # (V, m)
        init_term = np.einsum("vi,ij,vj->v", y0, self.g2, y0)

        for block, start, width in _blocks(self.cfg.paths):
            normals = _philox_normals(self.cfg.seed, block, prep.F, width)
            if scalar:
                costs = self._block_costs_scalar(normals, width, init_term)
            else:
                costs = self._block_costs_generic(normals, width, init_term, per_node)
            d = costs[1:] - costs[0]
            sum_d += d.sum(axis=1)
            sumsq_d += (d**2).sum(axis=1)
            sum_j += costs.sum(axis=1)
            sumsq_j += (costs**2).sum(axis=1)
        return sum_d, sumsq_d, sum_j, sumsq_j

    def _block_costs_generic(self, normals, width, init_term, per_node):
        prep = self.prep
        V = self.V
        sqrt_hf = np.sqrt(prep.hf)
        x = np.broadcast_to(prep.x0, (V, width, prep.n)).copy()
        acc = 0.5 * prep.h * self._state_terms(0, x)
        if per_node is not None:
            per_node(0, x)
        for r in range(prep.n_coarse):
            acc += prep.h * self._control_term(r, x)
            acc += 0.5 * prep.h * self._z_term(r, x, left=True)
            for s in range(prep.sub):
                ell = r * prep.sub + s
                dw = (normals[ell] * sqrt_hf)[None, :, None]
                drift = x @ prep.a_fine[ell].T + self.chi_fine[:, ell, None, None] * self.bv[ell]
                diff = x @ prep.c_fine[ell].T + self.chi_fine[:, ell, None, None] * self.dv[ell]
                x = x + drift * prep.hf + diff * dw
            acc += 0.5 * prep.h * self._z_term(r, x, left=False)
            weight = prep.h if r + 1 < prep.n_coarse else 0.5 * prep.h
            acc += weight * self._state_terms(r + 1, x)
            if per_node is not None:
                per_node(r + 1, x)
        acc += np.einsum("vpi,ij,vpj->vp", x, self.g1, x)
        acc += init_term[:, None]
        return 0.5 * acc

    def _block_costs_scalar(self, normals, width, init_term):
        """Squeezed (V, width) arithmetic for m = n = k = 1; same quadrature."""
        prep = self.prep
        V = self.V
        h, hf = prep.h, prep.hf
        a_f = prep.a_fine[:, 0, 0]
        c_f = prep.c_fine[:, 0, 0]
        bv_f = self.bv[:, 0]
        dv_f = self.dv[:, 0]
        p2r = prep.p2_range[:, 0, 0]
        p7 = self.p7v[:, :, 0]  # (V, nodes)
        th_iv = prep.theta_iv[:, 0, 0]
        ct_l = prep.ct_left[:, 0, 0]
        ct_r = prep.ct_right[:, 0, 0]
        dv_l = self.dv_left[:, 0]
        dv_r = self.dv_right[:, 0]
        qk = self.qk[:, 0, 0]
        mk = self.mk[:, 0, 0]
        nk = self.nk[:, 0, 0]
        rk = self.rk_iv[:, 0, 0]
        g1 = self.g1[0, 0]
        vval = self.v[0]
        chi_f = self.chi_fine
        chi_n = self.chi_node

        sqrt_hf = np.sqrt(hf)
        x = np.full((V, width), prep.x0[0])

        def state(r, xx):
            y = p2r[r] * xx + p7[:, r][:, None]
            return qk[r] * xx**2 + mk[r] * y**2

        acc = 0.5 * h * state(0, x)
        for r in range(prep.n_coarse):
            u = th_iv[r] * x + (chi_n[:, r] * vval)[:, None]
            acc += (h * rk[r]) * u**2
            z = p2r[r] * (ct_l[r] * x + (chi_n[:, r] * dv_l[r])[:, None])
            acc += (0.5 * h * nk[r]) * z**2
            for s in range(prep.sub):
                ell = r * prep.sub + s
                dw = (normals[ell] * sqrt_hf)[None, :]
                drift = a_f[ell] * x + (chi_f[:, ell] * bv_f[ell])[:, None]
                diff = c_f[ell] * x + (chi_f[:, ell] * dv_f[ell])[:, None]
                x = x + drift * hf + diff * dw
            z = p2r[r + 1] * (ct_r[r] * x + (chi_n[:, r] * dv_r[r])[:, None])
            acc += (0.5 * h * nk[r + 1]) * z**2
            weight = h if r + 1 < prep.n_coarse else 0.5 * h
            acc += weight * state(r + 1, x)
        acc += g1 * x**2
        acc += init_term[:, None]
        return 0.5 * acc

    def _state_terms(self, r, x):
        qx = np.einsum("vpi,ij,vpj->vp", x, self.qk[r], x)
        y = x @ self.prep.p2_range[r].T + self.p7v[:, r][:, None, :]
        my = np.einsum("vpi,ij,vpj->vp", y, self.mk[r], y)
        return qx + my

    def _control_term(self, r, x):
        u = np.einsum("kn,vpn->vpk", self.prep.theta_iv[r], x)
        u = u + self.chi_node[:, r, None, None] * self.v
        return np.einsum("vpi,ij,vpj->vp", u, self.rk_iv[r], u)

    def _z_term(self, r, x, left: bool):
        ct = self.prep.ct_left[r] if left else self.prep.ct_right[r]
        dvv = self.dv_left[r] if left else self.dv_right[r]
        p2 = self.prep.p2_range[r] if left else self.prep.p2_range[r + 1]
        nkr = self.nk[r] if left else self.nk[r + 1]
        zc = x @ ct.T + self.chi_node[:, r, None, None] * dvv
        z = zc @ p2.T
        return np.einsum("vpi,ij,vpj->vp", z, nkr, z)


def _snap_eps(grid, i0: int, epsilons) -> list[tuple[float, int]]:
    """Snap each requested eps to whole coarse steps, at least one, inside [t, T]."""
    out = []
    max_steps = grid.steps - i0
    for eps in epsilons:
        steps = max(1, int(round(eps / grid.h)))
        steps = min(steps, max_steps)
        out.append((float(eps), steps))
    return out


def spike_test(
    spec: ProblemSpec,
    theta: Strategy,
    p2: P2Field,
    cfg: SimConfig,
    spike: SpikeSpec,
    t: float,
    p1_diag: OneTimeField | None = None,
    p3_diag: OneTimeField | None = None,
    residual: OneTimeField | None = None,
) -> SpikeReport:
    """Monte-Carlo test of the equilibrium inequality at time t.

    For every eps in the (snapped) ladder, Delta(eps) = (J(u^eps) - J(u))/eps
    is estimated with common random numbers.  The report carries the liminf
    flag (every Delta >= -3 stderr) and compares the smallest-eps estimate
    against the expansion limit: the quadratic form built from the Riccati
    diagonal plus the first-order characterization-residual term.
    """
    grid = spec.grid
    cfg = SimConfig(paths=cfg.paths, seed=cfg.seed, sub_steps=cfg.sub_steps, t_start=t, x0=cfg.x0)
    i0 = grid.index_of(t)
    v = spike.v_vector(spec.dims.k)
    ladder = _snap_eps(grid, i0, spike.epsilons)

    if p1_diag is None or p3_diag is None:
        p1_diag = solve_p1(spec, theta).diagonal()
        p3_diag = solve_p3(spec, theta, p2).diagonal()
    lam, _ = gain_denominator_numerator(spec, p1_diag, p3_diag, p2)
    lam_t = lam[i0]
    quad_theory = 0.5 * float(v @ lam_t @ v)
    if residual is None:
        residual = characterization_residual_from_fields(spec, p1_diag, p3_diag, p2, theta)
    x0 = cfg.x0_vector(spec.dims.n)
    first_theory = float(v @ residual.data[i0] @ x0)

    run = _LadderRun(spec, theta, p2, cfg, v, [steps for _, steps in ladder], t)
    sum_d, sumsq_d, _, _ = run.run()
    paths = cfg.paths

    report = SpikeReport(t=t, v=v, paths=paths, seed=cfg.seed)
    for q, (eps_req, steps) in enumerate(ladder):
        eps_used = steps * grid.h
        mean_d = sum_d[q] / paths
        var_d = max(0.0, sumsq_d[q] / paths - mean_d**2)
        se_d = np.sqrt(var_d / max(1, paths - 1))
        report.rows.append(
            SpikeRow(
                eps_requested=eps_req,
                eps_used=float(eps_used),
                delta=float(mean_d / eps_used),
                stderr=float(se_d / eps_used),
                theory_quadratic=quad_theory,
                theory_first_order=first_theory,
            )
        )
    report.liminf_pass = bool(all(r.delta >= -3.0 * r.stderr for r in report.rows))
    tail = min(report.rows, key=lambda r: r.eps_used)
    report.limit_converged = bool(
        abs(tail.delta - (quad_theory + first_theory)) <= 3.0 * tail.stderr
    )
    report.first_order_estimate = float(tail.delta - quad_theory)
    return report


def perturbation_scaling(
    spec: ProblemSpec,
    theta: Strategy,
    p2: P2Field,
    cfg: SimConfig,
    spike: SpikeSpec,
    t: float,
) -> list[dict]:
    """Per-eps moments E sup|X^eps - X|^2 and E[sup|Y^eps - Y|^2 + int|Z^eps - Z|^2].

    Streaming companion of the spike test, used to regress the perturbation
    growth rate against eps (slope one in log-log).
    """
    grid = spec.grid
    cfg = SimConfig(paths=cfg.paths, seed=cfg.seed, sub_steps=cfg.sub_steps, t_start=t, x0=cfg.x0)
    i0 = grid.index_of(t)
    v = spike.v_vector(spec.dims.k)
    ladder = _snap_eps(grid, i0, spike.epsilons)
    run = _LadderRun(spec, theta, p2, cfg, v, [steps for _, steps in ladder], t)
    prep = run.prep
    state = {}

    def per_node(r, x):
        dx = x[1:] - x[0]
        dxn = np.einsum("vpi,vpi->vp", dx, dx)
        dy = dx @ prep.p2_range[r].T + run.p7v[1:, r][:, None, :]
        dyn = np.einsum("vpi,vpi->vp", dy, dy)
        if r == 0:
            state["mx"] = dxn
            state["my"] = dyn
            state["iz"] = np.zeros_like(dxn)
        else:
            np.maximum(state["mx"], dxn, out=state["mx"])
            np.maximum(state["my"], dyn, out=state["my"])
        if r < prep.n_coarse:
            zc = dx @ prep.ct_left[r].T + run.chi_node[1:, r, None, None] * run.dv_left[r]
            dz = zc @ prep.p2_range[r].T
            state["iz"] += prep.h * np.einsum("vpi,vpi->vp", dz, dz)
        else:
            state["sum_x"] = state.get("sum_x", 0.0) + state["mx"].sum(axis=1)
            state["sum_yz"] = state.get("sum_yz", 0.0) + (state["my"] + state["iz"]).sum(axis=1)

    run.run(per_node=per_node)
    sup_x = state["sum_x"] / cfg.paths
    sup_yz = state["sum_yz"] / cfg.paths
    return [
        {
            "eps_requested": eps_req,
            "eps_used": steps * grid.h,
            "ex_sup_dx2": float(sup_x[q]),
            "ex_sup_dy2_int_dz2": float(sup_yz[q]),
        }
        for q, (eps_req, steps) in enumerate(ladder)
    ]


def bsde_residual_check(spec: ProblemSpec, theta: Strategy, p2: P2Field, cfg: SimConfig) -> float:
    """Root-mean-square accumulated defect of the discrete backward equation.

    Along closed-loop paths with (Y, Z) = (P2 X, P2 C_Th X), the one-step
    defects of the Y-equation are summed over the horizon and the RMS over
    paths is returned; first-order in the fine step, so doubling ``sub_steps``
    halves it.
    """
    prep = _SimPrep(spec, theta, p2, cfg)
    grid = spec.grid
    c = spec.coeffs

    # P2 on the fine grid: exact at the nodes and midpoints that ``p2``
    # carries, linearly interpolated elsewhere.
    p2_nodes, p2_mids = p2.data, p2.mids
    half_times = np.empty(2 * grid.steps + 1)
    half_times[0::2] = grid.nodes
    half_times[1::2] = grid.midpoints
    half_vals = np.empty((2 * grid.steps + 1,) + p2_nodes.shape[1:])
    half_vals[0::2] = p2_nodes
    half_vals[1::2] = p2_mids

    fine_t = grid.nodes[prep.i0] + prep.hf * np.arange(prep.F + 1)
    flat = half_vals.reshape(len(half_times), -1)
    p2_fine = np.stack(
        [np.interp(fine_t, half_times, flat[:, j]) for j in range(flat.shape[1])], axis=1
    ).reshape((prep.F + 1,) + p2_nodes.shape[1:])

    iv = prep.i0 + np.arange(prep.F) // prep.sub
    th = theta.values
    fine_left = fine_t[:-1]
    ahat_f = c.Ahat(fine_left) + c.Bhat(fine_left) @ th[iv]
    chat_f = c.Chat(fine_left)
    dhat_f = c.Dhat(fine_left)
    ct_f = c.C(fine_left) + c.D(fine_left) @ th[iv]
    p2ct_f = p2_fine[:-1] @ ct_f  # (F, m, n)

    sq_sum = 0.0
    count = 0
    sqrt_hf = np.sqrt(prep.hf)
    for block, start, width in _blocks(cfg.paths):
        normals = _philox_normals(cfg.seed, block, prep.F, width)
        x = np.broadcast_to(prep.x0, (width, prep.n)).copy()
        cum = np.zeros((width, prep.m))
        y = x @ p2_fine[0].T
        for ell in range(prep.F):
            dw = normals[ell] * sqrt_hf
            z = x @ p2ct_f[ell].T
            driver = x @ ahat_f[ell].T + y @ chat_f[ell].T + z @ dhat_f[ell].T
            x_next = x + (x @ prep.a_fine[ell].T) * prep.hf + (x @ prep.c_fine[ell].T) * dw[:, None]
            y_next = x_next @ p2_fine[ell + 1].T
            cum += y_next - y + driver * prep.hf - z * dw[:, None]
            x, y = x_next, y_next
        sq_sum += float(np.sum(np.einsum("pi,pi->p", cum, cum)))
        count += width
    return float(np.sqrt(sq_sum / count))
