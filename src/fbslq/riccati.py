"""Backward integration of the coupled equilibrium Riccati system.

For a fixed feedback gain Theta the three fields solve, backward in s
(X^T denoting the transpose),

    dP1/ds + P1 A_Th + A_Th^T P1 + C_Th^T P1 C_Th + Q(s,t) + Th^T R(s,t) Th = 0
    dP2/ds + P2 A_Th + Ahat_Th + Chat P2 + Dhat P2 C_Th = 0
    dP3/ds + P3 A_Th + A_Th^T P3 + C_Th^T P3 C_Th
           + P2^T M(s,t) P2 + C_Th^T P2^T N(s,t) P2 C_Th = 0

with P1(T;t) = G1(t), P2(T) = H, P3(T;t) = 0.  P1 and P3 are two-time
fields, but the feedback map, the constraints and the residual read only the
diagonal P(t;t), which :func:`two_time_diagonals` returns.

The stepper is classical RK4 on the uniform grid.  Every stage evaluation
inside a step reads the gain at its stage time from
:func:`~fbslq.fields.interval_gain`, and samples coefficient functions and
kernels exactly at the stage times.  The equations are linear, so every RK4
step is a matrix map built once for all steps by :func:`_rk4_maps` (Hairer,
Norsett & Wanner, Solving ODEs I, II.1), the only RK4 stages outside the
oracle in :mod:`fbslq.verify`.  P1 and P3 share :func:`_two_time_maps`, and
two routes, which differ only in how they sum the sources, give the diagonals:

* Factor route, when Q, R, M and N are all :class:`~fbslq.kernels.LagKernel`
  (constant, discounted and difference kernels).  Each source then separates
  over a small lag basis, and P(t_i;t_i) is the transported terminal value
  plus the suffix sums sum_{j >= i} Phi_i ... Phi_{j-1} u_j S^(j-i), carried
  relative to the current node by one backward recursion
  (:func:`_transport`): O(r L) time and memory for a basis of size r.
* Dense route, for table and callable kernels: one backward sweep per grid
  node t, all sweeps (and both fields, which share one operator) advanced
  together in one stacked sweep that applies each step map to the kernels
  sampled at every (s, t).  :func:`solve_p1` and :func:`solve_p3` take this
  route for the whole triangle on request, and the tests use it as the
  oracle of the factor route.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import OneTimeField, Strategy, TwoTimeField, interval_gain
from .matrixkit import min_eig, pinv, range_residual, specnorm
from .problem import ProblemSpec

__all__ = [
    "ClosedLoopCoefficients",
    "ConstraintReport",
    "P2Field",
    "closed_loop_coefficients",
    "solve_p1",
    "solve_p2",
    "solve_p3",
    "two_time_diagonals",
    "feedback_map",
    "check_constraints",
    "characterization_residual",
]


def _require_same_grid(spec: ProblemSpec, strategy: Strategy):
    g, sg = spec.grid, strategy.grid
    if (g.horizon, g.steps) != (sg.horizon, sg.steps):
        raise ValueError("strategy grid does not match problem grid")
    want = (spec.dims.k, spec.dims.n)
    if strategy.entry_shape != want:
        raise ValueError(f"strategy entries {strategy.entry_shape}, want {want}")


@dataclass(frozen=True)
class ClosedLoopCoefficients:
    """A + B Theta and C + D Theta at the RK4 stages of every interval.

    ``*_stage[j]`` holds the matrices at the left node, midpoint and right
    node of interval j, with the gain there.
    """

    a_stage: np.ndarray  # (steps, 3, n, n): left, mid, right
    c_stage: np.ndarray  # (steps, 3, n, n)


def closed_loop_coefficients(spec: ProblemSpec, theta: Strategy) -> ClosedLoopCoefficients:
    _require_same_grid(spec, theta)
    nodes, mids = spec.grid.nodes, spec.grid.midpoints
    c = spec.coeffs
    th = interval_gain(theta.data, 0, spec.grid.steps, _STAGES)

    def stages(x, y):  # x + y Theta at the left node, midpoint and right node
        x_n, y_n, x_m, y_m = x(nodes), y(nodes), x(mids), y(mids)
        left, right = x_n[:-1] + y_n[:-1] @ th[:, 0], x_n[1:] + y_n[1:] @ th[:, 2]
        return np.stack([left, x_m + y_m @ th[:, 1], right], axis=1)

    return ClosedLoopCoefficients(a_stage=stages(c.A, c.B), c_stage=stages(c.C, c.D))


def _sym(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + np.swapaxes(p, -1, -2))


def _p1_equation(spec: ProblemSpec, theta: Strategy):
    """Terminal value G1(t) and source terms Q(s,t) + Th^T R(s,t) Th of P1.

    A source is a list of terms (weight name, X): X^T K(s,t) X, with X[j, stage]
    at the left node, midpoint and right node of interval j (None reads as
    the identity).
    """
    terms = [("Q", None), ("R", interval_gain(theta.data, 0, spec.grid.steps, _STAGES))]
    return _sym(spec.weights.G1(spec.grid.nodes)), terms


def _p3_equation(spec: ProblemSpec, clc: ClosedLoopCoefficients, p2: P2Field):
    """Terminal value 0 and source terms P2^T M P2 + (P2 C_Th)^T N (P2 C_Th) of P3.

    The node and midpoint values of ``p2``, at the gain of ``clc``, are the stage inputs.
    """
    p2s = np.stack([p2.data[:-1], p2.mids, p2.data[1:]], axis=1)
    terms = [("M", p2s), ("N", p2s @ clc.c_stage)]
    return np.zeros((spec.grid.num_nodes, spec.dims.n, spec.dims.n)), terms


def _dense_source(spec: ProblemSpec, terms):
    """``source(j, t_idx)`` of :func:`_sweep_two_time`: the terms sampled at (s, t_i)."""
    nodes, mids = spec.grid.nodes, spec.grid.midpoints

    def source(j, idx):
        s = np.array([nodes[j + 1], mids[j], nodes[j]])
        t = nodes[idx, None]
        parts = []
        for name, x in terms:
            k = getattr(spec.weights, name)(s, t)
            if x is not None:
                xs = x[j, ::-1]
                k = np.swapaxes(xs, -1, -2) @ k @ xs
            parts.append(k)
        return sum(parts[1:], parts[0])

    return source


def _sweep_two_time(spec: ProblemSpec, clc: ClosedLoopCoefficients, equations):
    """Backward RK4 of two-time equations that share the operator of ``clc``.

    ``equations`` is a sequence of (terminal, source) pairs, stacked on a
    leading axis and stepped together; ``source(j, t_idx)`` returns the
    terms W(s, t_i) of the active t-batch, (batch, 3, n, n), at s = the right
    node, midpoint and left node of interval j.  Step j applies its map of
    :func:`_two_time_maps` to each t's [vec P | vec W].  Yields (j, p) with
    p[e, i] = P_e(s_j; t_i) for i <= j, from j = steps (the terminal values)
    down to 0; each yield binds a new array, so a consumer may keep it.
    """
    steps = spec.grid.steps
    p = np.stack([terminal for terminal, _ in equations])
    yield steps, p

    e, d = len(p), p[0, 0].size
    maps = np.swapaxes(_two_time_maps(clc, spec.grid.h), -1, -2)  # (steps, 4 d, d), acting on rows
    z = np.empty((e, steps, 4, d))
    for j in range(steps - 1, -1, -1):
        idx = slice(0, j + 1)
        z[:, idx, 0] = p[:, idx].reshape(e, j + 1, d)
        z[:, idx, 1:] = np.stack([source(j, idx) for _, source in equations]).reshape(e, j + 1, 3, d)
        p = (z[:, idx].reshape(e, j + 1, 4 * d) @ maps[j]).reshape(p[:, idx].shape)
        yield j, p


def _two_time_field(spec: ProblemSpec, clc: ClosedLoopCoefficients, equation) -> TwoTimeField:
    """The whole stored triangle of one two-time equation, by the dense sweep."""
    terminal, terms = equation
    L = spec.grid.num_nodes
    data = np.full((L, L) + terminal.shape[1:], np.nan)
    for j, p in _sweep_two_time(spec, clc, [(terminal, _dense_source(spec, terms))]):
        data[: j + 1, j] = p[0]
    return TwoTimeField(spec.grid, data)


def solve_p1(spec: ProblemSpec, theta: Strategy) -> TwoTimeField:
    """Two-time state-weight field with terminal value G1(t), the whole triangle."""
    clc = closed_loop_coefficients(spec, theta)
    return _two_time_field(spec, clc, _p1_equation(spec, theta))


@dataclass(frozen=True)
class P2Field(OneTimeField):
    """P2 at the grid nodes, plus ``mids[j]``: P2 at the midpoint of interval j.

    The stage inputs of P3, of the spike coupling field and of the
    backward-equation check read the midpoints, so P2 is integrated once per
    gain and this field is passed down to all of them.
    """

    mids: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        want = (self.grid.steps,) + self.entry_shape
        if self.mids.shape != want:
            raise ValueError(f"P2 midpoint data {self.mids.shape}, want {want}")


_P2_COEFFS = ("A", "B", "C", "D", "Ahat", "Bhat", "Chat", "Dhat")
_STAGES = (0.0, 0.5, 1.0)  # an interval's RK4 stage times as fractions: left node, midpoint, right node
_QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)  # the stage times of P2's two half-steps
# Quarter-point indices (left = 0 .. right = 4) of the RK4 stages of each
# half-step: mid -> left first, then right -> mid.
_HALF_STEP_STAGES = np.array([[2, 1, 0], [4, 3, 2]])


def _p2_samples(spec: ProblemSpec) -> dict[str, np.ndarray]:
    """Open-loop coefficients at the five quarter points of every interval.

    Each entry has shape (steps, 5, r, c).  They do not depend on the gain, so
    a caller that integrates P2 for many gains samples them once.
    """
    nodes = spec.grid.nodes
    lo, hi = nodes[:-1], nodes[1:]
    times = np.stack([lo, 0.75 * lo + 0.25 * hi, 0.5 * (lo + hi), 0.25 * lo + 0.75 * hi, hi], axis=1)
    return {name: getattr(spec.coeffs, name)(times) for name in _P2_COEFFS}


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product over the two trailing axes; leading axes broadcast."""
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    lead = out.shape[:-4]
    return out.reshape(lead + (x.shape[-2] * y.shape[-2], x.shape[-1] * y.shape[-1]))


def _rk4_maps(gen: np.ndarray, force: np.ndarray, g: float) -> np.ndarray:
    """Every backward RK4 step of length g of dz/ds = -(K z + F) as one matrix.

    The equation is linear, so a step is a linear map of the start value and
    of the forcing.  Running the RK4 stages on the augmented matrix [I | 0]
    builds all steps' maps at once: ``gen[..., q, :, :]`` and
    ``force[..., q, :, :]`` are K and F at stage q (0: the step's start,
    1: its midpoint, 2: its end).  The map's first columns act on the start
    value, and each further column on the forcing that the same column of F
    carries (F is zero in its first columns).
    """
    z = np.eye(gen.shape[-1], force.shape[-1])

    def rhs(stage, z):
        return -(gen[..., stage, :, :] @ z + force[..., stage, :, :])

    k1 = rhs(0, z)
    k2 = rhs(1, z - 0.5 * g * k1)
    k3 = rhs(1, z - 0.5 * g * k2)
    k4 = rhs(2, z - g * k3)
    return z - (g / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _affine_recursion(maps: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Every z_i of z_i = maps_i [z_{i+1}; 1], backward from z_steps = ``last``.

    ``maps`` is (steps, w, w + 1) and ``last`` (w,); returns (steps + 1, w).
    The trailing 1 lets the affine step act as one matrix product.

    A scalar state (w = 1, every scalar P2) steps over Python floats: a numpy
    call per step costs more than its one multiply and one add.  The step
    ``0.0 + b + z * a`` gives the 1 x 2 matrix product bit for bit: the
    product's sum starts at +0.0, so it never returns -0.0, and this operand
    order propagates the same NaN.  For w > 1 the product (a BLAS gemv) sums
    each row in its own order, which no float loop reproduces, so the matrix
    product stays.  It runs as ``np.dot`` over rows zipped once up front:
    that is the same gemv as ``np.matmul``, bit for bit, without indexing
    three views and dispatching a ufunc at every step.
    """
    steps, w = maps.shape[:2]
    if w == 1:
        a, b = maps[:, 0, 0].tolist(), maps[:, 0, 1].tolist()
        z = float(last[0])
        out = [z] * (steps + 1)
        for i in range(steps - 1, -1, -1):
            z = 0.0 + b[i] + z * a[i]
            out[i] = z
        return np.array(out).reshape(steps + 1, 1)
    vals = np.ones((steps + 1, w + 1))
    vals[-1, :w] = last
    for m, nxt, out in zip(maps[::-1], vals[:0:-1], vals[-2::-1, :w]):
        np.dot(m, nxt, out=out)
    return vals[:, :w]


def _integrate_p2(
    spec: ProblemSpec,
    samples: dict[str, np.ndarray],
    theta_values: np.ndarray,
    span: tuple[int, int] | None = None,
    end: np.ndarray | None = None,
) -> np.ndarray:
    """P2 on the nodes lo..stop of ``span`` and the midpoints between them.

    Backward RK4, two half-steps per interval, from ``end`` = P2(t_stop);
    ``span`` defaults to the whole grid and ``end`` to H.  Every RK4
    half-step is an affine map vec(P2) -> S vec(P2) + r on the row-major
    vectorization, built by :func:`_rk4_maps` with the generator
    K = I (x) A_Th' + Chat (x) I + Dhat (x) C_Th' and the forcing
    [0 | vec(Ahat_Th)], and one backward recursion applies the maps.
    ``samples`` comes from :func:`_p2_samples`; ``theta_values`` holds the
    gain at the nodes.  Returns (2 (stop - lo) + 1, m, n): entry 2 (i - lo)
    is P2(t_i) and entry 2 (j - lo) + 1 P2 at the midpoint of interval j.
    """
    m, n = spec.dims.m, spec.dims.n
    d = m * n
    lo, stop = (0, spec.grid.steps) if span is None else span
    end = spec.coeffs.H if end is None else end
    th = interval_gain(theta_values, lo, stop, _QUARTERS)  # (w, 5, k, n)
    c = {name: v[lo:stop] for name, v in samples.items()}
    a_th = c["A"] + c["B"] @ th
    c_th = c["C"] + c["D"] @ th
    ahat_th = c["Ahat"] + c["Bhat"] @ th
    gen = (
        _kron(np.eye(m), np.swapaxes(a_th, -1, -2))
        + _kron(c["Chat"], np.eye(n))
        + _kron(c["Dhat"], np.swapaxes(c_th, -1, -2))
    )  # (w, 5, d, d)
    force = np.zeros(gen.shape[:-1] + (d + 1,))
    force[..., d] = ahat_th.reshape(ahat_th.shape[:-2] + (d,))

    # Stage q of half-step i of interval j reads quarter point _HALF_STEP_STAGES[i, q].
    gen, force = gen[:, _HALF_STEP_STAGES], force[:, _HALF_STEP_STAGES]
    maps = _rk4_maps(gen, force, 0.5 * spec.grid.h).reshape(2 * (stop - lo), d, d + 1)
    vals = _affine_recursion(maps, np.asarray(end, dtype=float).reshape(d))
    return vals.reshape(-1, m, n)


def _p2_field(spec: ProblemSpec, samples: dict[str, np.ndarray], theta_values: np.ndarray) -> P2Field:
    """P2 on the whole grid from H, as a :class:`P2Field`."""
    vals = _integrate_p2(spec, samples, theta_values)
    return P2Field(spec.grid, vals[0::2].copy(), vals[1::2].copy())


def solve_p2(spec: ProblemSpec, theta: Strategy) -> P2Field:
    """One-time coupling field with terminal value H, carrying its midpoints."""
    _require_same_grid(spec, theta)
    return _p2_field(spec, _p2_samples(spec), theta.data)


def solve_p3(spec: ProblemSpec, theta: Strategy, p2: P2Field) -> TwoTimeField:
    """Two-time field sourced by the backward-state weights; P3(T;t) = 0.

    ``p2`` is :func:`solve_p2` for the same gain.  Returns the whole triangle.
    """
    clc = closed_loop_coefficients(spec, theta)
    return _two_time_field(spec, clc, _p3_equation(spec, clc, p2))


def _two_time_maps(clc: ClosedLoopCoefficients, h: float) -> np.ndarray:
    """[Phi | G_right | G_mid | G_left] of every backward RK4 step of the two-time equation.

    Step j maps vec P(s_{j+1}) and the sources at the right node, midpoint and
    left node of interval j to vec P(s_j), symmetrized.  The dense sweep
    applies it to sampled sources, the factor route to lag-factor sums.
    Shape (steps, n^2, 4 n^2).
    """
    a_t = np.swapaxes(clc.a_stage[:, ::-1], -1, -2)  # A_Th' at the right node, midpoint, left node
    c_t = np.swapaxes(clc.c_stage[:, ::-1], -1, -2)
    n = a_t.shape[-1]
    d = n * n
    eye = np.eye(n)
    gen = _kron(eye, a_t) + _kron(a_t, eye) + _kron(c_t, c_t)
    force = np.zeros((3, d, 4 * d))
    for q in range(3):
        force[q, :, (q + 1) * d : (q + 2) * d] = np.eye(d)
    maps = _rk4_maps(gen, force, h)
    transpose = np.arange(d).reshape(n, n).T.reshape(d)
    return 0.5 * (maps + maps[:, transpose])


def _suffix_sums(phi: np.ndarray, u: np.ndarray, shift: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Every R_i of R_i = u_i + phi_i R_{i+1} shift, backward from R_steps = ``last``.

    ``phi`` is (steps, d, d), ``u`` (steps, d, r), ``shift`` (r, r) and
    ``last`` (d, r); returns (steps + 1, d, r).  A scalar field (d = 1) folds
    each step into one matrix product [phi_i shift' | u_i] on [R_{i+1}; 1].
    """
    steps, d, r = u.shape
    # Every p1t of the fixed point is a d = 1 recursion over one window.  With
    # the plain loop alone solve-2000 took 0.203 s against 0.162 s (perfbench
    # wall_s medians, ten alternating pairs, 2 vCPU).  For d > 1 the fold
    # would hold (d r)^2 floats a step.
    if d == 1:
        maps = np.empty((steps, r, r + 1))
        np.multiply(phi[:, 0, 0, None, None], shift.T, out=maps[:, :, :r])
        maps[:, :, r] = u[:, 0]
        return _affine_recursion(maps, last[0])[:, None, :]
    out = np.empty((steps + 1, d, r))
    out[-1] = last
    for i in range(steps - 1, -1, -1):
        out[i] = u[i] + phi[i] @ out[i + 1] @ shift
    return out


def _transport(phi: np.ndarray, blocks, last: np.ndarray | None = None):
    """Terminal transport and suffix sums of lag-factor sources, at every node.

    ``phi[i]`` maps a value at node i + 1 to node i; each block (u, S) holds
    the per-interval source u[i] (d x r) over a lag basis with h-shift S.
    Returns T with T[i] = phi_i ... phi_{steps-1}, and per block the first
    column of R_i = sum_{j >= i} phi_i ... phi_{j-1} u_j S^(j-i), which is the
    block's contribution at node i because b(0) is the first unit vector.
    All blocks and the transport advance in one recursion, whose row
    [T | R] starts from ``last`` (default: the terminal row [I | 0]) and is
    returned, third, at the first node: a later span of nodes ending there
    starts from it.
    """
    steps, d = phi.shape[:2]
    width = d + sum(u.shape[-1] for u, _ in blocks)
    u_all = np.zeros((steps, d, width))
    shift = np.eye(width)
    heads = []
    col = d
    for u, s in blocks:
        r = u.shape[-1]
        u_all[:, :, col : col + r] = u
        shift[col : col + r, col : col + r] = s
        heads.append(col)
        col += r
    sums = _suffix_sums(phi, u_all, shift, np.eye(d, width) if last is None else last)
    return sums[:, :, :d], [sums[:, :, c] for c in heads], sums[0]


def _factor_diagonals(
    spec: ProblemSpec, clc: ClosedLoopCoefficients, equations, factors
) -> list[np.ndarray]:
    """P(t;t) of each (terminal, terms) equation by the factor route; O(r L).

    ``factors`` maps each weight name to its :class:`~fbslq.kernels.LagKernel`.
    """
    grid, n = spec.grid, spec.dims.n
    d, h = n * n, grid.h
    maps = _two_time_maps(clc, h)
    phi = maps[:, :, :d]
    g_right, g_mid, g_left = (maps[:, :, (q + 1) * d : (q + 2) * d] for q in range(3))
    blocks, owner = [], []
    for e, (_, terms) in enumerate(equations):
        for name, x in terms:
            lag = factors[name]
            if x is None:
                u = np.broadcast_to(lag.coefs, (1, 3) + lag.coefs.shape)
            else:
                u = np.swapaxes(x, -1, -2)[:, :, None] @ lag.coefs @ x[:, :, None]
            u = np.swapaxes(u.reshape(u.shape[:3] + (d,)), -1, -2)  # (steps, 3, d, r): vec of each factor
            src = (
                g_left @ u[:, 0]
                + g_mid @ u[:, 1] @ lag.shift(0.5 * h)
                + g_right @ u[:, 2] @ lag.shift(h)
            )
            blocks.append((src, lag.shift(h)))
            owner.append(e)
    transport, heads, _ = _transport(phi, blocks)
    out = []
    for e, (terminal, _) in enumerate(equations):
        diag = (transport @ terminal.reshape(-1, d, 1))[..., 0]
        diag = sum((head for head, o in zip(heads, owner) if o == e), diag)
        out.append(diag.reshape(-1, n, n))
    return out


def two_time_diagonals(
    spec: ProblemSpec, theta: Strategy, p2: P2Field
) -> tuple[OneTimeField, OneTimeField]:
    """P1(t;t) and P3(t;t), without an L x L array.

    ``p2`` is :func:`solve_p2` for the same gain.  Lag kernels take the
    factor route; otherwise one stacked dense sweep keeps only the diagonal,
    whose values are the diagonals of :func:`solve_p1` and :func:`solve_p3`
    bit for bit.
    """
    clc = closed_loop_coefficients(spec, theta)
    equations = (_p1_equation(spec, theta), _p3_equation(spec, clc, p2))
    factors = spec.weights.lag_factors()
    if factors is not None:
        p1, p3 = _factor_diagonals(spec, clc, equations, factors)
        return OneTimeField(spec.grid, p1), OneTimeField(spec.grid, p3)
    stacked = [(terminal, _dense_source(spec, terms)) for terminal, terms in equations]
    diag = np.empty((len(equations),) + equations[0][0].shape)
    for j, p in _sweep_two_time(spec, clc, stacked):
        diag[:, j] = p[:, j]
    return OneTimeField(spec.grid, diag[0]), OneTimeField(spec.grid, diag[1])


def _diag_weights(spec: ProblemSpec):
    """The node samples that Lambda and Gamma read, and the A and G1 of the scalar integral route."""
    nodes = spec.grid.nodes
    w, c = spec.weights, spec.coeffs
    return {
        "R": w.R(nodes, nodes),
        "N": w.N(nodes, nodes),
        "G1": w.G1(nodes),
        "G2": w.G2(nodes),
        "A": c.A(nodes),
        "B": c.B(nodes),
        "C": c.C(nodes),
        "D": c.D(nodes),
        "Bhat": c.Bhat(nodes),
        "Dhat": c.Dhat(nodes),
    }


def _lambda_gamma(d, psum: np.ndarray, p2v: np.ndarray):
    """Lambda and Gamma from the samples ``d`` of :func:`_diag_weights`, psum = P1 + P3 and P2.

        Lambda(t) = R(t,t) + D'(P1(t;t) + P3(t;t) + P2' N(t,t) P2) D
        Gamma(t)  = B'(P1 + P3) + D'(P1 + P3 + P2' N P2) C
                    + (Bhat' + B' P2' + D' P2' Dhat') G2 P2
    """
    p2t = np.swapaxes(p2v, -1, -2)
    dmat, bmat, cmat = d["D"], d["B"], d["C"]
    dT = np.swapaxes(dmat, -1, -2)
    bT = np.swapaxes(bmat, -1, -2)
    p2np2 = p2t @ d["N"] @ p2v
    core = psum + p2np2
    lam = d["R"] + dT @ core @ dmat
    coupling = (
        np.swapaxes(d["Bhat"], -1, -2) + bT @ p2t + dT @ p2t @ np.swapaxes(d["Dhat"], -1, -2)
    )
    gam = bT @ psum + dT @ core @ cmat + coupling @ d["G2"] @ p2v
    return lam, gam


def gain_denominator_numerator(
    spec: ProblemSpec, p1_diag: OneTimeField, p3_diag: OneTimeField, p2: OneTimeField
):
    """The pair (Lambda, Gamma) of :func:`_lambda_gamma` entering the feedback map and the constraints."""
    return _lambda_gamma(_diag_weights(spec), p1_diag.data + p3_diag.data, p2.data)


def _feedback(lam: np.ndarray, gam: np.ndarray, theta0: np.ndarray) -> np.ndarray:
    """-Lambda^+ Gamma + N theta0, with the null-space projector N = I - Lambda^+ Lambda.

    At 1 x 1, N is exactly 1 where pinv sets Lambda^+ = 0 and 0 elsewhere,
    not 1 - (1/x) x, so theta0 drops out bit for bit wherever Lambda != 0.
    """
    lam_p = pinv(lam)
    if lam.shape[-2:] == (1, 1):
        null = np.where(lam_p == 0.0, 1.0, 0.0)
    else:
        null = np.eye(lam.shape[-1]) - lam_p @ lam
    return -lam_p @ gam + null @ theta0


def feedback_map(
    spec: ProblemSpec,
    p1_diag: OneTimeField,
    p3_diag: OneTimeField,
    p2: OneTimeField,
    theta0: Strategy,
) -> Strategy:
    """Gain update Theta = -Lambda^+ Gamma + (I - Lambda^+ Lambda) theta0.

    When Lambda(t) is invertible the theta0 term vanishes and the result is
    parameter-free; a singular Lambda routes the unresolved directions through
    the theta0 pass-through.
    """
    lam, gam = gain_denominator_numerator(spec, p1_diag, p3_diag, p2)
    return Strategy(spec.grid, _feedback(lam, gam, theta0.data))


@dataclass
class ConstraintReport:
    """Node-wise audit of the three solvability constraints."""

    l2_pass: bool
    l2_sup_norm: float
    l2_grid_norm: float
    range_ok_per_node: np.ndarray
    range_worst_residual: float
    range_worst_node: int
    psd_ok_per_node: np.ndarray
    psd_worst_eig: float
    psd_worst_node: int

    @property
    def range_pass(self) -> bool:
        return bool(np.all(self.range_ok_per_node))

    @property
    def psd_pass(self) -> bool:
        return bool(np.all(self.psd_ok_per_node))

    @property
    def all_pass(self) -> bool:
        return self.l2_pass and self.range_pass and self.psd_pass

    def summary(self) -> dict:
        return {
            "l2_pass": self.l2_pass,
            "l2_sup_norm": self.l2_sup_norm,
            "l2_grid_norm": self.l2_grid_norm,
            "range_pass": self.range_pass,
            "range_worst_residual": self.range_worst_residual,
            "range_worst_node": self.range_worst_node,
            "range_fail_count": int(np.size(self.range_ok_per_node) - np.sum(self.range_ok_per_node)),
            "psd_pass": self.psd_pass,
            "psd_worst_eig": self.psd_worst_eig,
            "psd_worst_node": self.psd_worst_node,
        }


_RANGE_TOL = 1e-8  # inclusion tolerance of check_constraints, relative to 1 + |Gamma|
_PSD_TOL = 1e-10  # PSD tolerance of check_constraints on the smallest eigenvalue


def check_constraints(spec: ProblemSpec, lam: np.ndarray, gam: np.ndarray) -> ConstraintReport:
    """Audit the square-integrability, range-inclusion and PSD constraints of Lambda and Gamma.

    ``lam`` and ``gam`` are the node stacks of :func:`gain_denominator_numerator`.
    The membership check reports sup and grid-quadrature L2 norms of
    Lambda^+ Gamma and passes iff both are finite (true measure-theoretic
    membership is not machine-checkable).  The a.e. constraints are enforced
    at every grid node; one failing node fails the check.  Gamma lies in the
    range of Lambda where the projector residual is at most ``_RANGE_TOL``
    (1 + |Gamma|), and Lambda is PSD where its smallest symmetric eigenvalue
    is at least -``_PSD_TOL``.
    """
    lam_p = pinv(lam)
    feedback = lam_p @ gam
    norms = specnorm(feedback)
    sup = float(np.max(norms))
    l2 = float(np.sqrt(np.trapezoid(norms**2, spec.grid.nodes)))
    l2_pass = bool(np.isfinite(sup) and np.isfinite(l2))

    resid = range_residual(lam, gam)
    bound = _RANGE_TOL * (1.0 + specnorm(gam))
    range_ok = resid <= bound
    worst = int(np.argmax(resid - bound))

    eigs = min_eig(lam)
    psd_ok = eigs >= -_PSD_TOL
    psd_worst = int(np.argmin(eigs))

    return ConstraintReport(
        l2_pass=l2_pass,
        l2_sup_norm=sup,
        l2_grid_norm=l2,
        range_ok_per_node=range_ok,
        range_worst_residual=float(np.max(resid)),
        range_worst_node=worst,
        psd_ok_per_node=psd_ok,
        psd_worst_eig=float(eigs[psd_worst]),
        psd_worst_node=psd_worst,
    )


def characterization_residual(spec: ProblemSpec, theta: Strategy) -> OneTimeField:
    """Node-wise defect Gamma(t) + Lambda(t) Theta(t) of the equilibrium characterization equation.

    The field vanishes exactly at a true closed-loop equilibrium.  This solves
    the Riccati system for a gain whose fields are not at hand; a solved
    :class:`~fbslq.equilibrium.EquilibriumSolution` carries its own
    ``residual``.
    """
    p2 = solve_p2(spec, theta)
    lam, gam = gain_denominator_numerator(spec, *two_time_diagonals(spec, theta, p2), p2)
    return OneTimeField(spec.grid, gam + lam @ theta.data)
