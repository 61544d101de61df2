"""Test oracles and fixtures: code that only the tests read.

Problems that only the tests solve, and independent second routes to
quantities that the package computes one way:

- ``trivial_problem``, ``steep_example_2_5_problem``,
  ``matrix_reduction_problem`` and ``matrix_reduction_scenario``: instances
  the tests solve besides the built-in presets (the scalar zero-gain
  problem, Example 2.5 with a steep running weight for the order of
  accuracy, and a two-dimensional classical reduction for the matrix
  routes);
- ``penrose_residuals``: the four Moore-Penrose identities, the oracle of
  ``fbslq.matrixkit.pinv``; ``in_range`` and ``psd_ok``: the inclusion and
  PSD rules of ``check_constraints`` on single matrices;
- ``check_lipschitz_in_t``: an empirical audit of Lipschitz dependence of
  the weights on the initial time;
- ``second_moment_factor`` and ``fixed_point_map``: the second-moment
  factor lam(s, t) as a whole L x L field, and one window map from the
  terminal state, the oracles of the solver's factor recursion and of its
  windows' handed-on states;
- ``simulate_spike``, ``build_controls`` and ``evaluate_cost``: a spiked
  bundle (``SpikedBundle``) with materialised paths and its cost by
  vectorised trapezoids, the independent oracle of the streaming cost sums
  of the spike ladder.  It never splits the cost into parts linear and
  quadratic in v;
- ``perturbation_scaling`` and ``bsde_residual_check``: the perturbation
  moments E sup|dX|^2 and E[sup|dY|^2 + int|dZ|^2] per spike width, and the
  accumulated defect of the discrete backward equation, the estimators of
  acceptance criteria 6 and 7.  Like ``simulate_spike`` they drive the
  program's stepper (``_LadderRun.walk``) over the program's increments, so
  they test its stepping too; ``perturbations`` reads every rung's
  perturbation off the stepper;
- ``spike_fields``: Lambda and the characterization residual of a bare
  gain, which the spike tests take from a solution otherwise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from fbslq import simulate
from fbslq.equilibrium import _exponent, _require_scalar, _Workspace
from fbslq.fields import OneTimeField, Strategy, TwoTimeField, interval_gain
from fbslq.kernels import CallableFn, CallableKernel
from fbslq.matrixkit import min_eig, range_residual, specnorm
from fbslq.presets import example_2_5_problem
from fbslq.problem import AssumptionReport, ProblemSpec
from fbslq.riccati import _PSD_TOL, _RANGE_TOL, P2Field, gain_denominator_numerator, two_time_diagonals
from fbslq.scenario import _const, scenario_to_spec, trivial_scenario
from fbslq.simulate import (
    CostEstimate,
    PathBundle,
    SimConfig,
    SpikeSpec,
    _as_vector,
    _dotter,
    _ClosedLoop,
    _LadderRun,
    _mixer,
    _snap_eps,
)


# -- problems -----------------------------------------------------------------


def trivial_problem(grid_steps: int = 200) -> ProblemSpec:
    """Zero-drift scalar instance whose equilibrium gain is identically zero."""
    return scenario_to_spec(trivial_scenario(grid_steps))


def steep_example_2_5_problem(grid_steps: int = 1000) -> ProblemSpec:
    """Example 2.5 with the steep running weight q(s) = 1 + 9 s^2 and its G1.

    The vanishing-diagonal identity of the unit instance holds, since
    G1(t) = -int_t^T exp(-(T - tau)) q(tau) dtau, but the curvature of q
    makes the integrator's truncation error measurable against roundoff.
    The scenario family has no form for q, so Q and G1 are exact callables.
    """
    spec = example_2_5_problem(grid_steps)

    def steep_q(s, t):
        s = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))[0]
        return (1.0 + 9.0 * s**2)[..., None, None]

    def steep_g1(t):
        t = np.asarray(t, dtype=float)
        val = 10.0 - np.exp(-(spec.horizon - t)) * (9.0 * t**2 - 18.0 * t + 19.0)
        return (-val)[..., None, None]

    weights = dataclasses.replace(
        spec.weights, Q=CallableKernel(steep_q, (1, 1)), G1=CallableFn(steep_g1, (1, 1))
    )
    return dataclasses.replace(spec, weights=weights)


def matrix_reduction_problem(grid_steps: int = 400) -> ProblemSpec:
    """Two-dimensional classical-reduction instance for what-if gain analysis."""
    return scenario_to_spec(matrix_reduction_scenario(grid_steps))


def matrix_reduction_scenario(grid_steps: int = 400) -> dict:
    """Two-dimensional classical reduction: n = k = 2, m = 1, A nilpotent, Q = R = G1 = I."""
    eye = np.eye(2)
    return {
        "dims": {"n": 2, "m": 1, "k": 2},
        "horizon": 1.0,
        "grid_steps": grid_steps,
        "coeffs": {
            "A": _const([[0.0, 0.2], [0.0, 0.0]]),
            "B": _const(eye),
            "C": _const(np.zeros((2, 2))),
            "D": _const(eye),
            "Ahat": _const(np.zeros((1, 2))),
            "Bhat": _const(np.zeros((1, 2))),
            "Chat": _const(0.0),
            "Dhat": _const(0.0),
            "H": [[0.0, 0.0]],
        },
        "weights": {
            "Q": _const(eye),
            "R": _const(eye),
            "M": _const(0.0),
            "N": _const(0.0),
            "G1": _const(eye),
            "G2": _const(0.0),
        },
    }


# -- matrix identities --------------------------------------------------------


def penrose_residuals(m: np.ndarray, mp: np.ndarray) -> tuple[float, float, float, float]:
    """Spectral-norm residuals of the four defining identities of m-dagger."""
    r1 = specnorm(m @ mp @ m - m)
    r2 = specnorm(mp @ m @ mp - mp)
    mmp = m @ mp
    mpm = mp @ m
    r3 = specnorm(mmp - np.swapaxes(mmp, -1, -2))
    r4 = specnorm(mpm - np.swapaxes(mpm, -1, -2))
    return float(np.max(r1)), float(np.max(r2)), float(np.max(r3)), float(np.max(r4))


def in_range(mbig: np.ndarray, msmall: np.ndarray) -> bool:
    """The range-inclusion rule of ``check_constraints``: every column of msmall in range(mbig)."""
    return bool(np.all(range_residual(mbig, msmall) <= _RANGE_TOL * (1.0 + specnorm(msmall))))


def psd_ok(m: np.ndarray) -> bool:
    """The PSD rule of ``check_constraints``: the symmetric part's eigenvalues are >= -_PSD_TOL."""
    return bool(np.all(min_eig(m) >= -_PSD_TOL))


# -- standing assumptions -----------------------------------------------------


def _kernel_gap_sup(spec: ProblemSpec, t: np.ndarray, tau: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Sum of sup-norm kernel differences between initial times t and tau."""
    w = spec.weights
    total = np.zeros(t.shape)
    for kern in (w.Q, w.R, w.M, w.N):
        diff = kern(s, t) - kern(s, tau)
        total += np.max(np.abs(diff), axis=(-2, -1))
    for fn in (w.G1, w.G2):
        diff = fn(t) - fn(tau)
        total += np.max(np.abs(diff), axis=(-2, -1))
    return total


def check_lipschitz_in_t(spec: ProblemSpec, probe_count: int = 200) -> AssumptionReport:
    """Empirical audit of Lipschitz dependence on the initial time.

    Samples triples 0 <= t <= tau <= s <= T at gap scales |t - tau| from the
    grid spacing up to T/4 and reports the worst difference ratio.  The check
    fails when the ratio keeps growing as the gap shrinks toward the grid
    spacing (a Hoelder-type blow-up), or when any sample is non-finite.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be positive")
    grid = spec.grid
    T = grid.horizon
    h = grid.h
    rng = np.random.default_rng(0)  # deterministic audit

    gaps = []
    g = h
    while g <= T / 4 + 1e-15:
        gaps.append(g)
        g *= 2.0
    if not gaps:
        gaps = [h]

    per_gap = []
    for gap in gaps:
        t = rng.uniform(0.0, T - gap, size=probe_count)
        tau = t + gap
        s = tau + rng.uniform(0.0, 1.0, size=probe_count) * (T - tau)
        # Structured probes along the diagonal s = tau, where Hoelder-type
        # kernels blow up first, plus the far end s = T.
        t_det = np.linspace(0.0, T - gap, 17)
        tau_det = t_det + gap
        for offset in (0.0, 0.5, 1.0):
            t = np.concatenate([t, t_det])
            tau = np.concatenate([tau, tau_det])
            s = np.concatenate([s, tau_det + offset * (T - tau_det)])
        ratios = _kernel_gap_sup(spec, t, tau, s) / gap
        per_gap.append(float(np.max(ratios)))

    empirical = float(np.max(per_gap))
    finite = bool(np.isfinite(empirical))
    # Blow-up probe: compare the smallest gap against the next one up.
    if len(per_gap) >= 2 and per_gap[1] > 0:
        growth = per_gap[0] / per_gap[1]
    else:
        growth = 1.0
    passed = finite and growth <= 1.25
    return AssumptionReport(
        name="lipschitz_in_initial_time",
        passed=passed,
        empirical_constant=empirical,
        details={
            "gaps": [float(g) for g in gaps],
            "per_gap_constant": per_gap,
            "small_gap_growth": float(growth),
            "probe_count": int(probe_count),
        },
    )


# -- the integral route -------------------------------------------------------


def second_moment_factor(spec: ProblemSpec, theta: Strategy) -> TwoTimeField:
    """lam(s, t) = E[Phi(s, t)^2] for the scalar closed-loop transition.

    Computed as exp of the cumulative quadrature of 2 A_Th + C_Th^2 (one
    sweep, reused for all t through exponent differences); exact whenever the
    exponent quadrature is.  Only A, B, C and D are sampled, at the nodes.
    Stored as lam[i, j] = exp(E_j - E_i) on the triangle j >= i, NaN below.
    """
    _require_scalar(spec)
    c = spec.coeffs
    samples = (fn(spec.grid.nodes)[:, 0, 0] for fn in (c.A, c.B, c.C, c.D))
    expo = _exponent(*samples, theta.flat(), spec.grid.h)
    lam = np.exp(expo[None, :] - expo[:, None])
    ii, jj = np.indices(lam.shape)
    lam[jj < ii] = np.nan
    return TwoTimeField(spec.grid, lam[..., None, None])


def fixed_point_map(
    spec: ProblemSpec,
    theta: Strategy,
    theta0: Strategy,
    window: tuple[float, float],
) -> Strategy:
    """One application of the window update map on [a, b].

    The integral fields are computed from the full strategy on [a, T] (values
    right of b are read as-is) and the gain formula rewrites the nodes inside
    the window; everything else is returned unchanged.
    """
    ws = _Workspace(spec)
    lo = spec.grid.index_of(window[0])
    hi = spec.grid.index_of(window[1])
    if lo > hi:
        raise ValueError("window must satisfy a <= b")
    th = theta.flat().copy()
    th[lo : hi + 1], _ = ws.apply_map(th, theta0.flat(), lo, hi, ws.terminal())
    return Strategy.from_flat(spec.grid, th)


# -- materialised paths and their cost ----------------------------------------


@dataclasses.dataclass(frozen=True)
class SpikedBundle(PathBundle):
    """A bundle under the spike chi_[t, t+eps) v: ``spike_v`` is v,
    ``spike_steps`` the width eps in coarse grid steps, and ``p7v`` the
    spike coupling field times v on the range nodes, (range_nodes, m)."""

    spike_v: np.ndarray
    spike_steps: int
    p7v: np.ndarray


def perturbations(stepper) -> np.ndarray:
    """Every rung's d_q at the stepper's current step, (n, rungs, width), a
    new array: the open rungs' states, then Psi d_q(g) for the closed ones."""
    run = stepper.run
    k, out = stepper.open, np.empty((run.n, len(run.eps_steps), stepper.y.shape[2]))
    out[:, :k] = stepper.y[:, 1 : 1 + k]
    if k < out.shape[1]:
        _mixer(stepper.group, out[:, k:])(np.swapaxes(stepper.psi, 0, 1))
    return out


def simulate_spike(
    spec: ProblemSpec,
    theta: Strategy,
    p2: P2Field,
    cfg: SimConfig,
    spike: SpikeSpec,
    eps: float,
    t: float = 0.0,
) -> SpikedBundle:
    """Paths from time t under the spike-perturbed control chi_[t, t+eps) v + Theta X.

    Uses the same Brownian increments as the paired closed-loop bundle (same
    seed and t); ``eps`` is snapped to a whole number of coarse grid steps and
    must be at least one step.  The program's stepper carries the spike as a
    one-rung ladder, and X is the closed loop plus the rung's perturbation;
    Y and Z add the spike's P7 v and chi P2 D v to the closed loop's
    einsums in place, so that no temporary as large as X is held.  The
    increments are drawn through ``simulate._increments``, looked up at each
    call, so that a test may substitute the whole-block draw.
    """
    grid = spec.grid
    steps = int(round(eps / grid.h))
    if steps < 1 or eps < grid.h * (1 - 1e-9):
        raise ValueError("eps must be at least one grid step")
    if grid.index_of(t) + steps > grid.steps:
        raise ValueError("spike window extends past the horizon")
    v = _as_vector(spike.v, spec.dims.k, "v", "control")
    run = _LadderRun(_ClosedLoop(spec, theta, p2, cfg.sub_steps), cfg, t, v, [steps])
    X = np.empty((cfg.paths, run.n_coarse + 1, run.n))
    with simulate._increments(cfg.seed, cfg.paths, run.F, run.hf) as blocks:
        for start, width, rows in blocks:
            for ell, _, stepper in run.walk(width, rows):
                if ell % run.sub == 0:
                    X[start : start + width, ell // run.sub] = (stepper.y[:, 0] + perturbations(stepper)[:, 0]).T
    p7v, zv = run.p7v[0], np.concatenate([run.zv_left[0], run.zv_right[0, -1:]])
    Y = np.einsum("rmn,prn->prm", run.p2_range, X)
    Y += p7v
    Z = np.einsum("rmn,prn->prm", np.concatenate([run.z_left, run.z_right[-1:]]), X)
    Z += zv
    return SpikedBundle(theta=theta, p2=p2, t_index=run.i0, X=X, Y=Y, Z=Z, spike_v=v, spike_steps=steps, p7v=p7v)


def build_controls(spec: ProblemSpec, bundle: PathBundle) -> np.ndarray:
    """Interval-value control paths u_j = chi_j v + Theta_j X_j, shape (paths, nodes, k).

    Theta_j is the gain at the left end of interval j (:func:`~fbslq.fields.interval_gain`);
    the terminal column reads it at the right end and never enters the cost quadrature.
    """
    th = interval_gain(bundle.theta.data, bundle.t_index, spec.grid.steps, (0.0, 1.0))
    u = np.empty((bundle.paths, bundle.range_nodes, spec.dims.k))
    u[:, :-1] = np.einsum("rkn,prn->prk", th[:, 0], bundle.X[:, :-1])
    u[:, -1] = bundle.X[:, -1] @ th[-1, 1].T
    if isinstance(bundle, SpikedBundle):
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

    This is the independent oracle of the streaming cost sums in
    :func:`spike_test`: it evaluates materialised paths with vectorised
    trapezoids and never splits the cost into parts linear and quadratic
    in v.
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
    th = interval_gain(bundle.theta.data, i0, grid.steps, (1.0,))
    ct_right = c.C(right_t) + c.D(right_t) @ th[:, 0]  # (R-1, n, n)
    zc = np.einsum("rij,prj->pri", ct_right, bundle.X[:, 1:])
    if isinstance(bundle, SpikedBundle):
        dv = c.D(right_t[: bundle.spike_steps]) @ bundle.spike_v
        zc[:, : bundle.spike_steps] += dv
    p2r = bundle.p2.data[i0 + 1 :]
    return np.einsum("rmi,pri->prm", p2r, zc)


def per_node_z(spec, bundle) -> np.ndarray:
    """The bundle's Z by the per-node formula Z_r = (X_r C_Th' + chi D v) P2', one node at a time.

    C_Th, D v and chi are those of interval r at its left end, and of the
    last interval at its right end for the terminal node.
    """
    grid, c, i0 = spec.grid, spec.coeffs, bundle.t_index
    nodes = grid.nodes[i0:]
    th = interval_gain(bundle.theta.data, i0, grid.steps, (0.0, 1.0))
    ct = c.C(nodes) + c.D(nodes) @ np.concatenate([th[:, 0], th[-1:, 1]])
    spiked = isinstance(bundle, SpikedBundle)
    steps, v = (bundle.spike_steps, bundle.spike_v) if spiked else (0, np.zeros(spec.dims.k))
    chi = np.minimum(np.arange(len(nodes)), len(nodes) - 2) < steps  # of the interval read
    dv = chi[:, None] * (c.D(nodes) @ v)
    z = np.empty_like(bundle.Z)
    for r in range(len(nodes)):
        z[:, r] = (bundle.X[:, r] @ ct[r].T + dv[r]) @ bundle.p2.data[i0 + r].T
    return z


# -- streamed estimators on the program's stepper ---------------------------


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
    growth rate against eps (slope one in log-log).  It reads every rung's
    perturbation off the program's stepper at the coarse nodes, one RNG
    block at a time (a rung closed at its end as Psi(r) d_q(g), from the
    last close g), and computes no cost sums.
    """
    grid = spec.grid
    ladder = _snap_eps(grid, grid.index_of(t), spike.epsilons)
    v = _as_vector(spike.v, spec.dims.k, "v", "control")
    run = _LadderRun(_ClosedLoop(spec, theta, p2, cfg.sub_steps), cfg, t, v, [steps for _, steps in ladder])
    p7v = np.moveaxis(run.p7v, 2, 0)[..., None]  # (m, rungs, nodes, 1)
    zv = np.moveaxis(run.zv_left, 2, 0)[..., None]  # (m, rungs, intervals, 1): chi P2 D v
    sum_x = sum_yz = 0.0
    with simulate._increments(cfg.seed, cfg.paths, run.F, run.hf) as blocks:
        for _, width, rows in blocks:
            mx, my, iz = np.zeros((3, len(ladder), width))
            dy, dz = np.empty((2, run.m, len(ladder), width))
            for ell, _, stepper in run.walk(width, rows):
                if ell % run.sub:
                    continue
                r = ell // run.sub
                d = perturbations(stepper)  # (n, rungs, width)
                np.maximum(mx, _dotter(d, d)(), out=mx)
                _mixer(d, dy)(run.p2_range[r].T)
                dy += p7v[:, :, r]
                np.maximum(my, _dotter(dy, dy)(), out=my)
                if r < run.n_coarse:  # Z is frozen on [s_r, s_{r+1})
                    _mixer(d, dz)(run.z_left[r].T)
                    dz += zv[:, :, r]
                    iz += _dotter(dz, dz)()
            sum_x += mx.sum(axis=1)
            sum_yz += (my + run.h * iz).sum(axis=1)
    sup_x = sum_x / cfg.paths
    sup_yz = sum_yz / cfg.paths
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

    Along closed-loop paths from t = 0 with (Y, Z) = (P2 X, P2 C_Th X), the
    one-step defects of the Y-equation are summed over the horizon and the
    RMS over paths is returned; first-order in the fine step, so doubling
    ``sub_steps`` halves it.  The paths are the program's stepper, read at
    every fine step.
    """
    run = _LadderRun(_ClosedLoop(spec, theta, p2, cfg.sub_steps), cfg, 0.0, np.zeros(spec.dims.k), [])
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

    fine_t = grid.nodes[run.i0] + run.hf * np.arange(run.F + 1)
    flat = half_vals.reshape(len(half_times), -1)
    p2_fine = np.stack(
        [np.interp(fine_t, half_times, flat[:, j]) for j in range(flat.shape[1])], axis=1
    ).reshape((run.F + 1,) + p2_nodes.shape[1:])

    fine_left = fine_t[:-1]
    ahat_f = c.Ahat(fine_left) + c.Bhat(fine_left) @ run.theta_fine
    chat_f = c.Chat(fine_left)
    dhat_f = c.Dhat(fine_left)
    p2ct_f = p2_fine[:-1] @ run.c_fine  # (F, m, n)

    sq_sum = 0.0
    with simulate._increments(cfg.seed, cfg.paths, run.F, run.hf) as blocks:
        for _, width, rows in blocks:
            cum = np.zeros((width, run.m))
            for ell, dw, stepper in run.walk(width, rows):
                x = stepper.y[:, 0].T  # (width, n)
                y = x @ p2_fine[ell].T
                if ell:  # the defect of the step just taken
                    cum += y - y_prev + driver * run.hf - z * dw[:, None]
                if ell < run.F:
                    z = x @ p2ct_f[ell].T
                    driver = x @ ahat_f[ell].T + y @ chat_f[ell].T + z @ dhat_f[ell].T
                y_prev = y
            sq_sum += float(np.sum(np.einsum("pi,pi->p", cum, cum)))
    return float(np.sqrt(sq_sum / cfg.paths))


# -- spike-test inputs --------------------------------------------------------


def spike_fields(spec: ProblemSpec, theta: Strategy, p2: P2Field) -> tuple[OneTimeField, OneTimeField]:
    """``lam`` and ``residual`` of the spike tests for a gain that has no solution.

    Lambda and Gamma + Lambda Theta from the diagonals solved for ``theta``
    and its P2 ``p2``, as :func:`~fbslq.equilibrium.assemble_solution` forms
    them for a solution.
    """
    lam, gam = gain_denominator_numerator(spec, *two_time_diagonals(spec, theta, p2), p2)
    return OneTimeField(spec.grid, lam), OneTimeField(spec.grid, gam + lam @ theta.data)
