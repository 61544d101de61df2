"""Scalar equilibrium gain via a windowed contraction iteration.

The one-dimensional problem is rewritten as an integral system: with the
second moment of the closed-loop transition

    lam(s, t) = E[Phi(s, t)^2] = exp( int_t^s (2 A_Th(r) + C_Th(r)^2) dr ),

the diagonal field obeys

    p1t(t) = G1(t) lam(T, t)
             + int_t^T [Q(s,t) + Th^2 R(s,t) + p2t^2 M(s,t)
                        + C_Th^2 p2t^2 N(s,t)] lam(s, t) ds,

and the gain update is the one of :func:`~fbslq.riccati.feedback_map`, with
p1t in the place of P1(t;t) + P3(t;t) in Lambda and Gamma, so that
Lambda = R(s,s) + D^2 (p1t + N(s,s) p2t^2) and

    Th+(s) = -Lambda(s)^+ Gamma(s) + (1 - Lambda(s)^+ Lambda(s)) theta0(s).

Using the exact exponential for E[Phi^2] removes all sampling noise from the
fixed point; Monte-Carlo only appears as an external cross-check.  The map is
iterated window by window from the terminal time; a window is halved whenever
its observed contraction ratio exceeds ``_CONTRACTION_TARGET``.

The gain after a window [lo, hi] is final while the window iterates, and so
are P2 and the p1t recursion state at node stop = min(hi + 1, L - 1).  Each
iteration therefore integrates only the intervals lo..stop - 1, from that
frozen state, in time proportional to the window width; the window's last
map application, at its converged gain, yields the state at lo, which it
hands to the next window.  The first window starts from the terminal state.
Every backward step is the one a whole-grid integration would take, so the
gain is the same to the bit, and so are P2 and p1t at the solved gain, which
the windows' last applications leave in the workspace's buffers.  A given
gain fills them by one whole-grid integration (:func:`assemble_solution`);
both read their solution off them.

The integral is a trapezoid over the grid.  When Q, R, M and N are lag
kernels (constant, discounted, difference) it is one backward recursion over
their factors with rho_i = exp(E_{i+1} - E_i), E the cumulative exponent, so
p1t costs O(L) and no exponent spans the horizon.  Table and callable kernels
take the dense quadrature over L x L weight tables instead; it reads P2 on
the whole tail, which the windows keep in a full-length buffer.  Its exponent
is summed backward from T, so exp(E_j - E_i) reads only intervals after t_i,
whose gains are final once the window of t_i has converged.

Where Lambda(s) == 0, :func:`~fbslq.matrixkit.pinv` sets Lambda^+ to 0 and
the projector 1 - Lambda^+ Lambda is exactly 1, so the update passes theta0
through; elsewhere the projector is exactly 0 and theta0 drops out.
:meth:`_Workspace.solution` records these pass-through nodes in the
diagnostics, from this Lambda at the solved gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import OneTimeField, Strategy, interval_gain
from .problem import ProblemSpec, check_one_dim_positivity
from .riccati import ConstraintReport, P2Field, _diag_weights, _feedback, _integrate_p2, _lambda_gamma
from .riccati import _p2_samples, _transport, check_constraints, two_time_diagonals

__all__ = [
    "SolverConfig",
    "WindowDiagnostics",
    "SolverDiagnostics",
    "EquilibriumSolution",
    "EquilibriumError",
    "NonContractiveError",
    "NoConvergenceError",
    "AssumptionViolatedError",
    "assemble_solution",
    "solve_equilibrium",
]


class EquilibriumError(RuntimeError):
    """Base class for solver failures."""


class NonContractiveError(EquilibriumError):
    """A window kept expanding differences even at the minimum width."""


class NoConvergenceError(EquilibriumError):
    """The iteration cap was reached before the tolerance."""


class AssumptionViolatedError(EquilibriumError):
    """The positivity precondition failed and enforcement was requested."""


_MAX_ITERATIONS = 200  # map applications per window before NoConvergenceError
_CONTRACTION_TARGET = 0.5  # a window whose observed contraction ratio exceeds this is halved


@dataclass(frozen=True)
class SolverConfig:
    """Options of :func:`solve_equilibrium`.

    ``check_assumptions`` runs :func:`~fbslq.problem.check_one_dim_positivity`,
    whose floor ``_DELTA_FLOOR`` is absolute, in the units of R and N, while
    Theta* does not change when all six weights are scaled by c > 0: the smoke
    weights scaled by 1e-9 fail the audit.  The pass-through has no floor, so
    with the audit waived such a problem solves to the unscaled Theta*.
    """

    fp_tolerance: float = 1e-10
    initial_window: float | None = None  # defaults to horizon / 8
    damping: float = 1.0
    check_assumptions: bool = True

    def __post_init__(self):
        if not 0.0 < self.fp_tolerance < np.inf:
            raise ValueError("fp_tolerance must be positive and finite")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.initial_window is not None and not 0.0 < self.initial_window < np.inf:
            raise ValueError("initial_window must be positive and finite")


@dataclass
class WindowDiagnostics:
    lo: int
    hi: int
    iterations: int
    final_residual: float
    max_contraction_ratio: float
    halvings: int


@dataclass
class SolverDiagnostics:
    windows: list[WindowDiagnostics] = field(default_factory=list)
    consistency_gap: float = float("nan")
    passthrough_nodes: list[int] = field(default_factory=list)
    fp_tolerance: float = float("nan")

    def summary(self) -> dict:
        return {
            "num_windows": len(self.windows),
            "iterations_per_window": [w.iterations for w in self.windows],
            "final_residuals": [w.final_residual for w in self.windows],
            "contraction_ratios": [w.max_contraction_ratio for w in self.windows],
            "halvings": [w.halvings for w in self.windows],
            "window_nodes": [[w.lo, w.hi] for w in self.windows],
            "consistency_gap": self.consistency_gap,
            "passthrough_nodes": self.passthrough_nodes,
            "fp_tolerance": self.fp_tolerance,
        }


@dataclass(frozen=True)
class EquilibriumSolution:
    """The gain and what its readers read, from :func:`solve_equilibrium` or :func:`assemble_solution`.

    P2, p1t (``p1_tilde``, the integral route's P1(t;t) + P3(t;t)), the
    diagonals P1(t;t) and P3(t;t), Lambda (``lam``) and the residual Gamma +
    Lambda Theta.  The full two-time triangles come from
    :func:`~fbslq.riccati.solve_p1` and :func:`~fbslq.riccati.solve_p3` on request.
    """

    spec: ProblemSpec
    theta_star: Strategy
    p1_tilde: OneTimeField
    p1_diag: OneTimeField
    p2: P2Field
    p3_diag: OneTimeField
    lam: OneTimeField
    residual: OneTimeField
    constraint_report: ConstraintReport
    diagnostics: SolverDiagnostics


def _require_scalar(spec: ProblemSpec):
    if not spec.is_one_dimensional():
        raise ValueError("the equilibrium solver handles m = n = k = 1 only")


def _increments(A, B, C, D, th, h: float) -> np.ndarray:
    """Per-interval trapezoid of 2 A_Th + C_Th^2 from flat node samples."""
    th_l, th_r = interval_gain(th, 0, len(th) - 1, (0.0, 1.0)).T
    g_l = 2.0 * (A[:-1] + B[:-1] * th_l) + (C[:-1] + D[:-1] * th_l) ** 2
    g_r = 2.0 * (A[1:] + B[1:] * th_r) + (C[1:] + D[1:] * th_r) ** 2
    return 0.5 * h * (g_l + g_r)


def _exponent(A, B, C, D, th, h: float) -> np.ndarray:
    """Cumulative per-interval trapezoid of 2 A_Th + C_Th^2 from flat node samples, summed
    backward from 0 at the last node, so E_j - E_i (j >= i) reads only the intervals from i on."""
    e = np.zeros(len(th))
    np.cumsum(-_increments(A, B, C, D, th, h)[::-1], out=e[-2::-1])
    return e


@dataclass(frozen=True)
class _Tail:
    """The frozen state at node ``node`` that the integration of the nodes before it starts from.

    ``p2`` is P2(t_node); ``row`` is the p1t suffix-sum row [transport | factor
    sums] of :func:`~fbslq.riccati._transport` there.  It is None at T, where
    the row is the terminal [1 | 0], and on the dense route, which has none.
    """

    node: int
    p2: np.ndarray
    row: np.ndarray | None


class _Workspace:
    """Precomputed node samples for the scalar integral system.

    With lag kernels (constant, discounted, difference) p1t is a suffix
    recursion over their factors in O(L); otherwise the four weights are
    tabulated on the triangle s >= t of the L x L node grid for the dense
    quadrature, which reads P2 at every node after the window from the
    buffer ``p2t`` that :meth:`integrate` fills.  :meth:`integrate` also
    keeps P2 at the midpoints and p1t, so after the last window of a solve,
    or one whole-grid integration of a given gain, the buffers hold them at
    that gain, and :meth:`solution` reads them off.
    """

    def __init__(self, spec: ProblemSpec):
        _require_scalar(spec)
        self.spec = spec
        self.h, self.L = spec.grid.h, spec.grid.num_nodes
        nodes = spec.grid.nodes
        w = spec.weights

        self.p2_samples = _p2_samples(spec)  # read by every P2 integration
        self.diag = _diag_weights(spec)  # read by every Lambda and Gamma, and the exponent
        self.A, self.B, self.C, self.D, self.G1 = (
            self.diag[name][:, 0, 0] for name in ("A", "B", "C", "D", "G1")
        )
        self.p2t = np.zeros(self.L)
        self.p2_mids = np.zeros(self.L - 1)
        self.p1t = np.zeros(self.L)

        self.factors = w.lag_factors()
        if self.factors is not None:
            self.shifts = {name: lag.shift(self.h) for name, lag in self.factors.items()}
            return
        # Only s >= t is read, and a weight may overflow below it; zeros there.
        ss, tt = np.meshgrid(nodes, nodes, indexing="ij")
        tri = ss >= tt

        def table(kern):
            tab = np.zeros((self.L, self.L))
            tab[tri] = kern(ss[tri], tt[tri])[..., 0, 0]
            return tab

        self.tables = {name: table(getattr(w, name)) for name in ("Q", "R", "M", "N")}

    def terminal(self) -> _Tail:
        """The state at T: P2 = H and the terminal suffix-sum row."""
        return _Tail(self.L - 1, self.spec.coeffs.H, None)

    # -- integral-route fields -------------------------------------------------

    def span_p1_tilde(self, th, p2t, lo, tail: _Tail):
        """p1t at nodes lo..tail.node, from the state ``tail``, and the suffix-sum row at lo.

        ``p2t`` holds P2 by node index; the factor route reads it on
        lo..tail.node, the dense quadrature on lo..T.
        """
        if self.factors is None:
            return self._dense_p1_tilde(th, p2t, lo, tail.node), None
        return self._factor_p1_tilde(th, p2t, lo, tail)

    def _end_weights(self, th, p2t, lo, stop) -> dict:
        """The factors that multiply Q, R, M and N at both ends of intervals lo..stop - 1,
        by weight name: 1, Th^2, P2^2 and C_Th^2 P2^2, each (left, right)."""
        th_l, th_r = interval_gain(th, lo, stop, (0.0, 1.0)).T
        p2_l, p2_r = p2t[lo:stop] ** 2, p2t[lo + 1 : stop + 1] ** 2
        c_l = self.C[lo:stop] + self.D[lo:stop] * th_l
        c_r = self.C[lo + 1 : stop + 1] + self.D[lo + 1 : stop + 1] * th_r
        ones = np.ones(stop - lo)
        return {
            "Q": (ones, ones),
            "R": (th_l**2, th_r**2),
            "M": (p2_l, p2_r),
            "N": (c_l**2 * p2_l, c_r**2 * p2_r),
        }

    def _factor_p1_tilde(self, th, p2t, lo, tail):
        """p1t at nodes lo..tail.node by one suffix recursion with rho_i = exp(E_{i+1} - E_i).

        Interval j adds h/2 (f(t_j, t_i) lam(t_j, t_i) + f(t_{j+1}, t_i) lam(t_{j+1}, t_i))
        to node i <= j; with each weight's lag factors that is u_j S^(j-i) b(0),
        carried from node to node by ``riccati._transport`` from ``tail.row``.
        """
        stop = tail.node
        span = slice(lo, stop + 1)
        rho = np.exp(_increments(self.A[span], self.B[span], self.C[span], self.D[span], th[span], self.h))
        blocks = []
        for name, (w_l, w_r) in self._end_weights(th, p2t, lo, stop).items():
            coef = self.factors[name].coefs[:, 0, 0]
            shift = self.shifts[name]
            u = 0.5 * self.h * (np.multiply.outer(w_l, coef) + np.multiply.outer(rho * w_r, coef @ shift))
            blocks.append((u[:, None, :], shift))
        transport, heads, row = _transport(rho[:, None, None], blocks, tail.row)
        return self.G1[span] * transport[:, 0, 0] + sum(head[:, 0] for head in heads), row

    def _dense_p1_tilde(self, th, p2t, lo, stop) -> np.ndarray:
        """The same quadrature over the L x L weight tables, at nodes lo..stop.

        Only intervals j >= lo enter, and the transport exp(E_j - E_i) is
        taken on the triangle j >= i alone: below it the exponent can
        overflow, and the terms there are zero, not inf * 0.
        """
        expo = _exponent(self.A, self.B, self.C, self.D, th, self.h)
        cols = slice(lo, stop + 1)
        # f = Q + Th^2 R + P2^2 M + C_Th^2 P2^2 N at the left and right ends, summed in that order
        f_l = f_r = None
        for name, (w_l, w_r) in self._end_weights(th, p2t, lo, self.L - 1).items():
            tab = self.tables[name]
            t_l, t_r = w_l[:, None] * tab[lo:-1, cols], w_r[:, None] * tab[lo + 1 :, cols]
            f_l, f_r = (t_l, t_r) if f_l is None else (f_l + t_l, f_r + t_r)
        # upper[j - lo, i - lo]: interval j contributes to the integral from t_i
        upper = np.arange(lo, self.L - 1)[:, None] >= np.arange(lo, stop + 1)[None, :]
        e_cols = expo[cols][None, :]
        lam_l = np.exp(expo[lo:-1, None] - e_cols, out=np.zeros(upper.shape), where=upper)
        lam_r = np.exp(expo[lo + 1 :, None] - e_cols, out=np.zeros(upper.shape), where=upper)
        contrib = np.where(upper, 0.5 * self.h * (f_l * lam_l + f_r * lam_r), 0.0)
        terminal = self.G1[cols] * np.exp(expo[-1] - expo[cols])
        return terminal + contrib.sum(axis=0)

    def integrate(self, th, lo, tail: _Tail) -> _Tail:
        """P2 and p1t of the gain ``th`` into the buffers at nodes lo..tail.node, and the state at lo.

        Only the intervals lo..tail.node - 1 are integrated, from ``tail``,
        the state at tail.node under gains that ``th`` keeps after it.
        Overflow leaves non-finite values, which every reader checks for, so
        the float warnings carry no extra information and are silenced.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _integrate_p2(self.spec, self.p2_samples, th[:, None, None], (lo, tail.node), tail.p2)
            self.p2t[lo : tail.node + 1] = vals[0::2, 0, 0]
            self.p2_mids[lo : tail.node] = vals[1::2, 0, 0]
            self.p1t[lo : tail.node + 1], row = self.span_p1_tilde(th, self.p2t, lo, tail)
        return _Tail(lo, vals[0], row)

    def apply_map(self, th, theta0, lo, hi, tail: _Tail):
        """One application of the window map: new values of nodes lo..hi of th, and the state at lo.

        :meth:`integrate` runs from ``tail``, the state at a node
        tail.node >= hi whose later gains are final; the returned state at
        lo is the tail of the next window.  Overflow in the transported
        weights produces non-finite Lambda or Gamma, reported here as an
        error before pinv sees them.
        """
        next_tail = self.integrate(th, lo, tail)
        cols = slice(lo, hi + 1)
        diag = {name: v[cols] for name, v in self.diag.items()}
        with np.errstate(over="ignore", invalid="ignore"):
            lam, gam = _lambda_gamma(diag, self.p1t[cols, None, None], self.p2t[cols, None, None])
            if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(gam))):
                raise EquilibriumError("non-finite intermediate values in the gain update")
            new_vals = _feedback(lam, gam, theta0[cols, None, None])
        return new_vals[:, 0, 0], next_tail

    def solution(self, theta: Strategy, diagnostics: SolverDiagnostics) -> EquilibriumSolution:
        """The solution of the gain whose P2 and p1t the buffers hold: the matrix-route
        diagonals, and Lambda and Gamma formed once for the constraint audit and the residual.

        RK4 on the Riccati route can blow up where the integral route stays
        finite (a step far outside its stability region), and a gain read
        from a file can make every field overflow; either raises
        :class:`EquilibriumError`.  The consistency gap max |p1t - P1(t;t) -
        P3(t;t)| between the two routes, which agree in the limit, and the
        pass-through nodes are written into ``diagnostics``.
        """
        spec, grid = self.spec, self.spec.grid
        p2 = P2Field(grid, self.p2t[:, None, None].copy(), self.p2_mids[:, None, None].copy())
        p1t = OneTimeField.from_flat(grid, self.p1t)
        with np.errstate(over="ignore", invalid="ignore"):
            p1d, p3d = two_time_diagonals(spec, theta, p2)
        if not all(np.all(np.isfinite(a)) for a in (p2.data, p2.mids, p1t.data, p1d.data, p3d.data)):
            raise EquilibriumError("non-finite Riccati fields at the gain")
        diagnostics.consistency_gap = float(np.max(np.abs(p1t.flat() - p1d.data[:, 0, 0] - p3d.data[:, 0, 0])))
        lam, gam = _lambda_gamma(self.diag, p1d.data + p3d.data, p2.data)
        # The pass-through nodes are where the gain update sent theta0 through,
        # and the update reads Lambda with p1t in the place of P1 + P3.  The
        # audit's Lambda differs from that one by D^2 times the consistency gap,
        # so it can be nonzero where the update's is exactly 0, or the reverse.
        update_lam, _ = _lambda_gamma(self.diag, p1t.data, p2.data)
        diagnostics.passthrough_nodes = np.flatnonzero(update_lam[:, 0, 0] == 0.0).tolist()
        return EquilibriumSolution(
            spec=spec,
            theta_star=theta,
            p1_tilde=p1t,
            p1_diag=p1d,
            p2=p2,
            p3_diag=p3d,
            lam=OneTimeField(grid, lam),
            residual=OneTimeField(grid, gam + lam @ theta.data),
            constraint_report=check_constraints(spec, lam, gam),
            diagnostics=diagnostics,
        )


def assemble_solution(
    spec: ProblemSpec, theta_star: Strategy, diagnostics: SolverDiagnostics
) -> EquilibriumSolution:
    """The solution of a given scalar gain, as :func:`solve_equilibrium` builds it at Theta*:
    one whole-grid integration, in the backward steps of the solver's windows."""
    ws = _Workspace(spec)
    ws.integrate(theta_star.flat(), 0, ws.terminal())
    return ws.solution(theta_star, diagnostics)


def solve_equilibrium(
    spec: ProblemSpec, theta0: Strategy, config: SolverConfig = SolverConfig()
) -> EquilibriumSolution:
    """Compute the scalar equilibrium gain by windowed Picard iteration.

    Windows tile [0, T] backward from the terminal time.  On each window the
    map is iterated to ``fp_tolerance`` in sup norm with fresh zero initial
    values; a window whose observed contraction ratio exceeds
    ``_CONTRACTION_TARGET`` is halved and retried.  The converged gain is then
    run back through the matrix Riccati route and the constraint checks.
    """
    _require_scalar(spec)
    if config.check_assumptions:
        report = check_one_dim_positivity(spec)
        if not report.passed:
            raise AssumptionViolatedError(
                f"positivity assumption failed: {report.details}"
            )

    ws = _Workspace(spec)
    grid = spec.grid
    L = grid.num_nodes
    th0 = theta0.flat()
    th = np.zeros(L)

    window_time = config.initial_window if config.initial_window is not None else grid.horizon / 8
    # no window is wider than the grid; the cap keeps a huge finite window's step count finite
    base_steps = max(1, int(round(min(window_time / grid.h, L))))

    diagnostics = SolverDiagnostics(fp_tolerance=config.fp_tolerance)
    hi = L - 1
    tail = ws.terminal()  # the state at node min(hi + 1, L - 1), handed on by the window after hi
    while hi >= 0:
        w_steps = min(base_steps, hi + 1)
        halvings = 0
        while True:
            lo = max(0, hi - w_steps + 1)
            th[lo : hi + 1] = 0.0
            prev_change = None
            max_ratio = 0.0
            iterations = 0
            contractive = True
            while iterations < _MAX_ITERATIONS:
                iterations += 1
                new_vals, _ = ws.apply_map(th, th0, lo, hi, tail)
                change = float(np.max(np.abs(new_vals - th[lo : hi + 1])))
                th[lo : hi + 1] = (1.0 - config.damping) * th[
                    lo : hi + 1
                ] + config.damping * new_vals
                if prev_change is not None and prev_change > 10.0 * config.fp_tolerance:
                    ratio = change / prev_change
                    max_ratio = max(max_ratio, ratio)
                    if ratio > _CONTRACTION_TARGET:
                        contractive = False
                        break
                if change <= config.fp_tolerance:
                    break
                prev_change = change
            else:
                raise NoConvergenceError(
                    f"window nodes [{lo}, {hi}] did not reach {config.fp_tolerance} "
                    f"within {_MAX_ITERATIONS} iterations"
                )
            if contractive:
                resid_vals, next_tail = ws.apply_map(th, th0, lo, hi, tail)
                residual = float(np.max(np.abs(resid_vals - th[lo : hi + 1])))
                diagnostics.windows.append(
                    WindowDiagnostics(
                        lo=lo,
                        hi=hi,
                        iterations=iterations,
                        final_residual=residual,
                        max_contraction_ratio=max_ratio,
                        halvings=halvings,
                    )
                )
                hi, tail = lo - 1, next_tail
                break
            if w_steps == 1:
                raise NonContractiveError(f"window nodes [{lo}, {hi}] is not a contraction even at one grid step")
            w_steps //= 2
            halvings += 1

    # Each window's last map application, at its converged gain, left P2
    # and p1t on its nodes in the workspace's buffers.
    return ws.solution(Strategy.from_flat(grid, th), diagnostics)
