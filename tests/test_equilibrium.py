import copy
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbslq import equilibrium, riccati
from fbslq.equilibrium import (
    AssumptionViolatedError,
    SolverConfig,
    SolverDiagnostics,
    _exponent,
    _Tail,
    _Workspace,
    assemble_solution,
    solve_equilibrium,
)
from fbslq.fields import Strategy
from fbslq.presets import (
    assumption_smoke_problem,
    classical_reduction_problem,
    example_2_5_problem,
)
from fbslq.kernels import CallableKernel, LagKernel
from fbslq.matrixkit import pinv
from fbslq.problem import _AUDIT_ROWS, validate
from fbslq.riccati import _integrate_p2, _p2_samples, solve_p2, two_time_diagonals
from fbslq.scenario import scenario_to_spec, smoke_scenario, trivial_scenario
from fbslq.verify import classical_riccati_feedback
from tests.conftest import matrix_p2_problem
from tests.oracles import (
    fixed_point_map,
    matrix_reduction_problem,
    second_moment_factor,
    steep_example_2_5_problem,
    trivial_problem,
)
from tests.test_riccati import (
    build_scalar,
    dense_kernels,
    max_rel_gap,
    zero_theta,
)


class TestSecondMomentFactor:
    def test_frozen_dynamics_gives_one(self):
        spec = build_scalar()
        lam = second_moment_factor(spec, zero_theta(spec))
        mask = lam.triangle_mask()
        assert np.allclose(lam.data[mask], 1.0)

    def test_constant_coefficients_closed_form(self):
        a, c = 0.4, -0.3
        spec = build_scalar(A=a, C=c, steps=200)
        lam = second_moment_factor(spec, zero_theta(spec))
        nodes = spec.grid.nodes
        expected = np.exp((2 * a + c * c) * (nodes[-1] - nodes))
        assert np.allclose(lam.data[:, -1, 0, 0], expected, atol=1e-6)

    def test_diagonal_is_one(self, smoke_solution):
        lam = second_moment_factor(smoke_solution.spec, smoke_solution.theta_star)
        idx = np.arange(lam.grid.num_nodes)
        assert np.array_equal(lam.data[idx, idx, 0, 0], np.ones(len(idx)))
        mask = lam.triangle_mask()
        assert np.all(lam.data[mask] > 0)

    def test_shares_the_fixed_point_exponent(self, smoke_solution):
        # Sampling only A, B, C and D gives the solver's exponent bit for bit;
        # it is summed back from T, so lam(s, 0) reads it against node 0.
        spec, th = smoke_solution.spec, smoke_solution.theta_star
        lam = second_moment_factor(spec, th)
        ws = _Workspace(spec)
        expo = _exponent(ws.A, ws.B, ws.C, ws.D, th.flat(), ws.h)
        assert np.array_equal(lam.data[0, :, 0, 0], np.exp(expo - expo[0]))


class TestP1Tilde:
    def test_zero_weights(self):
        spec = build_scalar(A=0.2)
        p1t = assemble_solution(spec, zero_theta(spec), SolverDiagnostics()).p1_tilde
        assert p1t.sup_norm() == 0.0

    def test_pure_terminal_transport(self):
        g = 0.8
        spec = build_scalar(G1=g)
        p1t = assemble_solution(spec, zero_theta(spec), SolverDiagnostics()).p1_tilde
        assert np.allclose(p1t.flat(), g, atol=1e-12)

    def test_unit_running_weight_hand_integral(self):
        spec = build_scalar(Q=1.0, steps=200)
        p1t = assemble_solution(spec, zero_theta(spec), SolverDiagnostics()).p1_tilde
        assert np.allclose(p1t.flat(), 1.0 - spec.grid.nodes, atol=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: trivial_problem(60),
        lambda: example_2_5_problem(80),
        lambda: assumption_smoke_problem(120),
        lambda: classical_reduction_problem(80),
    ])
    def test_factor_route_matches_dense_quadrature(self, build, rng):
        spec = build()
        th = 0.3 * rng.standard_normal(spec.grid.num_nodes)
        p2t = solve_p2(spec, Strategy.from_flat(spec.grid, th)).flat()
        factor, dense = _Workspace(spec), _Workspace(dense_kernels(spec))
        assert factor.factors is not None and dense.factors is None
        want = dense.span_p1_tilde(th, p2t, 0, dense.terminal())[0]
        assert max_rel_gap(factor.span_p1_tilde(th, p2t, 0, factor.terminal())[0], want) <= 1e-12
        lo, hi = spec.grid.steps // 3, spec.grid.steps // 2
        span = factor.span_p1_tilde(th, p2t, lo, factor.terminal())[0]
        assert max_rel_gap(span[: hi - lo], want[lo:hi]) <= 1e-12

    def test_dense_quadrature_finite_where_the_transport_overflows(self):
        # The problem of TestCliSolve::test_solver_failure_exits_3 at its
        # converged gain: exp(E_j - E_i) overflows below the diagonal j < i,
        # which the quadrature must not read.
        doc = trivial_scenario(100)
        for where, name, value in [("coeffs", "B", 40.0), ("weights", "Q", 1.0),
                                   ("weights", "R", 1e-4), ("weights", "N", 1e-4),
                                   ("weights", "G1", 1.0)]:
            doc[where][name] = {"type": "constant", "params": {"value": [[value]]}}
        spec = scenario_to_spec(doc)
        th = Strategy.constant(spec.grid, -39.3)
        p2t = solve_p2(spec, th).flat()
        factor, dense = _Workspace(spec), _Workspace(dense_kernels(spec))
        want = factor.span_p1_tilde(th.flat(), p2t, 0, factor.terminal())[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = dense.span_p1_tilde(th.flat(), p2t, 0, dense.terminal())[0]
        assert np.all(np.isfinite(got))
        assert max_rel_gap(got, want) <= 1e-12


def _windows(rng, steps, count=6):
    """Random node spans (lo, stop) with 0 <= lo < stop <= steps."""
    out = [(0, steps), (steps - 1, steps), (0, 1)]
    for _ in range(count):
        lo, stop = sorted(rng.choice(steps + 1, 2, replace=False))
        out.append((int(lo), int(stop)))
    return out


class TestFrozenTail:
    """A window integrated from the state handed on at its end equals the whole-grid integration."""

    @pytest.mark.parametrize("build", [
        lambda: assumption_smoke_problem(150),
        lambda: matrix_p2_problem(90),
    ], ids=["smoke", "matrix"])
    def test_p2_span_from_the_frozen_end_is_bitwise(self, build, rng):
        spec = build()
        samples = _p2_samples(spec)
        k, n = spec.dims.k, spec.dims.n
        for _ in range(3):
            th = 0.5 * rng.standard_normal((spec.grid.num_nodes, k, n))
            full = _integrate_p2(spec, samples, th)
            assert full.shape == (2 * spec.grid.steps + 1, spec.dims.m, n)
            for lo, stop in _windows(rng, spec.grid.steps):
                span = _integrate_p2(spec, samples, th, (lo, stop), full[2 * stop])
                assert np.array_equal(span, full[2 * lo : 2 * stop + 1])

    @pytest.mark.parametrize("steps", [1, 7, 120])
    def test_p1_tilde_from_a_handed_on_state_is_bitwise(self, steps, rng):
        spec = assumption_smoke_problem(steps)
        ws = _Workspace(spec)
        th = 0.3 * rng.standard_normal(spec.grid.num_nodes)
        p2t = solve_p2(spec, Strategy.from_flat(spec.grid, th)).flat()
        tail = ws.terminal()
        full = ws.span_p1_tilde(th, p2t, 0, tail)[0]
        while tail.node > 0:
            lo = int(rng.integers(0, tail.node))
            p1t, row = ws.span_p1_tilde(th, p2t, lo, tail)
            assert np.array_equal(p1t, full[lo : tail.node + 1])
            tail = _Tail(lo, p2t[lo], row)

    def test_chained_windows_give_the_map_from_the_terminal_state(self, smoke_spec, rng):
        # Each window reads the state its successor handed on; fixed_point_map
        # integrates from T.  The new values agree bit for bit.
        th = 0.3 * rng.standard_normal(smoke_spec.grid.num_nodes)
        th0 = np.zeros_like(th)
        ws = _Workspace(smoke_spec)
        tail, hi = ws.terminal(), smoke_spec.grid.steps
        while hi >= 0:
            lo = max(0, hi - int(rng.integers(1, 90)))
            got, tail = ws.apply_map(th, th0, lo, hi, tail)
            window = (smoke_spec.grid.nodes[lo], smoke_spec.grid.nodes[hi])
            want = fixed_point_map(smoke_spec, Strategy.from_flat(smoke_spec.grid, th),
                                   zero_theta(smoke_spec), window)
            assert np.array_equal(got, want.flat()[lo : hi + 1])
            hi = lo - 1

    def test_no_iteration_integrates_beyond_its_window(self, monkeypatch):
        # Inside a window map every RK4 map and suffix recursion covers at
        # most the window's own intervals lo..hi; only the diagonals at
        # Theta* are a whole-grid pass.  P2 and p1t at Theta* come from the
        # windows' last map applications, so neither is integrated again.
        calls, window = [], []
        rk4_maps, suffix_sums, apply_map = riccati._rk4_maps, riccati._suffix_sums, _Workspace.apply_map

        def record_rk4(gen, force, g):
            steps = int(np.prod(gen.shape[:-3]))  # half-steps for P2, steps for P1/P3
            calls.append(("rk4", steps, window[-1] if window else None))
            return rk4_maps(gen, force, g)

        def record_sums(phi, u, shift, last):
            calls.append(("sums", u.shape[0], window[-1] if window else None))
            return suffix_sums(phi, u, shift, last)

        def recording_map(self, th, theta0, lo, hi, tail):
            window.append((lo, hi))
            try:
                return apply_map(self, th, theta0, lo, hi, tail)
            finally:
                window.pop()

        monkeypatch.setattr(riccati, "_rk4_maps", record_rk4)
        monkeypatch.setattr(riccati, "_suffix_sums", record_sums)
        monkeypatch.setattr(_Workspace, "apply_map", recording_map)
        spec = assumption_smoke_problem(400)
        sol = solve_equilibrium(spec, zero_theta(spec))
        steps = spec.grid.steps

        inside = [c for c in calls if c[2] is not None]
        assert len(inside) == 2 * sum(w.iterations + 1 for w in sol.diagnostics.windows)
        for kind, length, (lo, hi) in inside:
            assert length <= (2 if kind == "rk4" else 1) * (hi - lo + 1)
        assert max(hi - lo for _, _, (lo, hi) in inside) < steps // 4
        outside = [(kind, length) for kind, length, w in calls if w is None]
        assert sorted(outside) == [("rk4", steps), ("sums", steps)]


class TestFixedPointMap:
    def test_trivial_zero_is_fixed_point(self):
        spec = trivial_problem(100)
        th = zero_theta(spec)
        out = fixed_point_map(spec, th, th, (0.0, 1.0))
        assert out.sup_norm() == 0.0

    def test_output_uniformly_bounded(self, smoke_spec, rng):
        # The map sends sup-balls of growing radius into one fixed ball
        # (within float range: the transported weights grow like exp(|Th|^2)).
        sups = []
        for scale in (0.1, 1.0, 5.0, 20.0):
            th = Strategy.from_flat(
                smoke_spec.grid, scale * rng.standard_normal(smoke_spec.grid.num_nodes)
            )
            out = fixed_point_map(smoke_spec, th, zero_theta(smoke_spec), (0.0, 1.0))
            sups.append(out.sup_norm())
        assert max(sups) < 10.0

    def test_signals_non_finite_intermediates(self, smoke_spec, rng):
        from fbslq.equilibrium import EquilibriumError

        huge = Strategy.from_flat(
            smoke_spec.grid, 100.0 * rng.standard_normal(smoke_spec.grid.num_nodes)
        )
        with pytest.raises(EquilibriumError):
            with np.errstate(over="ignore", invalid="ignore"):
                fixed_point_map(smoke_spec, huge, zero_theta(smoke_spec), (0.0, 1.0))

    def test_contraction_scales_with_window_width(self, smoke_spec, rng):
        theta0 = zero_theta(smoke_spec)

        def lipschitz_ratio(window):
            ratios = []
            for _ in range(5):
                base = rng.standard_normal(smoke_spec.grid.num_nodes) * 0.3
                pert = base.copy()
                lo = smoke_spec.grid.index_of(window[0])
                hi = smoke_spec.grid.index_of(window[1])
                pert[lo : hi + 1] += rng.standard_normal(hi - lo + 1) * 0.1
                out_a = fixed_point_map(
                    smoke_spec, Strategy.from_flat(smoke_spec.grid, base), theta0, window
                )
                out_b = fixed_point_map(
                    smoke_spec, Strategy.from_flat(smoke_spec.grid, pert), theta0, window
                )
                num = np.max(np.abs(out_a.data - out_b.data))
                den = np.max(np.abs(base - pert))
                ratios.append(num / den)
            return max(ratios)

        wide = lipschitz_ratio((0.5, 1.0))
        narrow = lipschitz_ratio((0.875, 1.0))
        assert wide < 1.0
        assert narrow <= 0.75 * wide  # roughly the sqrt(window) decay


class TestSolveEquilibrium:
    @pytest.mark.parametrize("halve", [False, True], ids=["default", "halvings"])
    @pytest.mark.parametrize("route", ["factor", "dense"])
    def test_fields_from_the_windows_are_the_whole_grid_ones(self, route, halve, monkeypatch):
        # P2 and p1t at Theta* are assembled from each window's last map
        # application; they are a whole-grid integration at Theta*, bit for
        # bit, on both routes: the dense exponent is summed back from T, so a
        # window's transport reads only gains that are final.
        base = assumption_smoke_problem(200)
        spec = base if route == "factor" else dense_kernels(base)
        if halve:
            monkeypatch.setattr(equilibrium, "_CONTRACTION_TARGET", 0.05)
        sol = solve_equilibrium(spec, zero_theta(spec), SolverConfig(initial_window=1.0 if halve else None))
        if halve:
            assert any(w.halvings for w in sol.diagnostics.windows)
        p2 = solve_p2(spec, sol.theta_star)
        assert np.array_equal(sol.p2.data, p2.data)
        assert np.array_equal(sol.p2.mids, p2.mids)
        whole = assemble_solution(spec, sol.theta_star, SolverDiagnostics())
        assert np.array_equal(sol.p1_tilde.data, whole.p1_tilde.data)

    def test_trivial_solution_is_zero(self):
        spec = trivial_problem(100)
        sol = solve_equilibrium(spec, zero_theta(spec))
        assert sol.theta_star.sup_norm() == 0.0
        assert all(w.iterations == 1 for w in sol.diagnostics.windows)
        assert sol.constraint_report.all_pass

    def test_smoke_instance_diagnostics(self, smoke_solution):
        diag = smoke_solution.diagnostics
        assert all(w.max_contraction_ratio < 0.5 for w in diag.windows)
        assert all(w.final_residual <= 1e-10 for w in diag.windows)
        assert diag.consistency_gap <= 1e-6
        assert diag.passthrough_nodes == []

    def test_both_routes_share_one_p2(self, smoke_solution):
        sol = smoke_solution
        again = solve_p2(sol.spec, sol.theta_star)
        assert np.array_equal(again.data, sol.p2.data)
        assert np.array_equal(again.mids, sol.p2.mids)

    def test_fields_nonnegative_under_positivity_floor(self, smoke_solution):
        # Transported nonnegative weights keep the integral field nonnegative,
        # and both Riccati diagonals inherit it.
        assert np.min(smoke_solution.p1_tilde.data) >= -1e-12
        assert np.min(smoke_solution.p1_diag.data) >= -1e-10
        assert np.min(smoke_solution.p3_diag.data) >= -1e-10

    def test_theta0_independence(self, smoke_spec, smoke_solution):
        other = solve_equilibrium(smoke_spec, Strategy.constant(smoke_spec.grid, 5.0))
        gap = np.max(np.abs(other.theta_star.data - smoke_solution.theta_star.data))
        assert gap <= 10.0 * 1e-10

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(16, 80),
        st.one_of(
            st.floats(-50.0, 50.0).map(lambda v: ("const", v)),
            st.integers(0, 2**32 - 1).map(lambda seed: ("random", seed)),
        ),
    )
    def test_theta_star_does_not_depend_on_theta0(self, steps, theta0):
        # theta0 enters only at pass-through nodes; with none, Theta* is the same to the bit.
        spec = assumption_smoke_problem(steps)
        kind, value = theta0
        if kind == "const":
            th0 = Strategy.constant(spec.grid, value)
        else:
            vals = 10.0 * np.random.default_rng(value).standard_normal(spec.grid.num_nodes)
            th0 = Strategy.from_flat(spec.grid, vals)
        sol = solve_equilibrium(spec, th0)
        assert sol.diagnostics.passthrough_nodes == []
        ref = solve_equilibrium(spec, zero_theta(spec))
        assert np.array_equal(sol.theta_star.data, ref.theta_star.data)

    def test_classical_reduction_matches_oracle(self):
        spec = classical_reduction_problem(400)
        cfg = SolverConfig(check_assumptions=False)
        sol = solve_equilibrium(spec, zero_theta(spec), cfg)
        _, classical = classical_riccati_feedback(spec)
        assert np.max(np.abs(sol.theta_star.data - classical.data)) <= 1e-6

    def test_a_window_wider_than_the_grid_is_the_whole_grid(self):
        # A huge finite window is capped at the grid: it solves as a window of
        # twice the horizon does, instead of overflowing its step count.
        spec = assumption_smoke_problem(100)

        def theta_star(window):
            return solve_equilibrium(spec, zero_theta(spec), SolverConfig(initial_window=window)).theta_star.data

        assert np.array_equal(theta_star(1e308), theta_star(2.0))

    def test_window_refinement_invariance(self):
        spec = assumption_smoke_problem(200)
        th0 = zero_theta(spec)
        sol_a = solve_equilibrium(spec, th0, SolverConfig(initial_window=0.25))
        sol_b = solve_equilibrium(spec, th0, SolverConfig(initial_window=0.125))
        gap = np.max(np.abs(sol_a.theta_star.data - sol_b.theta_star.data))
        assert gap <= 10.0 * 1e-10

    def test_assumption_violation_raises(self):
        spec = example_2_5_problem(100)
        with pytest.raises(AssumptionViolatedError):
            solve_equilibrium(spec, zero_theta(spec))

    def test_example_branches_with_check_waived(self):
        spec = example_2_5_problem(200)
        cfg = SolverConfig(check_assumptions=False)
        sol0 = solve_equilibrium(spec, zero_theta(spec), cfg)
        assert sol0.theta_star.sup_norm() == 0.0
        assert sol0.constraint_report.all_pass
        solh = solve_equilibrium(spec, Strategy.constant(spec.grid, -0.5), cfg)
        assert np.allclose(solh.theta_star.data, -0.5)
        assert not solh.constraint_report.range_pass
        # Pass-through is active on the whole grid: the denominator vanishes.
        assert len(solh.diagnostics.passthrough_nodes) == spec.grid.num_nodes

    def test_damped_iteration_reaches_same_fixed_point(self, smoke_spec, smoke_solution):
        sol = solve_equilibrium(
            smoke_spec, zero_theta(smoke_spec), SolverConfig(damping=0.7)
        )
        gap = np.max(np.abs(sol.theta_star.data - smoke_solution.theta_star.data))
        assert gap <= 1e-8

    def test_solver_rejects_matrix_problems(self):
        spec = matrix_reduction_problem(20)
        with pytest.raises(ValueError):
            solve_equilibrium(spec, Strategy.zeros(spec.grid, 2, 2))

    def test_no_convergence_when_iteration_cap_binds(self, monkeypatch):
        spec = assumption_smoke_problem(100)
        from fbslq.equilibrium import NoConvergenceError

        monkeypatch.setattr(equilibrium, "_MAX_ITERATIONS", 2)
        with pytest.raises(NoConvergenceError):
            solve_equilibrium(spec, zero_theta(spec))

    def test_non_contractive_when_target_unreachable(self, monkeypatch):
        spec = assumption_smoke_problem(100)
        from fbslq.equilibrium import NonContractiveError

        # No window can beat a 1e-9 ratio; halving bottoms out at one step.
        monkeypatch.setattr(equilibrium, "_CONTRACTION_TARGET", 1e-9)
        with pytest.raises(NonContractiveError):
            solve_equilibrium(spec, zero_theta(spec))


def scaled_smoke(c, steps=200):
    """The smoke scenario with all six weights Q, R, M, N, G1 and G2 multiplied by c."""
    doc = json.loads(json.dumps(smoke_scenario(steps)))  # R and N share one dict in the document
    for weight in doc["weights"].values():
        weight["params"] = {name: (c * np.asarray(v)).tolist() for name, v in weight["params"].items()}
    return scenario_to_spec(doc)


class TestWeightScaling:
    """Theta* is invariant under W -> c W; the solver's floors are absolute, in R's and N's units."""

    @pytest.mark.parametrize("c", [1e-3, 1e3, 1e9])
    def test_theta_star_is_invariant(self, c):
        base, spec = scaled_smoke(1.0), scaled_smoke(c)
        want = solve_equilibrium(base, zero_theta(base)).theta_star.data
        got = solve_equilibrium(spec, zero_theta(spec)).theta_star.data
        assert max_rel_gap(got, want) <= 1e-14

    def test_positivity_floor_is_absolute(self):
        spec = scaled_smoke(1e-9)  # delta = 1e-9, below positivity_floor = 1e-8
        with pytest.raises(AssumptionViolatedError):
            solve_equilibrium(spec, zero_theta(spec))


# Zeros and the smallest and largest magnitudes a float holds, and values near 1.
DENOMINATORS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e-12, -1e-12, 1e300, -1e300]
) | st.floats(0.5, 1.5) | st.floats(-1.5, -0.5) | st.floats(allow_nan=False, allow_infinity=False)


class TestPassThrough:
    """A node passes theta0 through exactly where pinv inverts the 1 x 1 [Lambda] to [0]."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(DENOMINATORS, min_size=1, max_size=41))
    def test_gain_passes_through_where_pinv_is_zero(self, dens):
        # The shared update of the fixed point and feedback_map, with Gamma = 1
        # and a finite sentinel theta0: 0 * NaN would be NaN in N theta0.
        lam = np.array(dens)[:, None, None]
        sentinel = np.full_like(lam, 3.0)
        with np.errstate(over="ignore"):
            new = riccati._feedback(lam, np.ones_like(lam), sentinel)
            inverse = pinv(lam)
        assert np.array_equal(new, np.where(inverse == 0.0, sentinel, -inverse))

    @pytest.mark.parametrize("q", ["unit", "steep"])
    @pytest.mark.parametrize("theta0", [0.0, -0.5])
    def test_every_example_node_passes_through(self, q, theta0):
        # R(t,t) = D = 0 in example 2.5, so den vanishes at every node of both branches.
        build = {"unit": example_2_5_problem, "steep": steep_example_2_5_problem}[q]
        spec = build(200)
        sol = solve_equilibrium(spec, Strategy.constant(spec.grid, theta0), SolverConfig(check_assumptions=False))
        assert sol.diagnostics.passthrough_nodes == list(range(spec.grid.num_nodes))
        assert np.array_equal(sol.theta_star.flat(), np.full(spec.grid.num_nodes, theta0))


@pytest.mark.parametrize("problem", ["smoke", "example25 half branch"])
def test_the_solution_holds_lambda_and_the_residual_of_its_fields(problem):
    # assemble_solution forms Lambda and Gamma + Lambda Theta once; they are
    # those of the fields re-solved for the gain, bit for bit.
    if problem == "smoke":
        spec, theta0 = assumption_smoke_problem(200), 0.0
    else:  # Lambda == 0 at every node, and the residual is Gamma != 0
        spec, theta0 = example_2_5_problem(200), -0.5
    sol = solve_equilibrium(spec, Strategy.constant(spec.grid, theta0), SolverConfig(check_assumptions=False))
    p2 = solve_p2(spec, sol.theta_star)
    lam, gam = riccati.gain_denominator_numerator(spec, *two_time_diagonals(spec, sol.theta_star, p2), p2)
    assert np.array_equal(sol.lam.data, lam)
    assert np.array_equal(sol.residual.data, gam + lam @ sol.theta_star.data)
    assert np.any(sol.residual.data != 0.0)


REFERENCE_THETA = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "solve2000_theta.txt"


def test_smoke_gain_at_2000_steps_is_the_benchmark_reference():
    # A golden value: the smoke problem's Theta* at 2 000 steps, against the
    # benchmark's reference file (read, never written) at its 1e-12 relative bound.
    spec = assumption_smoke_problem(2000)
    theta = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1)).theta_star.flat()
    ref = np.loadtxt(REFERENCE_THETA)
    assert theta.shape == ref.shape
    assert np.max(np.abs(theta - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestLagKernels:
    def test_steep_discounted_weight_solves(self):
        # Q = 0.5 exp(-800 (s - t)) is at most 0.5 on s >= t and overflows
        # below the diagonal, which no route may read.
        base = assumption_smoke_problem(200)
        spec = replace(base, weights=replace(base.weights, Q=LagKernel(800.0, [0.5])))
        assert validate(spec).ok
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_equilibrium(spec, zero_theta(spec))
        assert np.all(np.isfinite(sol.theta_star.data))
        # The dense sweep samples the triangle only, so it is the oracle here.
        p1d, p3d = two_time_diagonals(dense_kernels(spec), sol.theta_star, sol.p2)
        assert max_rel_gap(sol.p1_diag.data, p1d.data) <= 1e-12
        assert max_rel_gap(sol.p3_diag.data, p3d.data) <= 1e-12

    def test_steep_callable_weight_raises_no_warning(self):
        # The same Q behind a callable takes the dense route, whose weight
        # tables must be sampled on s >= t alone: below the diagonal the
        # callable overflows.
        base = assumption_smoke_problem(200)
        steep = LagKernel(800.0, [0.5])
        spec = replace(base, weights=replace(
            base.weights, Q=CallableKernel(lambda s, t: steep(s, t), steep.shape)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_equilibrium(spec, zero_theta(spec))
        assert np.all(np.isfinite(sol.theta_star.data))
        lag = solve_equilibrium(replace(base, weights=replace(base.weights, Q=steep)), zero_theta(spec))
        assert max_rel_gap(sol.theta_star.data, lag.theta_star.data) <= 1e-12

    def test_dense_tables_are_the_triangle_samples(self):
        # The tables hold the kernels' own values on s >= t, bit for bit, and zeros below.
        spec = dense_kernels(assumption_smoke_problem(60))
        ws = _Workspace(spec)
        nodes = spec.grid.nodes
        ss, tt = np.meshgrid(nodes, nodes, indexing="ij")
        for name in ("Q", "R", "M", "N"):
            tab = ws.tables[name]
            want = getattr(spec.weights, name)(ss, tt)[..., 0, 0]
            assert np.array_equal(tab[ss >= tt], want[ss >= tt]), name
            assert not np.any(tab[ss < tt]), name

    @staticmethod
    def kernel_call_sizes(spec):
        """Points sampled by each two-time kernel call of a solve of ``spec`` from zero."""
        points = []

        def recording(kern):
            class Recording(type(kern)):
                def evaluate(self, s, t):
                    points.append(np.broadcast(s, t).size)
                    return super().evaluate(s, t)

            rec = copy.copy(kern)
            object.__setattr__(rec, "__class__", Recording)  # a lag kernel is frozen
            return rec

        w = spec.weights
        spec = replace(spec, weights=replace(
            w, Q=recording(w.Q), R=recording(w.R), M=recording(w.M), N=recording(w.N)))
        sol = solve_equilibrium(spec, zero_theta(spec))
        assert sol.constraint_report.all_pass
        return points

    def test_no_kernel_call_samples_a_table(self):
        # Every two-time kernel call of a solve evaluates at most one audit block of L-point rows.
        spec = assumption_smoke_problem(400)
        assert isinstance(spec.weights.Q, LagKernel) and len(spec.weights.Q.coefs) == 1  # constant
        assert isinstance(spec.weights.R, LagKernel) and len(spec.weights.R.coefs) == 2  # difference
        points = self.kernel_call_sizes(spec)
        assert points and max(points) <= _AUDIT_ROWS * spec.grid.num_nodes

    def test_lag_weights_are_sampled_at_most_once_per_node(self):
        # Smoke's weights are all lag kernels: the audit reads them at the L node lags, not the triangle.
        spec = assumption_smoke_problem(400)
        assert spec.weights.lag_factors() is not None
        points = self.kernel_call_sizes(spec)
        assert points and max(points) <= spec.grid.num_nodes


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(fp_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(fp_tolerance=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(fp_tolerance=float("inf"))
    with pytest.raises(ValueError):
        SolverConfig(initial_window=float("inf"))
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)
