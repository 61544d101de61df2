import contextlib
import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbslq import simulate
from fbslq.equilibrium import solve_equilibrium
from fbslq.fields import Strategy
from fbslq.kernels import TwoTimeKernel
from fbslq.presets import assumption_smoke_problem
from fbslq.riccati import solve_p2
from fbslq.simulate import (
    BLOCK_PATHS,
    CHUNK_ROWS,
    _SLOTS,
    SimConfig,
    SpikeSpec,
    _as_vector,
    _ClosedLoop,
    _LadderRun,
    _PassSums,
    _primed,
    _scratch,
    _snap_eps,
    simulate_closed_loop,
    spike_test,
    spike_tests,
)
from fbslq.verify import suite_equilibrium
from tests.conftest import matrix_p2_problem
from tests.oracles import (
    bsde_residual_check,
    build_controls,
    evaluate_cost,
    matrix_reduction_problem,
    per_node_z,
    perturbation_scaling,
    second_moment_factor,
    simulate_spike,
    spike_fields,
)
from tests.test_riccati import build_scalar, zero_theta


@pytest.fixture(scope="module")
def smoke_200():
    spec = assumption_smoke_problem(200)
    return solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1))


def whole_block(seed, block, steps, width, hf):
    """One RNG block's Brownian increments (steps, width), drawn whole from the
    program's keyed stream: the oracle of the rows that the worker thread streams."""
    return simulate._generator(seed, block).standard_normal((steps, width)) * np.sqrt(hf)


def path_increments(cfg, steps, hf):
    """Every path's Brownian increments (paths, steps), drawn whole block by block."""
    return np.concatenate([whole_block(cfg.seed, b, steps, width, hf).T for b, _, width in blocks_of(cfg.paths)])


def send_all(kernel, rows):
    """Send every row to a primed ladder kernel; the sums that the last send returns."""
    for row in rows:
        out = kernel.send(row)
    return out


def closed_loop_inputs(spec, theta=None):
    th = theta if theta is not None else zero_theta(spec)
    return th, solve_p2(spec, th)


class TestForwardPaths:
    def test_reproducible_bit_identical(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        cfg = SimConfig(paths=300, seed=9)
        a = simulate_closed_loop(spec, th, p2, cfg)
        b = simulate_closed_loop(spec, th, p2, cfg)
        for name in ("X", "Y", "Z"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_frozen_dynamics_keeps_state(self):
        spec = build_scalar(Q=1.0, steps=40)  # A_Th = C_Th = 0 under zero gain
        th, p2 = closed_loop_inputs(spec)
        bundle = simulate_closed_loop(spec, th, p2, SimConfig(paths=16, seed=1, x0=1.5))
        assert np.array_equal(bundle.X, np.full_like(bundle.X, 1.5))

    def test_zero_couplings_give_zero_backward(self):
        spec = build_scalar(A=0.2, C=0.4, Q=1.0, steps=40)  # H = hats = 0
        th, p2 = closed_loop_inputs(spec)
        bundle = simulate_closed_loop(spec, th, p2, SimConfig(paths=32, seed=2))
        assert np.array_equal(bundle.Y, np.zeros_like(bundle.Y))
        assert np.array_equal(bundle.Z, np.zeros_like(bundle.Z))

    def test_terminal_decoupling_exact(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        bundle = simulate_closed_loop(spec, th, p2, SimConfig(paths=64, seed=3))
        H = spec.coeffs.H[0, 0]
        assert np.array_equal(bundle.Y[:, -1, 0], H * bundle.X[:, -1, 0])

    def test_first_block_does_not_depend_on_the_path_count(self, smoke_solution):
        # Chunk invariance: normals are drawn per fixed block, so the first
        # block of a two-block bundle is the one-block bundle, bit for bit.
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        for spike in (None, SpikeSpec(v=1.0)):
            bundles = []
            for paths in (BLOCK_PATHS, BLOCK_PATHS + 100):
                cfg = SimConfig(paths=paths, seed=19, sub_steps=2, x0=1.0)
                bundles.append(simulate_closed_loop(spec, th, p2, cfg, 0.75) if spike is None
                               else simulate_spike(spec, th, p2, cfg, spike, 0.125, 0.75))
            one, two = bundles
            for name in ("X", "Y", "Z"):
                assert np.array_equal(getattr(two, name)[:BLOCK_PATHS], getattr(one, name)), name

    @pytest.mark.parametrize("problem", ["smoke", "matrix", "coupled"])
    def test_kept_paths_are_the_leading_paths_bitwise(self, smoke_200, problem):
        # Only the kept columns are stepped, and the einsums of Y and Z sum
        # in the same order at every path count, at n = 2 as at n = 1.
        if problem == "smoke":
            spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        else:
            spec, th, p2 = matrix_inputs(problem)
        cfg = SimConfig(paths=BLOCK_PATHS + 5, seed=4, sub_steps=2, x0=1.0)
        full = simulate_closed_loop(spec, th, p2, cfg, 0.25)
        for keep in (1, 100, BLOCK_PATHS + 3):
            kept = simulate_closed_loop(spec, th, p2, cfg, 0.25, keep=keep)
            for name in ("X", "Y", "Z"):
                assert np.array_equal(getattr(kept, name), getattr(full, name)[:keep]), (keep, name)

    def test_a_stream_left_early_leaves_no_worker(self, smoke_200):
        # keep = 100 leaves the stream after block 0, while the chunks of
        # block 1 may still be drawn ahead: the call joins its worker.
        spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        cfg = SimConfig(paths=2 * BLOCK_PATHS + 5, seed=4, x0=1.0)
        full = simulate_closed_loop(spec, th, p2, cfg, 0.25)
        before = threading.active_count()
        kept = simulate_closed_loop(spec, th, p2, cfg, 0.25, keep=100)
        assert threading.active_count() == before
        assert np.array_equal(kept.X, full.X[:100])

    @pytest.mark.parametrize("keep", [0, BLOCK_PATHS + 6, True, 2.0])
    def test_keep_is_a_path_count_of_the_config(self, smoke_200, keep):
        spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        with pytest.raises(ValueError, match="keep"):
            simulate_closed_loop(spec, th, p2, SimConfig(paths=BLOCK_PATHS + 5), keep=keep)

    @pytest.mark.parametrize("sub", [1, 2])
    @pytest.mark.parametrize("problem", ["smoke", "matrix", "coupled"])
    def test_z_is_the_per_node_formula(self, smoke_200, problem, sub):
        # Z is one einsum over P2 C_Th, formed once per node, plus P2 chi D v;
        # the per-node formula rounds otherwise.  A closed loop, a spike that
        # ends before the horizon and one that reaches it.
        if problem == "smoke":
            spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        else:
            spec, th, p2 = matrix_inputs(problem)
        v = np.array([1.0, -0.5])[: spec.dims.k]
        cfg = SimConfig(paths=300, seed=8, sub_steps=sub, x0=1.0)
        bundles = [simulate_closed_loop(spec, th, p2, cfg, 0.5)]
        bundles += [simulate_spike(spec, th, p2, cfg, SpikeSpec(v=v), eps, 0.5) for eps in (0.125, 0.5)]
        for bundle in bundles:
            want = per_node_z(spec, bundle)
            assert np.all(np.abs(bundle.Z - want) <= 1e-13 * np.abs(want).max())
            assert np.any(want != 0.0) or problem == "matrix"  # its P2 is 0, so Z = 0

    def test_second_moment_matches_factor(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        cfg = SimConfig(paths=20_000, seed=17, x0=1.0)
        bundle = simulate_closed_loop(spec, th, p2, cfg)
        lam = second_moment_factor(spec, th).data[0, -1, 0, 0]
        sq = bundle.X[:, -1, 0] ** 2
        err = (np.mean(sq) - lam) / (np.std(sq) / np.sqrt(cfg.paths))
        assert abs(err) <= 3.0


def direct_spiked_euler(spec, theta, cfg, t, v, eps_steps, increments):
    """Plain Euler-Maruyama of the spiked state equation from time t, one fine step at a
    time: dX = ((A + B Th) X + chi B v) ds + ((C + D Th) X + chi D v) dW."""
    grid, c = spec.grid, spec.coeffs
    i0, sub = grid.index_of(t), cfg.sub_steps
    hf = grid.h / sub
    x = np.tile(_as_vector(cfg.x0, spec.dims.n, "x0", "state"), (increments.shape[0], 1))
    out = [x]
    for r in range(grid.steps - i0):
        th = theta.data[i0 + r]
        chi = 1.0 if r < eps_steps else 0.0
        for s in range(sub):
            ell = r * sub + s
            t = grid.nodes[i0] + hf * ell
            drift = x @ (c.A(t) + c.B(t) @ th).T + chi * (c.B(t) @ v)
            diffusion = x @ (c.C(t) + c.D(t) @ th).T + chi * (c.D(t) @ v)
            x = x + drift * hf + diffusion * increments[:, ell, None]
        out.append(x)
    return np.stack(out, axis=1)


class TestSpikePaths:
    def test_zero_direction_is_bitwise_closed_loop(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        cfg = SimConfig(paths=200, seed=5)
        base = simulate_closed_loop(spec, th, p2, cfg)
        spiked = simulate_spike(spec, th, p2, cfg, SpikeSpec(v=0.0), eps=0.25)
        assert np.array_equal(base.X, spiked.X)
        assert np.array_equal(base.Y, spiked.Y)
        assert np.array_equal(base.Z, spiked.Z)

    @pytest.mark.parametrize("problem", ["scalar", "matrix"])
    def test_spiked_bundle_matches_direct_euler(self, smoke_solution, problem):
        if problem == "scalar":
            spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
            v, t, eps = np.array([1.0]), 0.25, 0.0625
        else:
            spec, th, p2 = matrix_inputs()
            v, t, eps = np.array([1.0, -0.5]), 0.5, 0.125
        for sub in (1, 2):
            cfg = SimConfig(paths=300, seed=12, sub_steps=sub, x0=1.0)
            bundle = simulate_spike(spec, th, p2, cfg, SpikeSpec(v=v), eps, t)
            incs = path_increments(cfg, (spec.grid.steps - spec.grid.index_of(t)) * sub, spec.grid.h / sub)
            direct = direct_spiked_euler(spec, th, cfg, t, v, bundle.spike_steps, incs)
            assert bundle.spike_steps == round(eps / spec.grid.h)
            assert np.all(np.abs(bundle.X - direct) <= 1e-13 * np.abs(direct).max())

    def test_eps_below_grid_step_rejected(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        with pytest.raises(ValueError):
            simulate_spike(spec, th, p2, SimConfig(paths=8, seed=0), SpikeSpec(v=1.0),
                           eps=0.1 * spec.grid.h)

    def test_perturbation_scaling_slope_one(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        cfg = SimConfig(paths=4000, seed=23, x0=1.0)
        rows = perturbation_scaling(spec, th, p2, cfg, SpikeSpec(v=1.0, epsilons=(0.25, 0.125, 0.0625, 0.03125)), 0.0)
        eps = np.array([r["eps_used"] for r in rows])
        ex = np.array([r["ex_sup_dx2"] for r in rows])
        eyz = np.array([r["ex_sup_dy2_int_dz2"] for r in rows])
        assert np.polyfit(np.log(eps), np.log(ex), 1)[0] == pytest.approx(1.0, abs=0.2)
        assert np.polyfit(np.log(eps), np.log(eyz), 1)[0] == pytest.approx(1.0, abs=0.2)

    @pytest.mark.parametrize("sub", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("problem", ["smoke", "matrix", "coupled", "narrow"])
    def test_perturbation_scaling_matches_the_bundle_route(self, smoke_200, problem, t, sub):
        # The bundle route differences materialised spiked and closed-loop
        # paths; the rows read the perturbations off the stepper.
        if problem == "smoke":
            spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
            spike = SpikeSpec(v=1.0, epsilons=(0.25, 0.1, 0.02))
        else:  # k = 2, or k = 1 for narrow
            spec, th, p2 = matrix_inputs(problem)
            spike = SpikeSpec(v=np.array([1.0, -0.5])[: spec.dims.k], epsilons=(0.25, 0.1, 0.05))
        cfg = SimConfig(paths=BLOCK_PATHS + 300, seed=27, sub_steps=sub, x0=1.0)  # two blocks
        rows = perturbation_scaling(spec, th, p2, cfg, spike, t)
        base = simulate_closed_loop(spec, th, p2, cfg, t)
        for row in rows:
            spiked = simulate_spike(spec, th, p2, cfg, spike, row["eps_used"], t)
            sup_x, sup_yz = bundle_moments(base, spiked, spec.grid.h)
            assert sup_x > 0.0 and (sup_yz > 0.0 or problem == "matrix")  # its H and hats are 0, so Y = Z = 0
            assert row["ex_sup_dx2"] == pytest.approx(sup_x, rel=1e-12, abs=0.0)
            assert row["ex_sup_dy2_int_dz2"] == pytest.approx(sup_yz, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sub", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("problem", ["smoke", "coupled", "narrow"])
    def test_perturbation_scaling_matches_direct_euler(self, smoke_200, problem, t, sub):
        # The bundle route shares the program's stepper; this oracle does not.
        # It steps every path with direct_spiked_euler and builds Y and Z from
        # the fields, with the P7 v of each rung from its coupling equation.
        if problem == "smoke":
            spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
            v, epsilons = np.array([1.0]), (0.25, 0.1, 0.02)
        else:  # n = m = k = 2, or n = k = 1 and m = 2 for narrow
            spec, th, p2 = matrix_inputs(problem)
            v, epsilons = np.array([1.0, -0.5])[: spec.dims.k], (0.25, 0.1, 0.05)
        grid, c = spec.grid, spec.coeffs
        cfg = SimConfig(paths=BLOCK_PATHS + 300, seed=27, sub_steps=sub, x0=1.0)  # two blocks
        rows = perturbation_scaling(spec, th, p2, cfg, SpikeSpec(v=v, epsilons=epsilons), t)
        i0 = grid.index_of(t)
        incs = path_increments(cfg, (grid.steps - i0) * sub, grid.h / sub)
        base = direct_spiked_euler(spec, th, cfg, t, v, 0, incs)
        left = grid.nodes[i0:-1]
        ct = c.C(left) + c.D(left) @ th.data[i0:-1]  # (intervals, n, n)
        p2r = p2.data[i0:]
        loop = _ClosedLoop(spec, th, p2, sub)
        for row in rows:
            steps = round(row["eps_used"] / grid.h)
            dx = direct_spiked_euler(spec, th, cfg, t, v, steps, incs) - base
            p7v = _LadderRun(loop, cfg, t, v, [steps]).p7v[0]
            dy = np.einsum("rmn,prn->prm", p2r, dx) + p7v
            zc = np.einsum("rij,prj->pri", ct, dx[:, :-1])
            zc[:, :steps] += c.D(left[:steps]) @ v
            dz = np.einsum("rmn,prn->prm", p2r[:-1], zc)
            sup_x = np.mean(np.max(np.sum(dx**2, axis=2), axis=1))
            sup_yz = np.mean(np.max(np.sum(dy**2, axis=2), axis=1) + grid.h * np.sum(dz**2, axis=(1, 2)))
            assert row["ex_sup_dx2"] == pytest.approx(sup_x, rel=1e-12, abs=0.0)  # measured gaps <= 4.1e-15
            assert row["ex_sup_dy2_int_dz2"] == pytest.approx(sup_yz, rel=1e-12, abs=0.0)


def bundle_moments(base, spiked, h):
    """E max_r |dX_r|^2 and E[max_r |dY_r|^2 + h sum_{r<n} |dZ_r|^2] at the coarse nodes."""
    dx, dy, dz = (getattr(spiked, name) - getattr(base, name) for name in ("X", "Y", "Z"))
    sup_x = np.mean(np.max(np.sum(dx**2, axis=2), axis=1))
    sup_yz = np.mean(np.max(np.sum(dy**2, axis=2), axis=1) + h * np.sum(dz[:, :-1] ** 2, axis=(1, 2)))
    return sup_x, sup_yz


class TestEvaluateCost:
    def test_zero_weights_zero_cost(self):
        spec_zero = build_scalar(D=1.0, steps=50)  # all weights zero
        th, p2 = closed_loop_inputs(spec_zero)
        bundle = simulate_closed_loop(spec_zero, th, p2, SimConfig(paths=40, seed=4))
        cost = evaluate_cost(spec_zero, bundle, build_controls(spec_zero, bundle), 0.0)
        assert cost.estimate == 0.0
        assert cost.stderr == 0.0

    def test_unit_state_weight_half(self):
        # Q == 1 alone, frozen state at 1: J = (1/2) * int_0^1 1 ds = 1/2.
        spec = build_scalar(Q=1.0, steps=64)
        th, p2 = closed_loop_inputs(spec)
        bundle = simulate_closed_loop(spec, th, p2, SimConfig(paths=7, seed=0, x0=1.0))
        cost = evaluate_cost(spec, bundle, build_controls(spec, bundle), 0.0)
        assert cost.estimate == pytest.approx(0.5, abs=1e-14)
        assert cost.stderr == 0.0

    def test_deterministic_case_matches_plain_oracle(self):
        # C = D = 0: no noise; an independent plain-Python reimplementation
        # of the same Euler + interval-trapezoid discretization must agree.
        spec = build_scalar(A=0.3, B=0.8, Q=0.6, R=0.9, G1=0.7, steps=32)
        theta = Strategy.from_flat(spec.grid, np.linspace(-0.4, 0.2, spec.grid.num_nodes))
        p2 = solve_p2(spec, theta)
        bundle = simulate_closed_loop(spec, theta, p2, SimConfig(paths=3, seed=8, x0=1.2))
        cost = evaluate_cost(spec, bundle, build_controls(spec, bundle), 0.0)

        h = spec.grid.h
        x = 1.2
        run = 0.0
        xs = [x]
        for j in range(spec.grid.steps):
            u = theta.data[j, 0, 0] * x
            run += 0.9 * u * u * h  # R constant: interval trapezoid = h R u^2
            x = x + (0.3 * x + 0.8 * u) * h
            xs.append(x)
        qx = [0.6 * xx * xx for xx in xs]
        run += h * (0.5 * qx[0] + sum(qx[1:-1]) + 0.5 * qx[-1])
        oracle = 0.5 * (run + 0.7 * xs[-1] ** 2)
        assert cost.estimate == pytest.approx(oracle, abs=1e-8)
        assert cost.stderr == 0.0

    def test_rejects_wrong_start_time(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        bundle = simulate_closed_loop(spec, th, p2, SimConfig(paths=4, seed=0))
        controls = build_controls(spec, bundle)
        with pytest.raises(ValueError):
            evaluate_cost(spec, bundle, controls, 0.5)

    def test_rejects_wrong_control_shape(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        bundle = simulate_closed_loop(spec, th, p2, SimConfig(paths=4, seed=0))
        with pytest.raises(ValueError):
            evaluate_cost(spec, bundle, np.zeros((4, 3, 1)), 0.0)

    def test_stderr_shrinks_like_sqrt_paths(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        outs = []
        for paths in (1000, 4000):
            bundle = simulate_closed_loop(spec, th, p2, SimConfig(paths=paths, seed=31))
            outs.append(evaluate_cost(spec, bundle, build_controls(spec, bundle), 0.0).stderr)
        assert outs[0] / outs[1] == pytest.approx(2.0, rel=0.25)


class TestCostFieldIdentity:
    def test_closed_loop_cost_matches_transported_fields(self, smoke_solution):
        # Along the closed loop 2 J(t, x) = (p1t(t) + G2(t) P2(t)^2) x^2; the
        # tolerance budgets 4 sigma of Monte-Carlo noise plus the first-order
        # Euler weak bias.
        spec, sol = smoke_solution.spec, smoke_solution
        x0 = 1.3
        for t in (0.0, 0.5):
            i = spec.grid.index_of(t)
            cfg = SimConfig(paths=20_000, seed=21, x0=x0)
            bundle = simulate_closed_loop(spec, sol.theta_star, sol.p2, cfg, t)
            cost = evaluate_cost(spec, bundle, build_controls(spec, bundle), t)
            p1t = sol.p1_tilde.data[i, 0, 0]
            p2t = sol.p2.data[i, 0, 0]
            g2 = spec.weights.G2(t)[0, 0]
            theory = 0.5 * (p1t + g2 * p2t**2) * x0**2
            allowance = 4.0 * cost.stderr + 0.5 * spec.grid.h * x0**2
            assert abs(cost.estimate - theory) <= allowance


class TestSpikeTest:
    def test_zero_direction_gives_zero_deltas(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        cfg = SimConfig(paths=500, seed=2, x0=1.0)
        rep = spike_test(spec, th, p2, cfg, SpikeSpec(v=0.0, epsilons=(0.25, 0.125)), 0.0,
                         lam=smoke_solution.lam,
                         residual=smoke_solution.residual)
        assert all(r.delta == 0.0 and r.stderr == 0.0 for r in rep.rows)
        assert rep.liminf_pass

    def test_an_eps_whose_step_count_overflows_snaps_to_the_whole_range(self):
        # eps / h is inf: the rung spans [t, T], as any eps past T - t does.
        spec = assumption_smoke_problem(40)
        sol = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1))
        cfg = SimConfig(paths=64, seed=1, x0=1.0)

        def row(eps):
            (rep,) = spike_tests(spec, sol.theta_star, sol.p2, cfg, SpikeSpec(v=1.0, epsilons=(eps,)), [0.0],
                                 lam=sol.lam, residual=sol.residual)
            return rep.rows[0]

        huge, past = row(1e308), row(2.0)
        assert huge.eps_requested == 1e308
        assert (huge.eps_used, huge.delta, huge.stderr) == (past.eps_used, past.delta, past.stderr)
        assert _snap_eps(spec.grid, 0, (1e308,)) == [(1e308, spec.grid.steps)]

    def test_streaming_matches_bundle_route(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        cfg = SimConfig(paths=400, seed=13, x0=1.0)
        eps = 0.25
        rep = spike_test(spec, th, p2, cfg, SpikeSpec(v=1.0, epsilons=(eps,)), 0.0,
                         lam=smoke_solution.lam,
                         residual=smoke_solution.residual)
        base = simulate_closed_loop(spec, th, p2, cfg)
        spiked = simulate_spike(spec, th, p2, cfg, SpikeSpec(v=1.0), eps)
        j0 = evaluate_cost(spec, base, build_controls(spec, base), 0.0)
        j1 = evaluate_cost(spec, spiked, build_controls(spec, spiked), 0.0)
        bundle_delta = (j1.estimate - j0.estimate) / eps
        assert rep.rows[0].delta == pytest.approx(bundle_delta, abs=1e-10)

    def test_quadratic_scaling_in_direction(self, smoke_solution):
        # Delta under c v splits into c^2 quadratic + c first-order terms.
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        cfg = SimConfig(paths=20_000, seed=29, x0=1.0)
        eps = (0.0625,)
        d = {}
        for c in (1.0, 2.0, -1.0):
            rep = spike_test(spec, th, p2, cfg, SpikeSpec(v=c, epsilons=eps), 0.5,
                             lam=smoke_solution.lam,
                             residual=smoke_solution.residual)
            d[c] = (rep.rows[0].delta, rep.rows[0].stderr)
        quad = d[1.0][0]
        # c = 2 quadruples the quadratic part; c = -1 keeps it.
        assert d[2.0][0] == pytest.approx(4.0 * quad, abs=12.0 * d[2.0][1] + 4 * d[1.0][1])
        assert d[-1.0][0] == pytest.approx(quad, abs=6.0 * d[1.0][1])

    def test_corrupted_gain_reports_first_order_term(self, smoke_solution):
        spec, p2_star = smoke_solution.spec, smoke_solution.p2
        theta = smoke_solution.theta_star
        t = 0.25
        lo = spec.grid.index_of(t)
        hi = spec.grid.index_of(t + 0.1)
        corrupted = theta.flat().copy()
        corrupted[lo:hi] += 0.5
        bad = Strategy.from_flat(spec.grid, corrupted)
        p2 = solve_p2(spec, bad)
        cfg = SimConfig(paths=40_000, seed=37, x0=1.0)
        lam, residual = spike_fields(spec, bad, p2)
        rep = spike_test(spec, bad, p2, cfg, SpikeSpec(v=1.0, epsilons=(2**-6,)), t, lam=lam, residual=residual)
        row = rep.rows[0]
        expected_first = row.theory_first_order
        assert expected_first != 0.0
        assert rep.first_order_estimate == pytest.approx(expected_first, abs=3.0 * row.stderr + 0.05)


def row_values(rep):
    return [
        (r.eps_used, r.delta, r.stderr, r.theory_quadratic, r.theory_first_order) for r in rep.rows
    ] + [(rep.liminf_pass, rep.limit_converged, rep.first_order_estimate)]


def matrix_inputs(problem="matrix"):
    """An n = k = 2 problem under a random gain.

    ``matrix`` is the reduction preset: its H, hats, M, N and G2 are 0, so
    P2 = P7 = 0 and Y = Z = 0.  ``coupled`` (m = 2 as well) has all of them
    nonzero and C, D time-varying, so the left and right interval ends of
    C + D Theta and of D v differ.  ``narrow`` is ``coupled`` at n = k = 1
    and m = 2, so Y and Z have more components than X.
    """
    nmk = {"coupled": (2, 2, 2), "narrow": (1, 2, 1)}
    spec = matrix_reduction_problem(40) if problem == "matrix" else matrix_p2_problem(40, *nmk[problem])
    rng = np.random.default_rng(3)
    theta = Strategy(spec.grid, 0.3 * rng.standard_normal((spec.grid.num_nodes, spec.dims.k, spec.dims.n)))
    return spec, theta, solve_p2(spec, theta)


def ladder_inputs(smoke_solution, problem):
    """(spec, theta, P2, v, spike_test keywords) of a ladder test problem:
    the smoke solution (n = 1) or a :func:`matrix_inputs` problem."""
    if problem == "smoke":
        sol = smoke_solution
        return sol.spec, sol.theta_star, sol.p2, 1.0, {"lam": sol.lam, "residual": sol.residual}
    spec, th, p2 = matrix_inputs(problem)
    lam, residual = spike_fields(spec, th, p2)
    return spec, th, p2, np.array([1.0, -0.5])[: spec.dims.k], {"lam": lam, "residual": residual}


def carried_block(run, increments, weights):
    """The ladder sums with every rung's d_q carried to the horizon, for any n:
    no close and no transition, each node's terms summed with einsum.  The
    reference of the close schedule of ``_LadderRun._block``."""
    alpha, beta, gamma = weights[0], weights[1][..., 0], weights[2]  # (nodes, n, n), (nodes, n, rungs), (rungs,)
    steps = np.asarray(run.eps_steps)
    width = increments.shape[1]
    x = np.repeat(run.x0[:, None], width, axis=1)  # (n, paths)
    d = np.zeros((run.n, len(steps), width))
    base = np.zeros(width)
    cross = np.zeros((len(steps), width))
    quad = np.zeros_like(cross)
    for r in range(run.n_coarse + 1):
        for ell in range((r - 1) * run.sub, r * run.sub) if r else ():
            dw = increments[ell]
            f = run.a_fine[ell][..., None] * run.hf + run.c_fine[ell][..., None] * dw  # (n, n, paths)
            chi = (ell < steps * run.sub)[None, :, None]
            x, d = (x + np.einsum("ijp,jp->ip", f, x),
                    d + np.einsum("ijp,jqp->iqp", f, d) + chi * (run.drive_h[ell] + run.drive_w[ell] * dw))
        a, b = alpha[r], beta[r]
        base += np.einsum("ip,ij,jp->p", x, a, x)
        cross += 2.0 * (np.einsum("ip,ij,jqp->qp", x, a, d) + np.einsum("ip,iq->qp", x, b))
        quad += np.einsum("iqp,ij,jqp->qp", d, a, d) + 2.0 * np.einsum("iqp,iq->qp", d, b)
    return base, cross, quad + gamma[:, None]


def assert_sums_close(got, want, bound=1e-12):
    """(base, cross, quad) agree within ``bound`` relative, per path (to the
    largest magnitude over the paths) and summed over the paths."""
    for a, b in zip(got, want):
        a, b = np.atleast_2d(a), np.atleast_2d(b)
        assert np.all(np.abs(a - b) <= bound * np.abs(b).max(axis=1, keepdims=True))
        assert np.all(np.abs(a.sum(axis=1) - b.sum(axis=1)) <= bound * np.abs(b.sum(axis=1)))


class TestSpikeDirections:
    """One ladder pass gives both directions, exactly linear in v."""

    @pytest.mark.parametrize("problem", ["smoke", "matrix", "coupled"])
    def test_opposite_is_the_separate_negative_run_bitwise(self, smoke_solution, problem):
        if problem == "smoke":
            spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
            v, t, kw = 1.0, 0.25, {"lam": smoke_solution.lam,
                                   "residual": smoke_solution.residual}
        else:  # n = k = 2
            spec, th, p2 = matrix_inputs(problem)
            lam, residual = spike_fields(spec, th, p2)
            v, t, kw = np.array([1.0, -0.5]), 0.5, {"lam": lam, "residual": residual}
        cfg = SimConfig(paths=300, seed=4, x0=1.0)
        eps = SpikeSpec(v=v, epsilons=(0.25, 0.1, 0.05))
        plus = spike_test(spec, th, p2, cfg, eps, t, **kw)
        minus = spike_test(spec, th, p2, cfg, SpikeSpec(v=-np.asarray(v), epsilons=eps.epsilons), t, **kw)
        assert np.array_equal(plus.opposite.v, minus.v)
        assert row_values(plus.opposite) == row_values(minus)
        assert row_values(minus.opposite) == row_values(plus)
        assert plus.opposite.opposite is None
        assert plus.closed_loop == minus.closed_loop
        assert any(r.delta != 0.0 for r in plus.rows)

    def test_linear_in_the_direction(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        cfg = SimConfig(paths=2000, seed=41, x0=1.0)
        d = {}
        for c in (1.0, 2.0):
            rep = spike_test(spec, th, p2, cfg, SpikeSpec(v=c), 0.5,
                             lam=smoke_solution.lam,
                             residual=smoke_solution.residual)
            d[c] = np.array([r.delta for r in rep.rows])
            d[-c] = np.array([r.delta for r in rep.opposite.rows])
        # The quadratic part scales with c^2, the cross part with c.
        even, odd = d[1.0] + d[-1.0], d[1.0] - d[-1.0]
        assert np.all(np.abs(d[2.0] + d[-2.0] - 4.0 * even) <= 1e-12 * np.abs(4.0 * even))
        assert np.all(np.abs(d[2.0] - d[-2.0] - 2.0 * odd) <= 1e-12 * np.abs(2.0 * odd))

    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("problem", ["smoke", "matrix", "coupled", "narrow"])
    def test_ladder_matches_the_bundle_route(self, smoke_solution, problem, t):
        # Three rungs, the widest ending before the horizon, so that every
        # rung closes and the closed rungs' sums are folded at each close and
        # at the horizon, at n = 2 and m != n too.
        spec, th, p2, v, kw = ladder_inputs(smoke_solution, problem)
        epsilons = (0.25, 0.1, 0.05)
        cfg = SimConfig(paths=400, seed=13, x0=1.0)
        rep = spike_test(spec, th, p2, cfg, SpikeSpec(v=v, epsilons=epsilons), t, **kw)
        assert spec.grid.index_of(t) + round(epsilons[0] / spec.grid.h) < spec.grid.steps
        base = simulate_closed_loop(spec, th, p2, cfg, t)
        j0 = evaluate_cost(spec, base, build_controls(spec, base), t)
        assert rep.closed_loop.estimate == pytest.approx(j0.estimate, rel=1e-12)
        for report, direction in ((rep, v), (rep.opposite, -np.asarray(v))):
            for row in report.rows:
                spiked = simulate_spike(spec, th, p2, cfg, SpikeSpec(v=direction), row.eps_used, t)
                j1 = evaluate_cost(spec, spiked, build_controls(spec, spiked), t)
                assert row.delta == pytest.approx((j1.estimate - j0.estimate) / row.eps_used, abs=1e-10)

    @pytest.mark.parametrize("sub", [1, 2])
    @pytest.mark.parametrize("problem", ["smoke", "coupled"])
    def test_the_collapse_is_exact(self, smoke_solution, problem, sub):
        # Each rung closes at its own end, the widest before or at the
        # horizon; the sums agree with a reference that carries every rung to
        # the end, and the closed loop's depend on the ladder by rounding alone.
        spec, th, p2, v, _ = ladder_inputs(smoke_solution, problem)
        t = 0.5
        cfg = SimConfig(paths=300, seed=9, sub_steps=sub, x0=1.0)
        left = spec.grid.steps - spec.grid.index_of(t)
        bases = []
        for rungs in ([left // 4, left // 8, 1], [left, left // 4, left // 8, 1]):
            run = _LadderRun(_ClosedLoop(spec, th, p2, sub), cfg, t, np.asarray(v, dtype=float).reshape(-1), rungs)
            incs = whole_block(cfg.seed, 0, run.F, cfg.paths, run.hf)
            got = send_all(run.kernel()(cfg.paths, _scratch(run, cfg.paths)), incs)
            assert_sums_close(got, carried_block(run, incs, run._weights()))
            bases.append(got[0])
        # The second ladder closes last at the horizon; after the first's last
        # close g*, its base sums x(g*)' (sum Psi' alpha Psi) x(g*), and Psi
        # x(g*) rounds otherwise than x stepped on: one ulp of the scale per
        # fine step after g* bounds the gap (measured: at most 44 ulps over
        # seeds 0-11 at the 300 steps of smoke at two sub-steps).
        tail = (left - left // 4) * sub
        assert np.all(np.abs(bases[0] - bases[1]) <= tail * np.spacing(np.abs(bases[1]).max()))

    @pytest.mark.parametrize("sub", [1, 2])
    @pytest.mark.parametrize("problem", ["smoke", "matrix", "coupled", "narrow"])
    def test_the_frozen_tail_moves_the_reports_by_rounding(self, smoke_solution, problem, sub, monkeypatch):
        # After the last close the kernel steps Psi alone and sums x' A x; a
        # stepper that never freezes x sums the closed loop's terms node by
        # node, as before.  Measured on 8 492 paths: at most 7.4e-16 relative.
        spec, th, p2, v, kw = ladder_inputs(smoke_solution, problem)
        cfg = SimConfig(paths=300, seed=3, sub_steps=sub, x0=1.0)

        def values():
            reports = spike_tests(spec, th, p2, cfg, SpikeSpec(v=v), [0.0, 0.5], **kw)
            return np.array([[rep.closed_loop.estimate, rep.closed_loop.stderr]
                             + [value for r in side.rows for value in (r.delta, r.stderr)]
                             for rep in reports for side in (rep, rep.opposite)])

        frozen = values()
        close = simulate._Stepper.close
        monkeypatch.setattr(simulate._Stepper, "close", lambda stepper, freeze=False: close(stepper))
        stepped = values()
        assert np.all(np.abs(frozen - stepped) <= 1e-14 * np.abs(stepped))

    def test_closed_loop_cost_matches_bundle_route(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        cfg = SimConfig(paths=8192 + 300, seed=6, x0=1.0)  # two RNG blocks
        rep = spike_test(spec, th, p2, cfg, SpikeSpec(v=1.0, epsilons=(0.125,)), 0.5,
                         lam=smoke_solution.lam,
                         residual=smoke_solution.residual)
        bundle = simulate_closed_loop(spec, th, p2, cfg, 0.5)
        cost = evaluate_cost(spec, bundle, build_controls(spec, bundle), 0.5)
        assert rep.closed_loop.paths == cost.paths
        assert rep.closed_loop.estimate == pytest.approx(cost.estimate, rel=1e-12)
        assert rep.closed_loop.stderr == pytest.approx(cost.stderr, rel=1e-9)


def p7_per_rung(spec, p2, v, i0, steps, range_nodes):
    """One rung's spike coupling field by a backward RK4 sweep of its own
    window, stage by stage, (range_nodes, m): the oracle of the step maps
    that the ladder's rungs share.  It samples Chat and the source
    (P2 B + Bhat + Dhat P2 D) v at the window's nodes and midpoints itself."""
    c, h = spec.coeffs, spec.grid.h
    nodes = spec.grid.nodes[i0 : i0 + steps + 1]
    mids = spec.grid.midpoints[i0 : i0 + steps]

    def source(times, p2val):
        return (p2val @ c.B(times) + c.Bhat(times) + c.Dhat(times) @ p2val @ c.D(times)) @ v

    ch_nodes, ch_mids = c.Chat(nodes), c.Chat(mids)
    w_nodes = source(nodes, p2.data[i0 : i0 + steps + 1])
    w_mids = source(mids, p2.mids[i0 : i0 + steps])
    out = np.zeros((range_nodes, w_nodes.shape[-1]))
    p = np.zeros(w_nodes.shape[-1])
    for j in range(steps - 1, -1, -1):
        k1 = -(ch_nodes[j + 1] @ p + w_nodes[j + 1])
        k2 = -(ch_mids[j] @ (p - 0.5 * h * k1) + w_mids[j])
        k3 = -(ch_mids[j] @ (p - 0.5 * h * k2) + w_mids[j])
        k4 = -(ch_nodes[j] @ (p - h * k3) + w_nodes[j])
        p = p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[j] = p
    return out


class TestCloseSchedule:
    """Every rung closes at the end of its own window."""

    LADDERS = {  # epsilons in grid steps, and the rungs they snap to at t = 0.5
        "ties": ((6.4, 5.6, 2.2, 1.6, 0.9), lambda left: [6, 6, 2, 2, 1]),
        "horizon": ((1e6, 2.4, 1.0), lambda left: [left, 2, 1]),
        "one_step": ((0.9, 0.6, 0.3), lambda left: [1, 1, 1]),
    }

    @pytest.mark.parametrize("sub", [1, 2])
    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    @pytest.mark.parametrize("problem", ["smoke", "matrix", "coupled"])
    def test_against_the_carried_reference_and_the_bundles(self, smoke_solution, problem, ladder, sub):
        spec, th, p2, v, kw = ladder_inputs(smoke_solution, problem)
        grid, t = spec.grid, 0.5
        factors, expected = self.LADDERS[ladder]
        spike = SpikeSpec(v=v, epsilons=tuple(c * grid.h for c in factors))
        cfg = SimConfig(paths=300, seed=31, sub_steps=sub, x0=1.0)
        steps = [s for _, s in _snap_eps(grid, grid.index_of(t), spike.epsilons)]
        assert steps == expected(grid.steps - grid.index_of(t))
        run = _LadderRun(_ClosedLoop(spec, th, p2, sub), cfg, t, _as_vector(v, spec.dims.k, "v", "control"), steps)
        incs = whole_block(cfg.seed, 0, run.F, cfg.paths, run.hf)
        got = send_all(run.kernel()(cfg.paths, _scratch(run, cfg.paths)), incs)
        assert_sums_close(got, carried_block(run, incs, run._weights()))

        rep = spike_test(spec, th, p2, cfg, spike, t, **kw)
        base = simulate_closed_loop(spec, th, p2, cfg, t)
        j0 = evaluate_cost(spec, base, build_controls(spec, base), t).estimate
        for report, direction in ((rep, v), (rep.opposite, -np.asarray(v))):
            for row in report.rows:
                spiked = simulate_spike(spec, th, p2, cfg, SpikeSpec(v=direction), row.eps_used, t)
                j1 = evaluate_cost(spec, spiked, build_controls(spec, spiked), t).estimate
                assert row.delta == pytest.approx((j1 - j0) / row.eps_used, abs=1e-10)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_drawn_ladders_against_the_carried_reference(self, smoke_200, data):
        problem = data.draw(st.sampled_from(["smoke", "coupled", "narrow"]))
        spec, th, p2, v, _ = ladder_inputs(smoke_200, problem)
        i0 = data.draw(st.integers(0, spec.grid.steps - 1))
        left = spec.grid.steps - i0
        steps = sorted(data.draw(st.lists(st.integers(1, left), min_size=1, max_size=6)), reverse=True)
        cfg = SimConfig(paths=64, seed=data.draw(st.integers(0, 9)), sub_steps=data.draw(st.integers(1, 2)), x0=1.0)
        run = _LadderRun(_ClosedLoop(spec, th, p2, cfg.sub_steps), cfg, float(spec.grid.nodes[i0]),
                         _as_vector(v, spec.dims.k, "v", "control"), steps)
        incs = whole_block(cfg.seed, 0, run.F, cfg.paths, run.hf)
        got = send_all(run.kernel()(cfg.paths, _scratch(run, cfg.paths)), incs)
        assert_sums_close(got, carried_block(run, incs, run._weights()))

    def test_the_ladder_must_not_widen(self, smoke_200):
        spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        cfg = SimConfig(paths=8, seed=0, x0=1.0)
        loop = _ClosedLoop(spec, th, p2, cfg.sub_steps)
        _LadderRun(loop, cfg, 0.0, np.array([1.0]), [3, 3, 1])  # ties are fine
        for steps in ([1, 3], [3, 1, 2]):
            with pytest.raises(ValueError, match="non-increasing"):
                _LadderRun(loop, cfg, 0.0, np.array([1.0]), steps)

    @pytest.mark.parametrize("problem", ["smoke", "coupled", "narrow"])
    def test_one_p7_sweep_is_each_rungs_own(self, smoke_solution, problem):
        # The rungs apply leading runs of one set of RK4 step maps, which
        # round otherwise than the stages stepped one by one: measured gaps
        # <= 3.9e-15 of a rung's largest entry.
        spec, th, p2, v, _ = ladder_inputs(smoke_solution, problem)
        v = _as_vector(v, spec.dims.k, "v", "control")
        loop = _ClosedLoop(spec, th, p2, 1)
        for t in (0.0, 0.25, 0.5, 0.75):
            i0 = spec.grid.index_of(t)
            steps = [s for _, s in _snap_eps(spec.grid, i0, SpikeSpec().epsilons)]
            assert len(set(steps)) < len(steps)  # the ladder ties at one step
            run = _LadderRun(loop, SimConfig(paths=8, seed=0), t, v, steps)
            want = np.stack([p7_per_rung(spec, p2, v, i0, s, run.n_coarse + 1) for s in steps])
            assert np.all(np.abs(run.p7v - want) <= 1e-14 * np.abs(want).max(axis=(1, 2), keepdims=True))
            assert np.all((want != 0).any(axis=2)[:, :-1] == run.chi_node)  # nonzero exactly on each window


def plain_block_scalar(run, increments, weights):
    """The scalar ladder kernel as plain array expressions over a whole block,
    a new array per operation: the oracle of the buffered coroutine
    ``_LadderRun._block`` at m = n = k = 1.  Rung q is carried up to node
    e_q, its end, and closed after that node's sums; a closed rung keeps d
    at the last close g, and the closed rungs share psi, the transition
    since g, whose sums A and B fold into their cross and quad sums at each
    close and at the horizon.  After the last close g*, x stays at x(g*) and
    psi alone steps; the nodes add A alone, and at the horizon B = A x and
    base takes x B."""
    alpha, beta, gamma, drive_h, drive_w = weights
    sub, hf = run.sub, run.hf
    a_h = run.a_fine[:, 0, 0] * hf
    c_f = run.c_fine[:, 0, 0]
    ends = np.asarray(run.eps_steps)
    last = ends.max()
    width = increments.shape[1]

    x = np.full(width, run.x0[0])
    psi = np.ones(width)
    d = np.zeros((len(ends), width))
    base = np.zeros(width)
    cross = np.zeros_like(d)
    quad = np.zeros_like(d)
    big_a = np.zeros(width)
    big_b = np.zeros(width)
    for r in range(run.n_coarse + 1):
        live = np.count_nonzero(ends >= r)  # the rungs :live are open at node r
        if r:
            for ell in range((r - 1) * sub, r * sub):
                dw = increments[ell]
                f = a_h[ell] + c_f[ell] * dw
                if r <= last:
                    x = x + f * x
                psi = psi + f * psi
                d[:live] = d[:live] + f * d[:live] + (drive_h[ell] + drive_w[ell] * dw)
        if r > last:  # x frozen at x(g*)
            big_a += psi * alpha[r] * psi
            continue
        base += alpha[r] * x * x
        if live < len(ends):
            big_b += psi * (alpha[r] * x)
            big_a += psi * alpha[r] * psi
        t = alpha[r] * d[:live] + beta[:live, r, None]
        cross[:live] += (2.0 * x) * t
        quad[:live] += d[:live] * (t + beta[:live, r, None])
        if r in ends:  # fold the group's sums, advance its d to node r, let rungs ending at r join
            cross[live:] += (2.0 * d[live:]) * big_b
            quad[live:] += (d[live:] * d[live:]) * big_a
            d[live:] = d[live:] * psi
            psi, big_a, big_b = np.ones(width), np.zeros(width), np.zeros(width)
    big_b = x * big_a
    base += x * big_b
    cross += (2.0 * d) * big_b
    quad += (d * d) * big_a + gamma[:, None]
    return base, cross, quad


def scalar_weights(run, weights):
    """``_LadderRun._weights`` and the run's spike drives at n = 1 in the shapes of
    :func:`plain_block_scalar`: alpha (nodes,), beta (rungs, nodes), gamma (rungs,),
    drives (fine steps,)."""
    alpha, beta, gamma = weights
    return alpha[:, 0, 0], beta[:, 0, :, 0].T, gamma, run.drive_h[:, 0, 0, 0], run.drive_w[:, 0, 0, 0]


class TestSpikeTests:
    """One draw per RNG block serves every spike time of a pass."""

    @pytest.mark.parametrize("sub", [1, 2])
    @pytest.mark.parametrize("paths", [300, BLOCK_PATHS + 200])
    @pytest.mark.parametrize("problem", ["smoke", "matrix", "coupled", "narrow"])
    def test_every_time_is_its_separate_test_bitwise(self, smoke_solution, problem, paths, sub):
        # Each time reads the tails of one sampling from node 0, so a report
        # does not depend on the times that share its call.
        spec, th, p2, v, kw = ladder_inputs(smoke_solution, problem)
        spike = SpikeSpec(v=v, epsilons=(0.25, 0.1, 0.05))
        cfg = SimConfig(paths=paths, seed=14, sub_steps=sub, x0=1.0)
        times = [0.5, 0.0, 0.75, 0.25]  # unsorted: the earliest is not first
        joint = spike_tests(spec, th, p2, cfg, spike, times, **kw)
        assert [rep.t for rep in joint] == times
        for t, rep in zip(times, joint):
            alone = spike_test(spec, th, p2, cfg, spike, t, **kw)
            assert rep.summary() == alone.summary()
            assert rep.closed_loop == alone.closed_loop
            assert any(r.delta != 0.0 for r in rep.rows)

    def test_one_sampling_per_call(self, smoke_200, monkeypatch):
        # The closed loop samples A, B, C and D at the fine steps and C and D
        # at the nodes, and for a run with rungs Chat, B, Bhat, Dhat and D at
        # the RK4 stages: 11 calls.  Each spike time samples its own weights
        # Q, R, M, N, G1 and G2.  The bundle, which has no rung, samples 6.
        calls = []
        call = TwoTimeKernel.__call__

        def counting(kernel, *args, **kwargs):
            calls.append(kernel)
            return call(kernel, *args, **kwargs)

        monkeypatch.setattr(TwoTimeKernel, "__call__", counting)
        suite_equilibrium(smoke_200, SimConfig(paths=200, seed=1))
        assert len(calls) == 11 + 6 * 4  # the suite's four spike times
        calls.clear()
        simulate_closed_loop(smoke_200.spec, smoke_200.theta_star, smoke_200.p2, SimConfig(paths=200, seed=1), 0.25)
        assert len(calls) == 6
        calls.clear()
        assert spike_tests(smoke_200.spec, smoke_200.theta_star, smoke_200.p2, SimConfig(paths=200, seed=1),
                           SpikeSpec(), [], lam=smoke_200.lam, residual=smoke_200.residual) == []
        assert not calls

    def test_fine_step_j_lies_at_j_fine_steps_from_0(self):
        # At one sub-step a run from t = 0.25 samples at the grid nodes, and at
        # two its rows are those of the run from t = 0 from fine step 2 i0.
        spec, th, p2 = matrix_inputs("coupled")
        c, i0 = spec.coeffs, spec.grid.index_of(0.25)
        left = spec.grid.nodes[i0:-1]
        run = _LadderRun(_ClosedLoop(spec, th, p2, 1), SimConfig(paths=8), 0.25, np.zeros(2), [])
        assert np.array_equal(run.a_fine, c.A(left) + c.B(left) @ th.data[i0:-1])
        assert np.array_equal(run.c_fine, c.C(left) + c.D(left) @ th.data[i0:-1])
        cfg, v = SimConfig(paths=8, sub_steps=2), np.array([1.0, -0.5])
        late, early = (_LadderRun(_ClosedLoop(spec, th, p2, 2), cfg, t, v, [3]) for t in (0.25, 0.0))
        for name in ("a_fine", "c_fine", "a_h", "c_t", "drive_h", "drive_w"):
            assert np.array_equal(getattr(late, name), getattr(early, name)[2 * i0 :]), name

    def test_no_times_no_reports(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        assert spike_tests(spec, th, p2, SimConfig(paths=16), SpikeSpec(), [],
                           lam=smoke_solution.lam, residual=smoke_solution.residual) == []

    @pytest.mark.parametrize("sub", [1, 2])
    def test_buffered_scalar_kernel_is_the_plain_one_bitwise(self, smoke_solution, sub):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        for t in (0.0, 0.25, 0.5, 0.75):
            cfg = SimConfig(paths=500, seed=11, sub_steps=sub, x0=1.0)
            left = spec.grid.steps - spec.grid.index_of(t)
            # The last ladder has a rung that reaches the horizon.
            for rungs in ([64, 20, 5, 1], [left, 3]):
                run = _LadderRun(_ClosedLoop(spec, th, p2, sub), cfg, t, np.array([1.0]), rungs)
                incs = whole_block(cfg.seed, 0, run.F, cfg.paths, run.hf)
                weights = run._weights()
                got = send_all(_primed(run._block(cfg.paths, weights, _scratch(run, cfg.paths))), incs)
                want = plain_block_scalar(run, incs, scalar_weights(run, weights))
                for a, b in zip(got, want):  # base, cross, quad
                    assert np.array_equal(a, b), (t, rungs)

    def test_pass_sums_are_the_plain_formula_bitwise(self, rng):
        # One buffer serves both directions; the sums are those of the plain expressions.
        base, cross, quad = rng.standard_normal(500), rng.standard_normal((3, 500)), rng.standard_normal((3, 500))
        kept = cross.copy(), quad.copy()
        sums = _PassSums(3)
        sums.add(base, cross, quad, np.empty(quad.size))
        for sign, d in enumerate((0.5 * (quad + cross), 0.5 * (quad - cross))):
            assert np.array_equal(sums.sum_d[sign], d.sum(axis=1))
            assert np.array_equal(sums.sumsq_d[sign], (d**2).sum(axis=1))
        assert np.array_equal(cross, kept[0]) and np.array_equal(quad, kept[1])

    def test_suite_draws_each_block_once(self, smoke_solution, monkeypatch):
        # suite_equilibrium's four spike times share one draw per block,
        # sized for t = 0, its earliest, and streamed in chunks of rows.
        generator = simulate._generator
        draws, threads = {}, set()

        def recording(seed, block):
            gen = generator(seed, block)

            class Recorder:
                def standard_normal(self, out):
                    draws.setdefault((seed, block), []).append(out.shape)
                    threads.add((threading.current_thread(), threading.active_count()))
                    return gen.standard_normal(out=out)

            return Recorder()

        monkeypatch.setattr(simulate, "_generator", recording)
        before = threading.active_count()
        report = suite_equilibrium(smoke_solution, SimConfig(paths=BLOCK_PATHS + 100, seed=5, x0=1.0))
        assert report.passed
        # One worker thread draws every block, and it is gone after the call.
        ((worker, count),) = threads
        assert worker is not threading.current_thread() and count == before + 1
        assert threading.active_count() == before
        steps = smoke_solution.spec.grid.steps
        assert list(draws) == [(5, 0), (5, 1)]
        for (_, block), sizes in draws.items():
            assert sum(rows for rows, _ in sizes) == steps
            assert max(rows for rows, _ in sizes) == CHUNK_ROWS
            assert {width for _, width in sizes} == {(BLOCK_PATHS, 100)[block]}

    def test_every_chunk_of_a_call_is_drawn_into_one_buffer(self, smoke_200, monkeypatch):
        # The worker draws in place, into the slots of one buffer per call;
        # the chunks recorded keep the first call's buffer alive, so the
        # second call's cannot take its place.
        generator = simulate._generator
        chunks = []

        def recording(seed, block):
            gen = generator(seed, block)

            class Recorder:
                def standard_normal(self, out):
                    chunks.append(out)
                    return gen.standard_normal(out=out)

            return Recorder()

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        monkeypatch.setattr(simulate, "_generator", recording)
        spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        cfg = SimConfig(paths=BLOCK_PATHS + 5, seed=2, x0=1.0)  # a full block and a narrow one

        def call():
            chunks.clear()
            spike_tests(spec, th, p2, cfg, SpikeSpec(v=1.0, epsilons=(0.25, 0.1)), [0.0, 0.25, 0.5],
                        lam=smoke_200.lam, residual=smoke_200.residual)
            return list(chunks)

        first, second = call(), call()
        slot = CHUNK_ROWS * BLOCK_PATHS * np.dtype(float).itemsize
        for drawn in (first, second):
            assert len(drawn) == 2 * -(-spec.grid.steps // CHUNK_ROWS)
            (ring,) = {id(owner(chunk)): owner(chunk) for chunk in drawn}.values()
            assert ring.nbytes == _SLOTS * slot
            slots = {(chunk.ctypes.data - ring.ctypes.data) // slot for chunk in drawn}
            assert slots <= set(range(_SLOTS))
        assert not np.shares_memory(first[0], second[0])


class TestOneBlockLive:
    """No call holds a whole block of increments: the rows stream in chunks."""

    @pytest.mark.parametrize("call", ["spike_tests", "perturbation_scaling", "bsde_residual_check"])
    def test_peak_stays_below_half_a_block(self, smoke_solution_1000, call):
        sol = smoke_solution_1000
        spec, th, p2 = sol.spec, sol.theta_star, sol.p2
        cfg = SimConfig(paths=2 * BLOCK_PATHS, seed=3, x0=1.0)
        spike = SpikeSpec(v=1.0)
        run = {
            "spike_tests": lambda: spike_tests(spec, th, p2, cfg, spike, [0.0, 0.5],
                                               lam=sol.lam, residual=sol.residual),
            "perturbation_scaling": lambda: perturbation_scaling(spec, th, p2, cfg, spike, 0.0),
            "bsde_residual_check": lambda: bsde_residual_check(spec, th, p2, cfg),
        }[call]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = spec.grid.steps * BLOCK_PATHS * np.dtype(float).itemsize  # one block of increments
        assert peak < 0.5 * block, peak / block

    @pytest.mark.parametrize("spiked", [False, True])
    def test_bundle_route_holds_little_beyond_its_bundle(self, smoke_200, spiked):
        # A (paths, nodes, n) temporary on top of X, Y and Z reads 1.0 here;
        # streaming, and Y and Z each one einsum with its node terms added
        # in place, read about 0.05.
        spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        cfg = SimConfig(paths=2 * BLOCK_PATHS, seed=3, x0=1.0)
        tracemalloc.start()
        try:
            if spiked:
                bundle = simulate_spike(spec, th, p2, cfg, SpikeSpec(v=1.0), 0.25)
            else:
                bundle = simulate_closed_loop(spec, th, p2, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (bundle.X, bundle.Y, bundle.Z))
        assert peak - held < 0.5 * bundle.X.nbytes, (peak - held) / bundle.X.nbytes

    def test_a_kept_bundle_holds_its_paths_and_one_draw_window(self, smoke_solution_1000):
        # simulate --dump-paths keeps 100 paths of two full blocks: X, Y and Z
        # of (100, 1 001, 1) each, 2.4 MB, the 1.05 MB draw window and the
        # run's deterministic arrays read 3.6-4.3 MB.  Stepping every path
        # of the first block held X, Y and Z of 8 192 paths, 197 MB.
        sol = smoke_solution_1000
        cfg = SimConfig(paths=2 * BLOCK_PATHS, seed=3, x0=1.0)
        tracemalloc.start()
        try:
            bundle = simulate_closed_loop(sol.spec, sol.theta_star, sol.p2, cfg, keep=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bundle.paths == 100
        assert peak < 5e6, peak / 1e6


class TestOneScratchPerStream:
    """The spike times of one stream share one stepper scratch; each adds only its own state."""

    def test_the_steppers_of_one_call_share_their_scratch(self, smoke_200, monkeypatch):
        spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        cfg = SimConfig(paths=BLOCK_PATHS + 5, seed=2, x0=1.0)  # a full block and a narrow one
        steppers = []
        init = simulate._Stepper.__init__

        def recording(self, *args):
            init(self, *args)
            steppers.append(self)

        monkeypatch.setattr(simulate._Stepper, "__init__", recording)

        def call():
            steppers.clear()
            spike_tests(spec, th, p2, cfg, SpikeSpec(v=1.0, epsilons=(0.25, 0.1)), [0.0, 0.25, 0.5],
                        lam=smoke_200.lam, residual=smoke_200.residual)
            return list(steppers)

        first, second = call(), call()
        assert len(first) == 6  # three times, two blocks
        for a, b in itertools.combinations(first, 2):
            assert np.shares_memory(a.yt, b.yt)
            # f starts where yt ends, which is sooner for a narrower block
            assert np.shares_memory(a.f, b.f) == (a.f.shape == b.f.shape)
        assert not any(np.shares_memory(a.yt, b.yt) for a in first for b in second)

    def test_four_spike_times_hold_one_draw_window_and_one_scratch(self, smoke_solution_1000):
        # At 8 192 paths (one full block) and 8 rungs, with 8 B per entry:
        #   the draw window, the call's one buffer of _SLOTS = 4 slots of
        #   CHUNK_ROWS = 4 rows:                                  4 x 4 x 8192 x 8 B = 1.05 MB;
        #   the one scratch, yt (1, 9, 8192) and f (1, 1, 8192):                     0.7 MB;
        #   per run its state, y (1, 10, 8192), cross and quad (8, 8192) each,
        #   base, A and B (8192) each:                                                1.9 MB;
        #   per run its deterministic arrays and weights, 0.4 MB at t = 0,
        #   0.3, 0.2 and 0.1 MB later:                            together            0.9 MB;
        # 1.05 + 0.7 + 4 x 1.9 + 0.9 = 10.3 MB; it reads 10.58 MB.  A fresh
        # chunk of 16 rows per hand-over read 13.44 MB, four chunks alive at
        # a hand-over; a scratch per run and chunks of 32 rows read 21.2 MB.
        sol = smoke_solution_1000
        cfg = SimConfig(paths=BLOCK_PATHS, seed=3, x0=1.0)
        tracemalloc.start()
        try:
            spike_tests(sol.spec, sol.theta_star, sol.p2, cfg, SpikeSpec(v=1.0), [0.0, 0.25, 0.5, 0.75],
                        lam=sol.lam, residual=sol.residual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11e6, peak / 1e6


def blocks_of(paths):
    """(block, start, width) of every RNG block of ``paths`` paths."""
    return [(b, start, min(BLOCK_PATHS, paths - start)) for b, start in enumerate(range(0, paths, BLOCK_PATHS))]


@contextlib.contextmanager
def whole_block_increments(seed, paths, steps, hf):
    """``simulate._increments`` as it was: each block drawn whole, in the calling thread."""
    yield ((start, width, iter(whole_block(seed, block, steps, width, hf))) for block, start, width in blocks_of(paths))


def whole_block_stream(runs):
    """``simulate._stream`` as it was: each block drawn whole, then every
    run's kernel over the leading rows of the block, one run after another."""
    cfg = runs[0].cfg
    steps = max(run.F for run in runs)
    scratch = _scratch(runs[0], cfg.paths)
    passes = [(run.F, run.kernel(), _PassSums(len(run.eps_steps))) for run in runs]
    for block, _, width in blocks_of(cfg.paths):
        incs = whole_block(cfg.seed, block, steps, width, runs[0].hf)
        for fine, start, sums in passes:
            sums.add(*send_all(start(width, scratch), incs[:fine]), scratch)
    return [(sums.sum_d, sums.sumsq_d, sums.moments) for _, _, sums in passes]


def oracle_outputs(smoke_200, problem, cfg):
    """A function of no arguments that returns every Monte-Carlo output on
    ``problem`` under ``cfg``: spike tests at several times, a spike bundle,
    the perturbation moments and the backward-equation residual."""
    nodes = smoke_200.spec.grid.nodes
    if problem == "smoke":  # n = 1
        spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        lam, residual = smoke_200.lam, smoke_200.residual
        spike = SpikeSpec(v=1.0, epsilons=(0.25, 0.1, 0.05))
        # Fine steps per run: below one chunk (nodes[-3]), whole chunks
        # (nodes[-33]) and neither (0 and 0.5) at one sub-step.
        times = [0.5, 0.0, float(nodes[-3]), float(nodes[-33])]
    else:  # n = k = 2, 40 steps
        spec, th, p2 = matrix_inputs(problem)
        lam, residual = spike_fields(spec, th, p2)
        spike = SpikeSpec(v=np.array([1.0, -0.5]), epsilons=(0.1,))
        times = [0.0, float(spec.grid.nodes[-3])]

    def outputs():
        reports = spike_tests(spec, th, p2, cfg, spike, times, lam=lam, residual=residual)
        bundle = simulate_spike(spec, th, p2, cfg, spike, 0.1, 0.5)
        return (
            [(rep.summary(), rep.closed_loop) for rep in reports],
            perturbation_scaling(spec, th, p2, cfg, spike, 0.5),
            bsde_residual_check(spec, th, p2, cfg),
            bundle.X.tobytes() + bundle.Y.tobytes() + bundle.Z.tobytes(),
        )

    return outputs


class TestStreamedRows:
    """The streamed rows, stepped side by side, give what whole blocks give."""

    @pytest.mark.parametrize("sub", [1, 2])
    @pytest.mark.parametrize("paths", [1, 300, BLOCK_PATHS, BLOCK_PATHS + 1, 2 * BLOCK_PATHS + 5])
    @pytest.mark.parametrize("problem", ["smoke", "matrix", "coupled"])
    def test_bitwise_the_whole_block_oracle(self, smoke_200, problem, paths, sub, monkeypatch):
        outputs = oracle_outputs(smoke_200, problem, SimConfig(paths=paths, seed=14, sub_steps=sub, x0=1.0))
        streamed = outputs()
        monkeypatch.setattr(simulate, "_stream", whole_block_stream)
        monkeypatch.setattr(simulate, "_increments", whole_block_increments)
        assert streamed == outputs()

    @pytest.mark.parametrize("problem", ["smoke", "coupled"])
    def test_bitwise_the_whole_block_oracle_under_fast_switching(self, smoke_200, problem, monkeypatch):
        # The interpreter switching threads every microsecond: a consumer
        # that read a row after asking for the next would see its slot drawn
        # over by the worker.
        outputs = oracle_outputs(smoke_200, problem, SimConfig(paths=2 * BLOCK_PATHS + 5, seed=14, x0=1.0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            streamed = outputs()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(simulate, "_stream", whole_block_stream)
        monkeypatch.setattr(simulate, "_increments", whole_block_increments)
        assert streamed == outputs()


    def test_concurrent_calls_under_fast_switching(self, smoke_200):
        # Four callers, each with a worker thread of its own, on a machine of
        # a few cores, the interpreter switching threads every microsecond:
        # every call still reads its own rows, in order.
        spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        cfg = SimConfig(paths=BLOCK_PATHS + 5, seed=2, x0=1.0)
        spike = SpikeSpec(v=1.0, epsilons=(0.25, 0.1))

        def call():
            return [rep.summary() for rep in spike_tests(spec, th, p2, cfg, spike, [0.0, 0.5],
                                                         lam=smoke_200.lam, residual=smoke_200.residual)]

        want = call()
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda: results.append(call()), daemon=True) for _ in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [want] * 4


def call_in_thread(fn, timeout=60.0):
    """Run fn in a thread of its own; the exception it raised, if it ended within the timeout."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), "the call did not end"
    return raised[0] if raised else None


class TestStreamFailure:
    """An error on either side of the hand-over ends the call and its worker thread."""

    @pytest.fixture
    def two_block_spike_tests(self, smoke_200):
        spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
        cfg = SimConfig(paths=2 * BLOCK_PATHS, seed=3, x0=1.0)
        return lambda: spike_tests(spec, th, p2, cfg, SpikeSpec(v=1.0), [0.0, 0.5],
                                   lam=smoke_200.lam, residual=smoke_200.residual)

    def test_a_kernel_error_mid_block(self, two_block_spike_tests, monkeypatch):
        boom = RuntimeError("kernel")

        def kernel(self):
            def start(width, scratch):
                def failing():
                    for _ in range(3 * CHUNK_ROWS):
                        yield
                    time.sleep(0.5)  # the worker draws every chunk it may and waits for the next
                    raise boom

                return _primed(failing())

            return start

        monkeypatch.setattr(_LadderRun, "kernel", kernel)
        before = threading.active_count()
        assert call_in_thread(two_block_spike_tests) is boom
        assert threading.active_count() == before

    def test_a_draw_error_mid_block(self, two_block_spike_tests, monkeypatch):
        boom = RuntimeError("draw")
        generator = simulate._generator
        chunks = itertools.count()

        def failing(seed, block):
            gen = generator(seed, block)

            class Failing:
                def standard_normal(self, out):
                    if next(chunks) == 3:
                        raise boom
                    return gen.standard_normal(out=out)

            return Failing()

        monkeypatch.setattr(simulate, "_generator", failing)
        before = threading.active_count()
        assert call_in_thread(two_block_spike_tests) is boom
        assert threading.active_count() == before


class TestBsdeResidual:
    def test_coupled_problem_has_a_live_backward_state(self):
        # Every term that the matrix preset leaves at zero is nonzero here.
        spec, th, p2 = matrix_inputs("coupled")
        cfg = SimConfig(paths=50, seed=1, x0=1.0)
        base = simulate_closed_loop(spec, th, p2, cfg, 0.5)
        spiked = simulate_spike(spec, th, p2, cfg, SpikeSpec(v=np.array([1.0, -0.5])), eps=0.125, t=0.5)
        assert np.all(np.any(spiked.p7v != 0.0, axis=0))  # every entry of P7 v
        assert np.all(np.any(base.Y != 0.0, axis=(0, 1))) and np.all(np.any(base.Z != 0.0, axis=(0, 1)))
        assert not np.array_equal(spiked.Y, base.Y) and not np.array_equal(spiked.Z, base.Z)
        for sub in (1, 2):
            assert bsde_residual_check(spec, th, p2, SimConfig(paths=50, seed=1, sub_steps=sub)) > 0.0

    def test_zero_problem_zero_residual(self):
        spec = build_scalar(D=1.0, steps=40)
        th, p2 = closed_loop_inputs(spec)
        assert bsde_residual_check(spec, th, p2, SimConfig(paths=50, seed=1)) == 0.0

    def test_zero_couplings_exact_zero(self):
        spec = build_scalar(A=0.2, C=0.5, Q=1.0, steps=40)
        th, p2 = closed_loop_inputs(spec)
        assert bsde_residual_check(spec, th, p2, SimConfig(paths=50, seed=1)) == 0.0

    def test_residual_halves_with_substeps(self, smoke_solution):
        spec, th, p2 = smoke_solution.spec, smoke_solution.theta_star, smoke_solution.p2
        r1 = bsde_residual_check(spec, th, p2, SimConfig(paths=4000, seed=3, sub_steps=1))
        r2 = bsde_residual_check(spec, th, p2, SimConfig(paths=4000, seed=3, sub_steps=2))
        assert 0.35 <= r2 / r1 <= 0.65


def test_spike_spec_validation():
    with pytest.raises(ValueError):
        SpikeSpec(v=1.0, epsilons=(0.1, 0.2))
    with pytest.raises(ValueError):
        SpikeSpec(v=1.0, epsilons=())


@pytest.mark.parametrize("seed, same", [(-1, 2**64 - 1), (5, 5 + 2**64), (-(2**40), 2**64 - 2**40)])
def test_the_seed_enters_modulo_2_64(seed, same):
    for block in (0, 3):
        want = simulate._generator(same, block).standard_normal(64)
        assert np.array_equal(simulate._generator(seed, block).standard_normal(64), want)


def test_every_key_has_a_stream_of_its_own():
    # The block is the seed's spawn key, never more entropy: appended to the
    # seed's 32-bit words, it would give (2**32, 0) and (0, 1) one stream.
    keys = [(0, 0), (0, 1), (1, 0), (2**32, 0), (2**32, 1), (1, 2**32), (2**64 - 1, 0), (2**32 - 1, 2**32 - 1)]
    firsts = {simulate._generator(seed, block).standard_normal() for seed, block in keys}
    assert len(firsts) == len(keys)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(paths=0)
    with pytest.raises(ValueError):
        SimConfig(sub_steps=0)


@pytest.mark.parametrize("count", ["paths", "sub_steps"])
def test_sim_config_rejects_a_non_integer_count(count):
    with pytest.raises(ValueError, match=count):
        SimConfig(**{count: 1.5})


@pytest.mark.parametrize("value", [{"paths": True}, {"sub_steps": True}, {"seed": True}, {"seed": 1.5}])
def test_sim_config_rejects_a_bool_and_a_non_integer_seed(value):
    # True would run one path or one sub-step, and seed 1.5 would draw seed 1
    (name,) = value
    with pytest.raises(ValueError, match=name):
        SimConfig(**value)
    assert SimConfig(seed=np.int64(-3)).seed == -3


@pytest.mark.parametrize("epsilons", [(np.nan,), (np.inf, 1.0)])
def test_spike_spec_rejects_non_finite_epsilons(epsilons):
    with pytest.raises(ValueError, match="finite"):
        SpikeSpec(v=1.0, epsilons=epsilons)


def test_a_run_may_start_on_the_last_interval(smoke_200):
    # t = T - h: one coarse interval, so two range nodes and a ladder of one-step rungs.
    spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
    t = float(spec.grid.nodes[-2])
    cfg = SimConfig(paths=16, seed=0, x0=1.0)
    assert simulate_closed_loop(spec, th, p2, cfg, t).X.shape[1] == 2
    reports = spike_tests(spec, th, p2, cfg, SpikeSpec(v=1.0), [t], lam=smoke_200.lam, residual=smoke_200.residual)
    assert len(reports) == 1
    assert {row.eps_used for row in reports[0].rows} == {spec.grid.h}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_x0_is_rejected(smoke_200, value):
    spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
    with pytest.raises(ValueError, match="x0 must be finite"):
        simulate_closed_loop(spec, th, p2, SimConfig(paths=8, seed=0, x0=value))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_v_is_rejected(smoke_200, value):
    spec, th, p2 = smoke_200.spec, smoke_200.theta_star, smoke_200.p2
    with pytest.raises(ValueError, match="v must be finite"):
        spike_test(spec, th, p2, SimConfig(paths=8, seed=0), SpikeSpec(v=value), 0.0,
                   lam=smoke_200.lam, residual=smoke_200.residual)
