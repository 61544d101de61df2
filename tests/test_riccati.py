import math
from dataclasses import replace

import numpy as np
import pytest

from fbslq.fields import Strategy, TimeGrid
from fbslq.kernels import CallableKernel, LagKernel
from fbslq.matrixkit import range_residual, specnorm
from fbslq.presets import (
    assumption_smoke_problem,
    classical_reduction_problem,
    example_2_5_problem,
)
from fbslq.problem import Coefficients, Dimensions, ProblemSpec, Weights
from fbslq.riccati import (
    P2Field,
    _affine_recursion,
    characterization_residual,
    check_constraints,
    feedback_map,
    gain_denominator_numerator,
    solve_p1,
    solve_p2,
    solve_p3,
    two_time_diagonals,
)
from tests.conftest import matrix_p2_problem
from tests.oracles import matrix_reduction_problem, steep_example_2_5_problem, trivial_problem


def build_scalar(A=0.0, B=0.0, C=0.0, D=0.0, Ahat=0.0, Bhat=0.0, Chat=0.0, Dhat=0.0,
                 H=0.0, Q=0.0, R=0.0, M=0.0, N=0.0, G1=0.0, G2=0.0, steps=100, T=1.0):
    return ProblemSpec(
        dims=Dimensions(1, 1, 1),
        coeffs=Coefficients(
            A=LagKernel(0.0, [A]), B=LagKernel(0.0, [B]), C=LagKernel(0.0, [C]), D=LagKernel(0.0, [D]),
            Ahat=LagKernel(0.0, [Ahat]), Bhat=LagKernel(0.0, [Bhat]), Chat=LagKernel(0.0, [Chat]),
            Dhat=LagKernel(0.0, [Dhat]), H=np.array([[float(H)]]), horizon=T,
        ),
        weights=Weights(
            Q=LagKernel(0.0, [Q]), R=LagKernel(0.0, [R]), M=LagKernel(0.0, [M]),
            N=LagKernel(0.0, [N]), G1=LagKernel(0.0, [G1]), G2=LagKernel(0.0, [G2]),
        ),
        grid=TimeGrid(T, steps),
    )


def zero_theta(spec):
    return Strategy.zeros(spec.grid, spec.dims.k, spec.dims.n)


def stage_form_p2(spec, theta):
    """Oracle: P2 by classical RK4 stepped stage by stage, two half-steps per interval.

    dP2/ds = -(P2 A_Th + Ahat_Th + Chat P2 + Dhat P2 C_Th), each stage sampling
    the coefficients at its own time under the interval's gain.
    """
    c = spec.coeffs
    nodes, g = spec.grid.nodes, 0.5 * spec.grid.h

    def rhs(s, p, th):
        a = c.A(s) + c.B(s) @ th
        ct = c.C(s) + c.D(s) @ th
        ah = c.Ahat(s) + c.Bhat(s) @ th
        return -(p @ a + ah + c.Chat(s) @ p + c.Dhat(s) @ p @ ct)

    def half_step(p, s_hi, s_md, s_lo, th):
        k1 = rhs(s_hi, p, th)
        k2 = rhs(s_md, p - 0.5 * g * k1, th)
        k3 = rhs(s_md, p - 0.5 * g * k2, th)
        k4 = rhs(s_lo, p - g * k3, th)
        return p - (g / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    p = np.asarray(c.H, dtype=float)
    at_nodes, at_mids = [p], []
    for j in range(spec.grid.steps - 1, -1, -1):
        lo, hi, th = nodes[j], nodes[j + 1], theta.data[j]
        p = half_step(p, hi, 0.25 * lo + 0.75 * hi, 0.5 * (lo + hi), th)
        at_mids.append(p)
        p = half_step(p, 0.5 * (lo + hi), 0.75 * lo + 0.25 * hi, lo, th)
        at_nodes.append(p)
    return np.array(at_nodes[::-1]), np.array(at_mids[::-1])


class TestSolveP2:
    def test_zero_data_gives_zero(self):
        spec = build_scalar()
        assert solve_p2(spec, zero_theta(spec)).sup_norm() == 0.0

    def test_constant_source_hand_integral(self):
        # dP2/ds = -a with A_Th = Chat = Dhat = 0: P2(t) = h0 + a (T - t).
        a, h0 = 0.7, 0.3
        spec = build_scalar(Ahat=a, H=h0)
        p2 = solve_p2(spec, zero_theta(spec))
        expected = h0 + a * (1.0 - spec.grid.nodes)
        assert np.allclose(p2.flat(), expected, atol=1e-12)

    def test_example_reduction_vanishes(self):
        p2 = solve_p2(example_2_5_problem(100), zero_theta(example_2_5_problem(100)))
        assert p2.sup_norm() == 0.0

    def test_order_of_accuracy_fourth(self):
        # A(s) = 0.5 + s and Ahat = k A: P2(t) = (H + k) exp(int_t^T A) - k.
        k, h0, T = 0.4, 0.3, 1.0

        def errors(steps):
            base = build_scalar(H=h0, steps=steps, T=T)
            coeffs = replace(base.coeffs, A=LagKernel(0.0, [0.5, 1.0]), Ahat=LagKernel(0.0, [0.5 * k, k]))
            spec = replace(base, coeffs=coeffs)
            p2 = solve_p2(spec, zero_theta(spec))

            def exact(t):
                return (h0 + k) * np.exp(0.5 * (T - t) + 0.5 * (T**2 - t**2)) - k

            return (np.max(np.abs(p2.flat() - exact(spec.grid.nodes))),
                    np.max(np.abs(p2.mids[:, 0, 0] - exact(spec.grid.midpoints))))

        coarse, fine = errors(20), errors(40)
        assert coarse[0] > 1e-9  # truncation, not roundoff, sets the ratio
        assert coarse[0] / fine[0] > 14.0
        assert coarse[1] / fine[1] > 14.0

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
    def test_matches_stage_form_rk4(self, m, n, rng):
        spec = matrix_p2_problem(200, n=n, m=m)
        theta = Strategy(spec.grid, 0.5 * rng.standard_normal((spec.grid.num_nodes, 1, n)))
        p2 = solve_p2(spec, theta)
        want_nodes, want_mids = stage_form_p2(spec, theta)
        scale = np.max(np.abs(want_nodes))
        assert np.max(np.abs(p2.data - want_nodes)) <= 1e-13 * scale
        assert np.max(np.abs(p2.mids - want_mids)) <= 1e-13 * scale

    def test_midpoints_must_match_grid(self):
        spec = build_scalar(Ahat=0.7, H=0.3, steps=10)
        p2 = solve_p2(spec, zero_theta(spec))
        assert p2.mids.shape == (10, 1, 1)
        with pytest.raises(ValueError):
            P2Field(spec.grid, p2.data, p2.mids[:-1])


def matmul_affine_recursion(maps, last):
    """Oracle: the affine recursion as one matrix product [z_{i+1}; 1] a step."""
    steps, w = maps.shape[:2]
    vals = np.ones((steps + 1, w + 1))
    vals[-1, :w] = last
    for i in range(steps - 1, -1, -1):
        np.matmul(maps[i], vals[i + 1], out=vals[i, :w])
    return vals[:, :w]


class TestAffineRecursion:
    @staticmethod
    def assert_matmul_bitwise(w, seed, cases):
        """Random (steps, w, w + 1) maps with +-0, +-inf and NaN entries against the oracle."""
        rng = np.random.default_rng(seed)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0])
        for _ in range(cases):
            steps = int(rng.integers(1, 40))
            maps = rng.standard_normal((steps, w, w + 1)) * 10.0 ** rng.integers(-3, 4, (steps, w, w + 1))
            hit = rng.random(maps.shape) < 0.3
            maps[hit] = rng.choice(special, hit.sum())
            last = rng.choice(np.append(special, rng.standard_normal(8)), w)
            with np.errstate(invalid="ignore", over="ignore"):
                got = _affine_recursion(maps, last)
                want = matmul_affine_recursion(maps, last)
            assert got.shape == want.shape == (steps + 1, w)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_scalar_float_loop_is_the_matrix_product_bitwise(self):
        self.assert_matmul_bitwise(1, 3, 200)

    @pytest.mark.parametrize("w", [2, 3, 7])
    def test_row_loop_is_the_matrix_product_bitwise(self, w):
        # np.dot over zipped rows runs the gemv that np.matmul runs, special values included.
        self.assert_matmul_bitwise(w, w, 200)


def _random_gain(spec, rng, scale=0.3):
    shape = (spec.grid.num_nodes, spec.dims.k, spec.dims.n)
    return Strategy(spec.grid, scale * rng.standard_normal(shape))


def dense_kernels(spec):
    """The same problem with Q, R, M and N behind callables, which have no lag factors.

    Every route then samples the kernels at each (s, t): the dense oracle.
    """
    def wrap(kern):
        return CallableKernel(lambda s, t: kern(s, t), kern.shape)

    w = spec.weights
    return replace(spec, weights=replace(w, Q=wrap(w.Q), R=wrap(w.R), M=wrap(w.M), N=wrap(w.N)))


DIAGONAL_PRESETS = [
    lambda: trivial_problem(60),
    lambda: example_2_5_problem(80),
    lambda: assumption_smoke_problem(80),
    lambda: classical_reduction_problem(80),
    lambda: matrix_reduction_problem(80),
    lambda: matrix_p2_problem(80, n=2, m=2),
    lambda: matrix_p2_problem(60, n=2, m=1),
]


def max_rel_gap(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), np.finfo(float).tiny)


def stage_form_two_time(spec, theta, p2=None):
    """Oracle: the whole P1 triangle (``p2`` None) or P3 triangle by classical
    RK4 stepped stage by stage, the sweeps of every t advanced together.

    dP/ds = -(P A_Th + A_Th' P + C_Th' P C_Th + W(s, t)), each stage sampling
    the coefficients, the kernels and P2 at its own time under the interval's
    gain, and every step symmetrized.
    """
    c, w = spec.coeffs, spec.weights
    nodes, mids, h = spec.grid.nodes, spec.grid.midpoints, spec.grid.h

    def tr(x):
        return np.swapaxes(x, -1, -2)

    def rhs(s, t, th, p, p2s):
        a = c.A(s) + c.B(s) @ th
        ct = c.C(s) + c.D(s) @ th
        if p2s is None:
            src = w.Q(s, t) + tr(th) @ w.R(s, t) @ th
        else:
            pc = p2s @ ct
            src = tr(p2s) @ w.M(s, t) @ p2s + tr(pc) @ w.N(s, t) @ pc
        return -(p @ a + tr(a) @ p + tr(ct) @ p @ ct + src)

    L, n = spec.grid.num_nodes, spec.dims.n
    data = np.full((L, L, n, n), np.nan)
    g1 = w.G1(nodes)
    p = 0.5 * (g1 + tr(g1)) if p2 is None else np.zeros((L, n, n))
    data[:, -1] = p
    for j in range(spec.grid.steps - 1, -1, -1):
        t, th, p = nodes[: j + 1], theta.data[j], p[: j + 1]
        hi, md, lo = ((None,) * 3 if p2 is None else (p2.data[j + 1], p2.mids[j], p2.data[j]))
        k1 = rhs(nodes[j + 1], t, th, p, hi)
        k2 = rhs(mids[j], t, th, p - 0.5 * h * k1, md)
        k3 = rhs(mids[j], t, th, p - 0.5 * h * k2, md)
        k4 = rhs(nodes[j], t, th, p - h * k3, lo)
        p = p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = 0.5 * (p + tr(p))
        data[: j + 1, j] = p
    return data


class TestSolveP1:
    def test_zero_weights_give_zero(self):
        spec = build_scalar(A=0.3, C=0.2)
        assert solve_p1(spec, zero_theta(spec)).sup_norm() == 0.0

    def test_example_zero_branch_diagonal_vanishes(self):
        spec = example_2_5_problem(400)
        diag = solve_p1(spec, zero_theta(spec)).diagonal()
        assert np.max(np.abs(diag.data)) <= 1e-10

    def test_example_half_branch_matches_closed_form(self):
        spec = example_2_5_problem(400)
        theta = Strategy.constant(spec.grid, -0.5)
        p1 = solve_p1(spec, theta)
        target = math.exp(-1.0) + 0.125  # quadrature of the closed form at t = 0
        assert p1.data[0, 0, 0, 0] == pytest.approx(target, abs=1e-10)

    def test_terminal_condition_exact(self):
        spec = example_2_5_problem(60)
        p1 = solve_p1(spec, zero_theta(spec))
        g1 = spec.weights.G1(spec.grid.nodes)
        assert np.array_equal(p1.data[:, -1], g1)

    def test_symmetry_preserved_matrix_case(self, rng):
        spec = matrix_reduction_problem(80)
        theta = Strategy(spec.grid, rng.standard_normal((spec.grid.num_nodes, 2, 2)) * 0.3)
        p1 = solve_p1(spec, theta)
        assert p1.max_asymmetry() <= 1e-10 * (1.0 + p1.sup_norm())

    def test_linearity_in_weights(self):
        # The equation is affine in (Q, R, G1) for a fixed gain.
        theta_val = 0.4
        spec_a = build_scalar(A=0.2, B=1.0, C=0.1, D=0.5, Q=0.7, R=0.2, G1=0.3)
        spec_b = build_scalar(A=0.2, B=1.0, C=0.1, D=0.5, Q=0.4, R=1.1, G1=0.6)
        spec_ab = build_scalar(A=0.2, B=1.0, C=0.1, D=0.5, Q=1.1, R=1.3, G1=0.9)
        th = Strategy.constant(spec_a.grid, theta_val)
        p_a = solve_p1(spec_a, th).data
        p_b = solve_p1(spec_b, th).data
        p_ab = solve_p1(spec_ab, th).data
        mask = ~np.isnan(p_ab)
        assert np.allclose((p_a + p_b)[mask], p_ab[mask], atol=1e-12)

    def test_order_of_accuracy_fourth(self):
        # Steep running weight: truncation dominates roundoff and the
        # vanishing-diagonal identity supplies the exact reference.
        errs = []
        for steps in (250, 500):
            spec = steep_example_2_5_problem(steps)
            diag = solve_p1(spec, zero_theta(spec)).diagonal()
            errs.append(np.max(np.abs(diag.data)))
        assert errs[0] / errs[1] > 12.0

    @pytest.mark.parametrize("build", DIAGONAL_PRESETS)
    def test_matches_stage_form_rk4(self, build, rng):
        # The dense sweep applies the step maps of _two_time_maps; the oracle
        # steps the stages, so it checks those maps independently.
        spec = dense_kernels(build())
        theta = _random_gain(spec, rng)
        p2 = solve_p2(spec, theta)
        for got, want in ((solve_p1(spec, theta).data, stage_form_two_time(spec, theta)),
                          (solve_p3(spec, theta, p2).data, stage_form_two_time(spec, theta, p2))):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            keep = ~np.isnan(want)
            scale = np.max(np.abs(want[keep]))
            assert np.max(np.abs(got[keep] - want[keep])) <= 1e-13 * scale


class TestSolveP3:
    def test_zero_p2_gives_zero(self):
        spec = build_scalar(M=1.0, N=1.0)
        th = zero_theta(spec)
        p2 = solve_p2(spec, th)
        assert p2.sup_norm() == 0.0
        assert solve_p3(spec, th, p2).sup_norm() == 0.0

    def test_zero_weights_give_zero(self):
        spec = build_scalar(H=1.0, Ahat=0.2)
        th = zero_theta(spec)
        p2 = solve_p2(spec, th)
        assert p2.sup_norm() > 0
        assert solve_p3(spec, th, p2).sup_norm() == 0.0

    def test_unit_source_hand_integral(self):
        # A_Th = C_Th = 0, P2 == 1, M == 1: dP3/ds = -1, so P3(t;t) = 1 - t.
        spec = build_scalar(H=1.0, M=1.0, N=0.8)
        th = zero_theta(spec)
        p2 = solve_p2(spec, th)
        assert np.allclose(p2.flat(), 1.0)
        diag = solve_p3(spec, th, p2).diagonal()
        assert np.allclose(diag.flat(), 1.0 - spec.grid.nodes, atol=1e-12)

    def test_terminal_is_zero(self):
        spec = build_scalar(H=0.5, Ahat=0.1, M=0.3, N=0.2)
        th = zero_theta(spec)
        p3 = solve_p3(spec, th, solve_p2(spec, th))
        assert np.max(np.abs(p3.data[:, -1])) == 0.0

    def test_linearity_in_weights(self):
        # For a fixed gain, P2 does not see (M, N) and P3 is linear in them.
        coeffs = dict(A=0.2, B=1.0, C=0.1, D=0.5, Ahat=0.3, Chat=-0.2, Dhat=0.4, H=0.8)
        spec_a = build_scalar(**coeffs, M=0.7, N=0.2)
        spec_b = build_scalar(**coeffs, M=0.4, N=1.1)
        spec_ab = build_scalar(**coeffs, M=1.1, N=1.3)
        th = Strategy.constant(spec_a.grid, 0.4)
        p2 = solve_p2(spec_a, th)
        p_a = solve_p3(spec_a, th, p2).data
        p_b = solve_p3(spec_b, th, p2).data
        p_ab = solve_p3(spec_ab, th, p2).data
        mask = ~np.isnan(p_ab)
        assert np.max(np.abs(p_ab[mask])) > 0.1
        assert np.allclose((p_a + p_b)[mask], p_ab[mask], atol=1e-12)


class TestTwoTimeDiagonals:
    """P1(t;t) and P3(t;t): the factor route for lag kernels, one stacked dense sweep otherwise."""

    @pytest.mark.parametrize("build", DIAGONAL_PRESETS)
    def test_bitwise_the_diagonals_of_the_separate_sweeps(self, build, rng):
        spec = dense_kernels(build())
        theta = _random_gain(spec, rng)
        p2 = solve_p2(spec, theta)
        p1d, p3d = two_time_diagonals(spec, theta, p2)
        assert np.array_equal(p1d.data, solve_p1(spec, theta).diagonal().data)
        assert np.array_equal(p3d.data, solve_p3(spec, theta, p2).diagonal().data)

    @pytest.mark.parametrize("build", DIAGONAL_PRESETS)
    def test_factor_route_matches_the_dense_sweeps(self, build, rng):
        spec = build()
        theta = _random_gain(spec, rng)
        p2 = solve_p2(spec, theta)
        p1d, p3d = two_time_diagonals(spec, theta, p2)
        assert max_rel_gap(p1d.data, solve_p1(spec, theta).diagonal().data) <= 1e-12
        assert max_rel_gap(p3d.data, solve_p3(spec, theta, p2).diagonal().data) <= 1e-12

    def test_p3_diagonal_symmetric_matrix_case(self, rng):
        spec = matrix_p2_problem(80, n=2, m=2)
        theta = _random_gain(spec, rng)
        _, p3d = two_time_diagonals(spec, theta, solve_p2(spec, theta))
        gap = np.max(np.abs(p3d.data - np.swapaxes(p3d.data, -1, -2)))
        assert p3d.sup_norm() > 0.1
        assert gap <= 1e-10 * (1.0 + p3d.sup_norm())

    def test_superposition_of_the_stacked_sources(self):
        # RK4 on a linear equation is a linear map: the P1 sweep of (Q, G1)
        # plus the P3 sweep of (M, N) is the P1 sweep of both sources.  With
        # A_Th = 0 and no hat terms P2 == H, so the P3 source P2^2 (M + C^2 N)
        # folds into a constant Q; C keeps the operator nontrivial.
        spec = build_scalar(C=0.6, H=0.5, Q=0.6, M=0.7, N=0.4, G1=0.9)
        th = zero_theta(spec)
        p2 = solve_p2(spec, th)
        assert np.array_equal(p2.flat(), np.full(spec.grid.num_nodes, 0.5))
        p1d, p3d = two_time_diagonals(spec, th, p2)
        folded = build_scalar(C=0.6, Q=0.6 + 0.25 * (0.7 + 0.36 * 0.4), G1=0.9)
        both = solve_p1(folded, th).diagonal()
        assert np.allclose(p1d.data + p3d.data, both.data, rtol=0.0, atol=1e-12)


class TestFeedbackMap:
    def test_theta0_cancels_when_invertible(self, smoke_spec):
        th = zero_theta(smoke_spec)
        p2 = solve_p2(smoke_spec, th)
        p1d = solve_p1(smoke_spec, th).diagonal()
        p3d = solve_p3(smoke_spec, th, p2).diagonal()
        out0 = feedback_map(smoke_spec, p1d, p3d, p2, Strategy.constant(smoke_spec.grid, 0.0))
        out5 = feedback_map(smoke_spec, p1d, p3d, p2, Strategy.constant(smoke_spec.grid, 5.0))
        assert np.max(np.abs(out0.data - out5.data)) <= 1e-10

    @pytest.mark.parametrize("theta0,expected", [(0.0, 0.0), (-0.5, -0.5)])
    def test_example_passthrough(self, theta0, expected):
        spec = example_2_5_problem(100)
        th = Strategy.constant(spec.grid, expected)
        p2 = solve_p2(spec, th)
        p1d = solve_p1(spec, th).diagonal()
        p3d = solve_p3(spec, th, p2).diagonal()
        out = feedback_map(spec, p1d, p3d, p2, Strategy.constant(spec.grid, theta0))
        assert np.allclose(out.data, expected, atol=1e-12)


class TestCheckConstraints:
    def test_example_zero_branch_all_pass(self):
        spec = example_2_5_problem(100)
        th = zero_theta(spec)
        p2 = solve_p2(spec, th)
        report = check_constraints(spec, *gain_denominator_numerator(
            spec, solve_p1(spec, th).diagonal(), solve_p3(spec, th, p2).diagonal(), p2
        ))
        assert report.all_pass

    def test_example_half_branch_range_fails_interior(self):
        spec = example_2_5_problem(100)
        th = Strategy.constant(spec.grid, -0.5)
        p2 = solve_p2(spec, th)
        report = check_constraints(spec, *gain_denominator_numerator(
            spec, solve_p1(spec, th).diagonal(), solve_p3(spec, th, p2).diagonal(), p2
        ))
        assert not report.range_pass
        assert not np.any(report.range_ok_per_node[:-1])
        assert report.psd_pass  # Lambda == 0 is still PSD

    @pytest.mark.parametrize("case", ["smoke", "zero branch", "half branch"])
    def test_range_audit_is_matrixkit_range_residual_bitwise(self, case, smoke_solution):
        # The audit reuses the feedback's pseudoinverse; its range outputs are range_residual's.
        if case == "smoke":
            sol = smoke_solution
            spec, th, p1d, p3d, p2 = sol.spec, sol.theta_star, sol.p1_diag, sol.p3_diag, sol.p2
        else:
            spec = example_2_5_problem(100)
            th = Strategy.constant(spec.grid, 0.0 if case == "zero branch" else -0.5)
            p2 = solve_p2(spec, th)
            p1d, p3d = solve_p1(spec, th).diagonal(), solve_p3(spec, th, p2).diagonal()
        report = check_constraints(spec, *gain_denominator_numerator(spec, p1d, p3d, p2))
        lam, gam = gain_denominator_numerator(spec, p1d, p3d, p2)
        resid = range_residual(lam, gam)
        bound = 1e-8 * (1.0 + specnorm(gam))
        worst = np.float64(report.range_worst_residual)
        assert worst.view(np.uint64) == np.max(resid).view(np.uint64)
        assert np.array_equal(report.range_ok_per_node, resid <= bound)
        assert report.range_worst_node == int(np.argmax(resid - bound))

    def test_psd_margin_at_converged_solution(self, smoke_solution):
        # Under the positivity floor the PSD constraint holds with margin.
        assert smoke_solution.constraint_report.psd_worst_eig >= 1.0


class TestFeedbackMapMatrix:
    def test_classical_gain_is_feedback_fixed_point(self):
        # Time-consistent matrix case: running the classical gain through the
        # Riccati route and the feedback map must return the same gain.
        from fbslq.verify import classical_riccati_feedback

        spec = matrix_reduction_problem(200)
        _, gain = classical_riccati_feedback(spec)
        p2 = solve_p2(spec, gain)
        p1d = solve_p1(spec, gain).diagonal()
        p3d = solve_p3(spec, gain, p2).diagonal()
        out = feedback_map(spec, p1d, p3d, p2, Strategy.zeros(spec.grid, 2, 2))
        assert np.max(np.abs(out.data - gain.data)) <= 1e-6


class TestCharacterizationResidual:
    def test_zero_problem_zero_gain(self):
        spec = build_scalar()
        resid = characterization_residual(spec, zero_theta(spec))
        assert resid.sup_norm() == 0.0

    def test_example_zero_branch_vanishes(self):
        spec = example_2_5_problem(200)
        resid = characterization_residual(spec, zero_theta(spec))
        assert resid.sup_norm() <= 1e-10

    def test_converged_solution_residual_small(self, smoke_solution):
        resid = characterization_residual(smoke_solution.spec, smoke_solution.theta_star)
        scale = 1.0 + smoke_solution.theta_star.sup_norm()
        assert resid.sup_norm() <= 1e-6 * scale

    def test_solution_fields_give_the_same_residual(self, smoke_solution):
        sol = smoke_solution
        resolved = characterization_residual(sol.spec, sol.theta_star)
        assert np.array_equal(sol.residual.data, resolved.data)


def test_strategy_grid_mismatch_rejected():
    spec = trivial_problem(50)
    other = Strategy.zeros(TimeGrid(1.0, 60), 1, 1)
    with pytest.raises(ValueError):
        solve_p1(spec, other)
