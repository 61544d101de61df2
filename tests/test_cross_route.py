"""Cross-route property tests: the factor route against the dense route.

Problems with drawn constant, discounted and difference weights, scalar and
with n = 2, at drawn gains.  The factor route (lag factors advanced node by
node) must give the Riccati diagonals P1(t;t), P3(t;t) and the integral-route
field p1t of the dense route (every kernel sampled at every (s, t)) to 1e-12
relative.  The examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fbslq.equilibrium import _Workspace
from fbslq.fields import Strategy, TimeGrid
from fbslq.kernels import LagKernel
from fbslq.problem import Coefficients, Dimensions, ProblemSpec, Weights
from fbslq.riccati import solve_p2, two_time_diagonals
from tests.test_riccati import dense_kernels, max_rel_gap

CASES = settings(max_examples=40, deadline=None, derandomize=True, database=None)
RTOL = 1e-12


@st.composite
def lag_kernels(draw, size, rng):
    """A constant, discounted or difference kernel with symmetric size x size parameters."""

    def sym():
        a = rng.uniform(-1.0, 1.0, (size, size))
        return 0.5 * (a + a.T)

    kind = draw(st.sampled_from(["constant", "discounted", "difference"]))
    if kind == "constant":
        return LagKernel(0.0, [sym()])
    if kind == "discounted":
        return LagKernel(draw(st.floats(-3.0, 12.0)), [sym()])
    alpha = sym()
    return LagKernel(0.0, [sym(), alpha])


@st.composite
def problems(draw, n, m, k):
    """Coefficients affine in time with random matrices, and drawn lag weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def affine(shape):
        alpha = 0.5 * rng.standard_normal(shape)
        return LagKernel(0.0, [0.5 * rng.standard_normal(shape), alpha])

    def sym_fn(size):
        a = rng.uniform(-1.0, 1.0, (size, size))
        return LagKernel(0.0, [0.5 * (a + a.T)])

    steps = draw(st.integers(4, 24))
    spec = ProblemSpec(
        dims=Dimensions(n, m, k),
        coeffs=Coefficients(
            A=affine((n, n)), B=affine((n, k)), C=affine((n, n)), D=affine((n, k)),
            Ahat=affine((m, n)), Bhat=affine((m, k)), Chat=affine((m, m)), Dhat=affine((m, m)),
            H=rng.standard_normal((m, n)), horizon=1.0,
        ),
        weights=Weights(
            Q=draw(lag_kernels(n, rng)), R=draw(lag_kernels(k, rng)),
            M=draw(lag_kernels(m, rng)), N=draw(lag_kernels(m, rng)),
            G1=sym_fn(n), G2=sym_fn(m),
        ),
        grid=TimeGrid(1.0, steps),
    )
    theta = Strategy(spec.grid, 0.5 * rng.standard_normal((steps + 1, k, n)))
    return spec, theta


def assert_diagonals_match(spec, theta):
    p2 = solve_p2(spec, theta)
    got = two_time_diagonals(spec, theta, p2)
    want = two_time_diagonals(dense_kernels(spec), theta, p2)
    for g, w in zip(got, want):
        assert max_rel_gap(g.data, w.data) <= RTOL


@CASES
@given(problems(1, 1, 1))
def test_scalar_diagonals_match_the_dense_sweep(case):
    assert_diagonals_match(*case)


@CASES
@given(problems(2, 2, 1))
def test_matrix_diagonals_match_the_dense_sweep(case):
    assert_diagonals_match(*case)


@CASES
@given(problems(1, 1, 1), st.data())
def test_p1_tilde_matches_the_dense_quadrature(case, data):
    spec, theta = case
    th = theta.flat()
    p2t = solve_p2(spec, theta).flat()
    factor, dense = _Workspace(spec), _Workspace(dense_kernels(spec))
    want = dense.span_p1_tilde(th, p2t, 0, dense.terminal())[0]
    assert max_rel_gap(factor.span_p1_tilde(th, p2t, 0, factor.terminal())[0], want) <= RTOL
    lo = data.draw(st.integers(0, spec.grid.steps))
    hi = data.draw(st.integers(lo, spec.grid.steps))
    span = factor.span_p1_tilde(th, p2t, lo, factor.terminal())[0]
    assert max_rel_gap(span[: hi + 1 - lo], want[lo : hi + 1]) <= RTOL
