from dataclasses import replace

import numpy as np
import pytest

from fbslq.fields import TimeGrid
from fbslq.kernels import CallableFn, CallableKernel, LagKernel, TableKernel
from fbslq.presets import example_2_5_problem
from fbslq.problem import (
    Coefficients,
    Dimensions,
    ProblemSpec,
    Weights,
    _triangle_min,
    check_one_dim_positivity,
    validate,
)
from tests.oracles import check_lipschitz_in_t, matrix_reduction_problem, trivial_problem


def scalar_spec(Q=None, R=None, D=1.0, steps=50):
    return ProblemSpec(
        dims=Dimensions(1, 1, 1),
        coeffs=Coefficients(
            A=LagKernel(0.0, [0.0]),
            B=LagKernel(0.0, [0.0]),
            C=LagKernel(0.0, [0.0]),
            D=LagKernel(0.0, [D]),
            Ahat=LagKernel(0.0, [0.0]),
            Bhat=LagKernel(0.0, [0.0]),
            Chat=LagKernel(0.0, [0.0]),
            Dhat=LagKernel(0.0, [0.0]),
            H=np.array([[0.0]]),
            horizon=1.0,
        ),
        weights=Weights(
            Q=Q if Q is not None else LagKernel(0.0, [0.0]),
            R=R if R is not None else LagKernel(0.0, [1.0]),
            M=LagKernel(0.0, [0.0]),
            N=LagKernel(0.0, [1.0]),
            G1=LagKernel(0.0, [0.0]),
            G2=LagKernel(0.0, [0.0]),
        ),
        grid=TimeGrid(1.0, steps),
    )


def test_validate_well_formed_is_empty():
    assert validate(scalar_spec()).issues == []
    assert validate(trivial_problem(20)).ok


def test_validate_flags_dimension_mismatch():
    spec = scalar_spec()
    bad = ProblemSpec(
        dims=spec.dims,
        coeffs=Coefficients(
            A=spec.coeffs.A,
            B=LagKernel(0.0, [np.zeros((1, 2))]),  # n x (k+1)
            C=spec.coeffs.C,
            D=spec.coeffs.D,
            Ahat=spec.coeffs.Ahat,
            Bhat=spec.coeffs.Bhat,
            Chat=spec.coeffs.Chat,
            Dhat=spec.coeffs.Dhat,
            H=spec.coeffs.H,
            horizon=1.0,
        ),
        weights=spec.weights,
        grid=spec.grid,
    )
    report = validate(bad)
    assert any("dimension mismatch B" in issue for issue in report.issues)


def test_validate_flags_symmetry_violation():
    spec = scalar_spec(steps=20)
    bad = ProblemSpec(
        dims=Dimensions(2, 1, 1),
        coeffs=Coefficients(
            A=LagKernel(0.0, [np.zeros((2, 2))]),
            B=LagKernel(0.0, [np.zeros((2, 1))]),
            C=LagKernel(0.0, [np.zeros((2, 2))]),
            D=LagKernel(0.0, [np.zeros((2, 1))]),
            Ahat=LagKernel(0.0, [np.zeros((1, 2))]),
            Bhat=LagKernel(0.0, [0.0]),
            Chat=LagKernel(0.0, [0.0]),
            Dhat=LagKernel(0.0, [0.0]),
            H=np.zeros((1, 2)),
            horizon=1.0,
        ),
        weights=Weights(
            Q=LagKernel(0.0, [[[1.0, 2.0], [0.0, 1.0]]]),
            R=LagKernel(0.0, [1.0]),
            M=LagKernel(0.0, [0.0]),
            N=LagKernel(0.0, [0.0]),
            G1=LagKernel(0.0, [np.eye(2)]),
            G2=LagKernel(0.0, [0.0]),
        ),
        grid=spec.grid,
    )
    report = validate(bad)
    assert any("symmetry violation Q" in issue for issue in report.issues)


def test_validate_flags_non_finite():
    spec = scalar_spec(Q=LagKernel(0.0, [np.nan]))
    assert any("non-finite samples Q" in issue for issue in validate(spec).issues)


def test_validate_is_idempotent():
    spec = scalar_spec()
    assert validate(spec).issues == validate(spec).issues == []


def test_kernel_sampling_is_pure():
    k = LagKernel(0.7, [2.0])
    a = k(0.3, 0.1)
    b = k(0.3, 0.1)
    assert np.array_equal(a, b)


def test_discounted_kernel_diagonal_equals_base():
    k = LagKernel(1.3, [[[3.0]]])
    t = np.linspace(0, 1, 7)
    assert np.array_equal(k(t, t), np.broadcast_to(3.0, (7, 1, 1)))


def test_lipschitz_constant_kernels_pass():
    report = check_lipschitz_in_t(scalar_spec(), probe_count=50)
    assert report.passed
    assert report.empirical_constant == 0.0


def test_lipschitz_difference_kernel_is_one():
    report = check_lipschitz_in_t(scalar_spec(R=LagKernel(0.0, [0.0, 1.0])), probe_count=100)
    assert report.passed
    assert report.empirical_constant == pytest.approx(1.0, abs=1e-9)


def test_lipschitz_sqrt_kernel_fails():
    steps = 64
    grid = np.linspace(0.0, 1.0, steps + 1)
    ss, tt = np.meshgrid(grid, grid, indexing="ij")
    vals = np.sqrt(np.abs(ss - tt))[..., None, None]
    q = TableKernel(grid, grid, vals)
    report = check_lipschitz_in_t(scalar_spec(Q=q, steps=steps), probe_count=100)
    assert not report.passed
    per_gap = report.details["per_gap_constant"]
    # Ratio grows as the gap shrinks from 2h to h: Hoelder-1/2 signature.
    assert per_gap[0] > 1.3 * per_gap[1]


def test_lipschitz_rejects_zero_probes():
    with pytest.raises(ValueError):
        check_lipschitz_in_t(scalar_spec(), probe_count=0)


def test_positivity_pass_with_unit_floor():
    report = check_one_dim_positivity(scalar_spec())
    assert report.passed
    assert report.empirical_constant == pytest.approx(1.0)


def test_positivity_fails_for_degenerate_diffusion():
    report = check_one_dim_positivity(example_2_5_problem(50))
    assert not report.passed
    assert report.details["min_D_squared"] == 0.0


def test_positivity_fails_for_vanishing_diagonal():
    # R(s, t) = t gives R(t, t) = t: no positive floor at t = 0.
    grid = np.linspace(0.0, 1.0, 51)
    vals = np.broadcast_to(grid[None, :, None, None], (51, 51, 1, 1))
    spec = scalar_spec(R=TableKernel(grid, grid, vals))
    report = check_one_dim_positivity(spec)
    assert not report.passed
    assert report.details["min_R_diag"] == pytest.approx(0.0, abs=1e-12)


NAN_KERNEL = CallableKernel(lambda s, t: np.full(np.broadcast(s, t).shape + (1, 1), np.nan), (1, 1))
NAN_FN = CallableFn(lambda t: np.full(np.shape(t) + (1, 1), np.nan), (1, 1))


@pytest.mark.parametrize("slot,detail", [
    ("Q", "min_Q"), ("M", "min_M"), ("R", "min_R_diag"),
    ("N", "min_N_diag"), ("D", "min_D_squared"), ("G1", "min_G1"),
])
def test_positivity_fails_for_nan_weight(slot, detail):
    # A NaN fails the audit whichever minimum it reaches, not only the first one combined.
    spec = scalar_spec()
    if slot == "D":
        spec = replace(spec, coeffs=replace(spec.coeffs, D=NAN_FN))
    else:
        spec = replace(spec, weights=replace(spec.weights, **{slot: NAN_FN if slot == "G1" else NAN_KERNEL}))
    report = check_one_dim_positivity(spec)
    assert np.isnan(report.details[detail])
    assert not report.passed


LAG_KERNELS = {
    "constant+": LagKernel(0.0, [0.7]),
    "constant-": LagKernel(0.0, [-0.7]),
    "discounted+decay": LagKernel(0.8, [1.3]),
    "discounted-decay": LagKernel(0.8, [-1.3]),
    "discounted+growth": LagKernel(-0.8, [1.3]),
    "discounted-growth": LagKernel(-0.8, [-1.3]),
    "difference+": LagKernel(0.0, [-0.2, 0.9]),
    "difference-": LagKernel(0.0, [0.2, -0.9]),
}


@pytest.mark.parametrize("steps", [7, 200, 2000])
@pytest.mark.parametrize("name", LAG_KERNELS)
def test_lag_audit_is_the_dense_sweep_bitwise(name, steps):
    # A lag kernel is read at the L node lags; behind a callable it is swept over the triangle.
    kern = LAG_KERNELS[name]
    assert isinstance(kern, LagKernel)
    nodes = TimeGrid(2.5, steps).nodes
    got = _triangle_min(kern, nodes)
    want = _triangle_min(CallableKernel(lambda s, t: kern(s, t), kern.shape), nodes)
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_positivity_rejects_multidimensional():
    with pytest.raises(ValueError):
        check_one_dim_positivity(matrix_reduction_problem(20))


def test_grid_nodes_span_horizon():
    g = TimeGrid(2.0, 8)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0
    assert np.allclose(np.diff(g.nodes), g.h)
    with pytest.raises(ValueError):
        g.index_of(0.3)


def test_validate_flags_horizon_mismatch():
    spec = scalar_spec()
    bad = ProblemSpec(
        dims=spec.dims,
        coeffs=Coefficients(
            A=spec.coeffs.A, B=spec.coeffs.B, C=spec.coeffs.C, D=spec.coeffs.D,
            Ahat=spec.coeffs.Ahat, Bhat=spec.coeffs.Bhat, Chat=spec.coeffs.Chat,
            Dhat=spec.coeffs.Dhat, H=spec.coeffs.H, horizon=2.0,
        ),
        weights=spec.weights,
        grid=spec.grid,  # spans [0, 1]
    )
    assert any("horizon" in issue for issue in validate(bad).issues)
