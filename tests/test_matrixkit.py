import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbslq.matrixkit import default_rel_tol, min_eig, pinv, range_residual, specnorm
from tests.oracles import in_range, matrix_reduction_problem, penrose_residuals, psd_ok


def test_pinv_zero_matrix():
    assert np.array_equal(pinv(np.zeros((3, 3))), np.zeros((3, 3)))


def test_pinv_diagonal():
    got = pinv(np.diag([2.0, 0.0]))
    assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_column_vector_against_normal_equations():
    m = np.array([[1.0], [1.0]])
    # Full-column-rank oracle: (M^T M)^{-1} M^T.
    oracle = np.linalg.inv(m.T @ m) @ m.T
    assert np.allclose(pinv(m), oracle, atol=1e-14)
    assert np.allclose(pinv(m), [[0.5, 0.5]], atol=1e-14)


def test_pinv_scalar_convention():
    assert pinv(np.array([[4.0]]))[0, 0] == pytest.approx(0.25)
    assert pinv(np.array([[1e-300]]))[0, 0] == pytest.approx(1e300)
    assert pinv(np.array([[0.0]]))[0, 0] == 0.0


@pytest.mark.parametrize("c", [1.0, 1e-3])
def test_pinv_rank_cut_is_relative(c):
    # The cut scales with the largest singular value, so scaling M scales M^+
    # inversely, also when every singular value is below 1.
    m = np.diag([1.0, 1e-10])
    np.testing.assert_allclose(pinv(c * m), pinv(m) / c, rtol=1e-12, atol=0.0)


def test_pinv_rejects_non_finite():
    with pytest.raises(ValueError):
        pinv(np.array([[np.nan]]))


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 2), (2, 5)])
def test_penrose_identities_random(shape, rng):
    rel = default_rel_tol(shape)
    for trial in range(50):
        m = rng.standard_normal(shape)
        if trial % 3 == 0 and min(shape) > 1:
            m[:, -1] = m[:, 0]  # force rank deficiency
        bound = 10.0 * rel * max(specnorm(m), 1e-30)
        assert max(penrose_residuals(m, pinv(m))) <= bound


def test_range_residual_identity_and_zero():
    assert in_range(np.eye(3), np.arange(9.0).reshape(3, 3))
    assert range_residual(np.zeros((1, 1)), np.array([[2.0]])) == 2.0
    assert not in_range(np.zeros((1, 1)), np.array([[2.0]]))


def test_range_residual_rank_one():
    mbig = np.array([[1.0], [1.0]])
    msmall = np.array([[1.0, -1.0], [1.0, -1.0]])
    # Least-squares oracle: residual of each column projection is zero.
    for col in msmall.T:
        _, res, _, _ = np.linalg.lstsq(mbig, col[:, None], rcond=None)
        assert res.size == 0 or res[0] < 1e-24
    assert in_range(mbig, msmall)
    assert not in_range(mbig, np.array([[1.0], [-1.0]]))


def test_range_residual_self(rng):
    for _ in range(25):
        m = rng.standard_normal((4, 3))
        assert in_range(m, m)


def test_range_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        range_residual(np.eye(2), np.eye(3))


def test_min_eig_examples():
    assert psd_ok(np.eye(4))
    assert not psd_ok(np.diag([1.0, -0.5]))
    # Characteristic polynomial of [[2,1],[1,2]]: eigenvalues {1, 3}.
    assert psd_ok(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.isclose(min_eig(np.array([[2.0, 1.0], [1.0, 2.0]])), 1.0)


def test_min_eig_symmetrizes_first():
    m = np.array([[1.0, 1e-13], [0.0, 1.0]])
    assert psd_ok(m)


def test_min_eig_rejects_non_square():
    with pytest.raises(ValueError):
        min_eig(np.ones((2, 3)))


# -- the 1 x 1 path against the SVD/eigvalsh path it replaces --------------------


def svd_pinv(m):
    """The SVD pseudoinverse, as matrixkit computes it for larger matrices."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cut = default_rel_tol(m.shape) * np.max(s, axis=-1, keepdims=True, initial=0.0)
    inv = np.where(s > cut, np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return np.swapaxes(vt, -1, -2) @ (inv[..., None] * np.swapaxes(u, -1, -2))


def within_ulps(a, b, ulps):
    """Equal where either side is not finite, else at most ``ulps`` apart."""
    finite = np.isfinite(a) & np.isfinite(b)
    gap = np.abs(np.subtract(a, b, out=np.zeros_like(a), where=finite))
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.all(np.where(finite, gap <= ulps * scale, a == b))


# Magnitudes over 1e+-300, zeros of both signs and subnormals.
ENTRIES = st.one_of(
    st.builds(
        lambda sign, mant, e: sign * mant * 10.0**e,
        st.sampled_from([1.0, -1.0]),
        st.floats(1.0, 10.0),
        st.integers(-300, 300),
    ),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(ENTRIES, min_size=1, max_size=64))
def test_one_by_one_stacks_match_lapack(xs):
    # For |x| in 1e-100..1e100 (and 0) the direct path is the SVD/eigvalsh
    # result bit for bit.  Outside about 1e+-138 LAPACK rescales first, and
    # pinv and specnorm may then differ from it by up to 2 ulp.
    m = np.array(xs)[:, None, None]
    with np.errstate(over="ignore"):
        got, want = pinv(m), svd_pinv(m)
    norm, want_norm = specnorm(m), np.linalg.svd(m, compute_uv=False)[:, 0]
    eig, want_eig = min_eig(m), np.linalg.eigvalsh(0.5 * (m + m))[:, 0]
    inner = (np.abs(m[:, 0, 0]) >= 1e-100) & (np.abs(m[:, 0, 0]) <= 1e100) | (m[:, 0, 0] == 0.0)
    assert np.array_equal(got[inner].view(np.uint64), want[inner].view(np.uint64))
    assert np.array_equal(norm[inner].view(np.uint64), want_norm[inner].view(np.uint64))
    assert within_ulps(got, want, 2) and within_ulps(norm, want_norm, 2)
    assert np.array_equal(eig.view(np.uint64), want_eig.view(np.uint64))


def test_min_eig_of_one_by_one_skips_the_overflowing_symmetrization():
    # Above about 9e307 the eigvalsh path's 0.5 (m + m') overflows to +-inf;
    # the 1 x 1 path returns the entry.
    m = np.array([[[1e308]], [[-1.7e308]]])
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(0.5 * (m + m)))
    assert np.array_equal(min_eig(m), m[:, 0, 0])


@pytest.fixture
def lapack_calls(monkeypatch):
    """Names of the numpy.linalg.svd and eigvalsh calls made while the test runs."""
    calls = []
    for name in ("svd", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_scalar_solve_and_load_call_no_lapack(tmp_path, lapack_calls):
    from fbslq.equilibrium import solve_equilibrium
    from fbslq.fields import Strategy
    from fbslq.io_utils import load_solution_dir, write_solution_dir
    from fbslq.scenario import scenario_to_spec, smoke_scenario

    doc = smoke_scenario(200)
    spec = scenario_to_spec(doc)
    sol = solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1))
    write_solution_dir(tmp_path, sol, doc, "const:0")
    load_solution_dir(tmp_path)
    assert lapack_calls == []


def test_matrix_audit_calls_lapack(lapack_calls):
    from fbslq.riccati import check_constraints, gain_denominator_numerator, solve_p2, two_time_diagonals
    from fbslq.verify import classical_riccati_feedback

    spec = matrix_reduction_problem(40)
    _, gain = classical_riccati_feedback(spec)
    p2 = solve_p2(spec, gain)
    check_constraints(spec, *gain_denominator_numerator(spec, *two_time_diagonals(spec, gain, p2), p2))
    assert "svd" in lapack_calls and "eigvalsh" in lapack_calls
