import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbslq.fields import OneTimeField, Strategy, TimeGrid, TwoTimeField
from fbslq.kernels import CallableFn, LagKernel, TableKernel, TwoTimeKernel, kernel_from_spec, time_fn_from_spec

CASES = settings(max_examples=200, deadline=None, derandomize=True, database=None)
TIMES = st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5).map(np.array)
RATES = st.just(0.0) | st.floats(-20.0, 20.0)


def test_constant_kernel_broadcasts():
    k = LagKernel(0.0, [[[1.0, 2.0], [2.0, 3.0]]])
    out = k(np.linspace(0, 1, 5), 0.0)
    assert out.shape == (5, 2, 2)
    assert np.array_equal(out[3], [[1.0, 2.0], [2.0, 3.0]])


def test_difference_kernel_values():
    k = LagKernel(0.0, [1.0, 2.0])
    assert k(0.7, 0.2)[0, 0] == pytest.approx(2.0 * 0.5 + 1.0)
    ss = np.array([0.5, 1.0])
    assert np.allclose(k(ss, 0.0)[:, 0, 0], 2.0 * ss + 1.0)


def test_discounted_kernel_decay():
    k = LagKernel(2.0, [4.0])
    assert k(1.0, 0.0)[0, 0] == pytest.approx(4.0 * np.exp(-2.0))


def test_table_kernel_bilinear_exact_on_nodes():
    g = np.linspace(0.0, 1.0, 11)
    ss, tt = np.meshgrid(g, g, indexing="ij")
    vals = (ss * 2 + tt)[..., None, None]
    k = TableKernel(g, g, vals)
    assert np.allclose(k(ss, tt), vals)
    # Bilinear interpolation reproduces bilinear functions off the nodes.
    assert k(0.55, 0.23)[0, 0] == pytest.approx(2 * 0.55 + 0.23)


def test_table_kernel_clamps_outside():
    g = np.linspace(0.0, 1.0, 3)
    vals = np.zeros((3, 3, 1, 1))
    vals[-1, :, 0, 0] = 1.0
    k = TableKernel(g, g, vals)
    assert k(2.0, 0.0)[0, 0] == 1.0


def test_kernel_spec_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        kernel_from_spec({"type": "constant", "params": {"value": [[1.0, 0.0]]}}, (1, 1))
    with pytest.raises(ValueError):
        kernel_from_spec({"type": "mystery", "params": {}}, (1, 1))
    with pytest.raises(ValueError, match="coefficient shapes differ"):
        kernel_from_spec({"type": "difference", "params": {"alpha": [[1.0, 0.0]], "beta": [[1.0]]}}, (1, 1))


def test_two_time_field_diagonal_and_masking():
    grid = TimeGrid(1.0, 4)
    data = np.full((5, 5, 1, 1), np.nan)
    for i in range(5):
        for j in range(i, 5):
            data[i, j] = i + 10 * j
    f = TwoTimeField(grid, data)
    assert np.array_equal(f.diagonal().data[:, 0, 0], [0, 11, 22, 33, 44])
    with pytest.raises(IndexError):
        f.at(3, 1)


def test_one_time_field_flat_round_trip():
    grid = TimeGrid(1.0, 3)
    f = OneTimeField.from_flat(grid, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(f.flat(), [1.0, 2.0, 3.0, 4.0])
    assert f.sup_norm() == 4.0


def test_strategy_requires_finite():
    grid = TimeGrid(1.0, 2)
    with pytest.raises(ValueError):
        Strategy.from_flat(grid, np.array([0.0, np.inf, 1.0]))


@st.composite
def lag_specs(draw):
    """A constant, discounted or difference spec with drawn 1 x 1 or 2 x 2 parameters."""
    shape = draw(st.sampled_from([(1, 1), (2, 2)]))

    def mat():
        size = shape[0] * shape[1]
        return np.reshape(draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size)), shape).tolist()

    kind = draw(st.sampled_from(["constant", "discounted", "difference"]))
    if kind == "constant":
        params = {"value": mat()}
    elif kind == "discounted":
        params = {"base": mat(), "rate": draw(RATES)}
    else:
        params = {"alpha": mat(), "beta": mat()}
    return {"type": kind, "params": params}


def closed_formula(spec, s, t):
    """The spec's formula written out from its params, at every (s, t) pair."""
    p = {k: np.asarray(v) for k, v in spec["params"].items()}
    d = (s[:, None] - t[None, :])[..., None, None]
    if spec["type"] == "constant":
        return np.broadcast_to(p["value"], d.shape[:2] + p["value"].shape)
    if spec["type"] == "discounted":
        return p["base"] * np.exp(-p["rate"] * d)
    return p["alpha"] * d + p["beta"]


@CASES
@given(spec=lag_specs(), s=TIMES, t=TIMES)
def test_each_lag_spec_type_is_its_closed_formula(spec, s, t):
    # Evaluation reads the kernel's coefs, so a wrong coefficient shows here.
    shape = np.shape(next(iter(spec["params"].values())))
    kern = kernel_from_spec(spec, shape)
    got, want = kern(s[:, None], t[None, :]), closed_formula(spec, s, t)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))  # 1 ulp: the test orders its own operations
    assert np.array_equal(time_fn_from_spec(spec, shape)(s), kern(s, 0.0))  # read at lag d = t, bit for bit


@CASES
@given(
    coefs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
    rate=RATES,
    d=st.floats(0.0, 2.0),
    step=st.floats(0.0, 1.0),
)
def test_lag_basis_moves_by_its_shift(coefs, rate, d, step):
    # b_k(d) = exp(-rate d) d^k: b(d + step) = shift(step) b(d), and K(d) = coefs . b(d).
    kern = LagKernel(rate, coefs)
    powers = np.arange(len(coefs))

    def basis(x):
        return np.exp(-rate * x) * x**powers

    assert np.allclose(basis(d + step), kern.shift(step) @ basis(d), rtol=1e-13, atol=0.0)
    terms = np.array(coefs) * basis(d + step)
    assert abs(kern(d + step, 0.0)[0, 0] - terms.sum()) <= 1e-13 * np.abs(terms).sum()


@st.composite
def one_time_inputs(draw):
    """A 0-d, 1-d or 2-d array of times, some outside [0, T] to reach a table's clamped ends."""
    shape = draw(st.sampled_from([(), (3,), (2, 3)]))
    size = int(np.prod(shape))
    return np.reshape(draw(st.lists(st.floats(-0.5, 2.5), min_size=size, max_size=size)), shape)


@st.composite
def single_time_entries(draw):
    """A lag, table or callable single-time entry with drawn 1 x 1 or 2 x 2 values,
    and its formula in t written out as the single-time classes evaluated it."""
    kind = draw(st.sampled_from(["lag", "table", "callable"]))
    if kind == "lag":
        spec = draw(lag_specs())
        p = {k: np.asarray(v, dtype=float) for k, v in spec["params"].items()}
        shape = np.shape(next(iter(spec["params"].values())))

        def formula(t):
            d = t[..., None, None] if t.ndim else t
            if spec["type"] == "constant":
                return p["value"]
            if spec["type"] == "discounted":
                return np.exp(-float(p["rate"]) * d) * p["base"]
            return d * p["alpha"] + p["beta"]

        return time_fn_from_spec(spec, shape), formula, shape
    shape = draw(st.sampled_from([(1, 1), (2, 2)]))
    size = shape[0] * shape[1]
    if kind == "callable":
        m = np.reshape(draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size)), shape)

        def fn(t):
            return np.multiply.outer(np.cos(t), m)

        return CallableFn(fn, shape), fn, shape
    count = draw(st.integers(2, 5))
    nodes = np.cumsum([0.0] + draw(st.lists(st.floats(0.1, 1.0), min_size=count - 1, max_size=count - 1)))
    values = np.reshape(draw(st.lists(st.floats(-10.0, 10.0), min_size=count * size, max_size=count * size)),
                        (count,) + shape)

    def formula(t):  # linear interpolation, clamped ends
        i = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, count - 2)
        w = np.clip((t - nodes[i]) / (nodes[i + 1] - nodes[i]), 0.0, 1.0)[..., None, None]
        return values[i] * (1 - w) + values[i + 1] * w

    spec = {"type": "table", "params": {"nodes": nodes.tolist(), "values": values.tolist()}}
    return time_fn_from_spec(spec, shape), formula, shape


@CASES
@given(entry=single_time_entries(), t=one_time_inputs())
def test_each_single_time_entry_is_a_two_time_kernel_read_at_zero(entry, t):
    # f(t) is the reading f(t, 0) and the single-time formula, bit for bit.
    f, formula, shape = entry
    assert isinstance(f, TwoTimeKernel)
    got = f(t)
    assert got.shape == t.shape + shape
    assert got.tobytes() == f(t, 0.0).tobytes()
    assert got.tobytes() == np.broadcast_to(formula(t), t.shape + shape).tobytes()
