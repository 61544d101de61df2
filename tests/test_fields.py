"""Gain fields: ``fields.Strategy``, and the one rule for reading a gain between
grid nodes, ``fields.interval_gain``."""

import numpy as np
import pytest

from fbslq.fields import OneTimeField, Strategy, TimeGrid, interval_gain
from fbslq.io_utils import one_time_field_rows

STEPS = 12
SPANS = {"grid": (0, STEPS), "window": (4, 9), "last": (STEPS - 1, STEPS)}
FRACTIONS = [(0.0, 0.25, 0.5, 0.75, 1.0)] + [tuple(q / sub for q in range(sub)) for sub in (1, 2, 3)]
ENTRIES = [(), (2, 3)]  # a flat gain array, and k x n entries


def gain_values(entry):
    return np.random.default_rng(5).standard_normal((STEPS + 1,) + entry)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("fractions", FRACTIONS)
@pytest.mark.parametrize("span", SPANS)
def test_every_fraction_reads_the_interval_value_bitwise(span, fractions, entry):
    values = gain_values(entry)
    lo, stop = SPANS[span]
    got = interval_gain(values, lo, stop, fractions)
    assert got.shape == (stop - lo, len(fractions)) + entry
    want = np.repeat(values[lo:stop, None], len(fractions), axis=1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("sub", [1, 2, 3])
@pytest.mark.parametrize("i0", [0, 5, STEPS - 1])
def test_fine_grid_reads_the_coarse_interval_of_each_step(i0, sub, entry):
    values = gain_values(entry)
    fine_steps = (STEPS - i0) * sub
    got = interval_gain(values, i0, STEPS, [q / sub for q in range(sub)]).reshape((fine_steps,) + entry)
    want = values[i0 + np.arange(fine_steps) // sub]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("span", SPANS)
def test_products_over_the_view_are_those_of_the_slice_bitwise(span):
    """B Theta over the broadcast view is the product with the per-interval slice, bit for bit."""
    values = gain_values((2, 3))
    lo, stop = SPANS[span]
    b = np.random.default_rng(6).standard_normal((stop - lo, 5, 3, 2))
    view = interval_gain(values, lo, stop, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert (b @ view).tobytes() == (b @ values[lo:stop, None]).tobytes()  # all stages at once, as P2 reads it
    for q in range(5):  # one stage at a time, as the closed-loop coefficients read it
        assert (b[:, q] @ view[:, q]).tobytes() == (b[:, q] @ values[lo:stop]).tobytes()


def test_a_strategy_is_a_one_time_field_of_finite_gains():
    grid = TimeGrid(1.0, 3)
    gain = Strategy.from_flat(grid, [0.5, -1.0, 2.0, 0.0])
    assert type(gain) is Strategy and isinstance(gain, OneTimeField) and not hasattr(gain, "values")
    assert np.array_equal(gain.flat(), [0.5, -1.0, 2.0, 0.0])
    assert gain.entry_shape == (1, 1) and gain.sup_norm() == 2.0
    with pytest.raises(ValueError, match="finite"):
        Strategy.from_flat(grid, [0.0, np.nan, 1.0, 2.0])


@pytest.mark.parametrize("entry", [(1, 1), (2, 3)])
def test_a_strategy_writes_the_rows_of_its_one_time_field(entry):
    grid = TimeGrid(1.0, STEPS)
    gain = Strategy(grid, gain_values(entry))
    header, rows = one_time_field_rows(gain)
    want_header, want_rows = one_time_field_rows(OneTimeField(grid, gain.data))
    assert header == want_header
    assert np.asarray(list(rows)).tobytes() == np.asarray(list(want_rows)).tobytes()


def test_a_node_is_read_within_a_tolerance_scaled_by_the_horizon():
    # 1e-9 of a 1000-unit horizon: 5e-7 off node 3 reads as node 3, 5e-6 off does not.
    grid = TimeGrid(1000.0, 10)
    assert grid.index_of(300.0 + 5e-7) == 3
    with pytest.raises(ValueError, match="not a grid node"):
        grid.index_of(300.0 + 5e-6)
