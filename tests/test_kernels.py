import numpy as np
import pytest

from fbslq.fields import OneTimeField, Strategy, TimeGrid, TwoTimeField
from fbslq.kernels import ConstantKernel, DifferenceKernel, DiscountedKernel, TableKernel, kernel_from_spec


def test_constant_kernel_broadcasts():
    k = ConstantKernel([[1.0, 2.0], [2.0, 3.0]])
    out = k(np.linspace(0, 1, 5), 0.0)
    assert out.shape == (5, 2, 2)
    assert np.array_equal(out[3], [[1.0, 2.0], [2.0, 3.0]])


def test_difference_kernel_values():
    k = DifferenceKernel(2.0, 1.0)
    assert k(0.7, 0.2)[0, 0] == pytest.approx(2.0 * 0.5 + 1.0)
    ss = np.array([0.5, 1.0])
    assert np.allclose(k(ss, 0.0)[:, 0, 0], 2.0 * ss + 1.0)


def test_discounted_kernel_decay():
    k = DiscountedKernel(4.0, 2.0)
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
