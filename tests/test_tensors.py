"""Fit data and mask validation."""

import numpy as np
import pytest

from dgd import tensors
from dgd.model import Hyperparams

from helpers import symmetric_binary_mask


def test_fit_data_matches_slices():
    rng = np.random.default_rng(3)
    t, n = 4, 3
    adj = rng.random((t, n, n))
    mask = symmetric_binary_mask(7, t, n)
    exact = tensors.FitData.build(adj, mask, Hyperparams())
    counted = tensors.FitData.build(adj, mask, Hyperparams(gradient_mode="count_weighted"))
    assert exact.weight.shape == exact.target.shape == (t, n, n)
    for k in range(t):
        assert np.array_equal(exact.target[k], mask[k] * adj[k])
        assert np.array_equal(exact.weight[k], mask[k])
        assert np.all(counted.weight[k] == mask[k].sum())
        assert counted.slice_max[k] == mask[k].sum()
    assert np.array_equal(counted.target, exact.target)


def test_fit_data_shape_errors():
    with pytest.raises(ValueError):
        tensors.FitData.build(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), Hyperparams())
    with pytest.raises(ValueError):
        tensors.FitData.build(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), Hyperparams())
    with pytest.raises(ValueError, match="bogus"):
        bogus = Hyperparams(gradient_mode="bogus")
        tensors.FitData.build(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), bogus)


def test_symmetry_and_hollow_checks():
    sym = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert tensors.is_symmetric(sym)
    assert tensors.is_hollow(sym)
    assert not tensors.is_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert not tensors.is_hollow(np.array([[1.0, 0.0], [0.0, 0.0]]))
    # batched input checks every slice
    batch = np.stack([sym, np.array([[0.0, 1.0], [3.0, 0.0]])])
    assert not tensors.is_symmetric(batch)


def test_check_mask_accepts_valid():
    mask = symmetric_binary_mask(5, 3, 4)
    assert tensors.check_mask(mask)


def test_check_mask_rejects_nonbinary_and_asymmetric():
    with pytest.raises(ValueError, match="0 or 1"):
        tensors.check_mask(np.full((1, 2, 2), 0.5))
    bad = np.zeros((1, 2, 2))
    bad[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        tensors.check_mask(bad)
