"""Fit data and mask validation."""

import re
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dgd import tensors
from dgd.io_dgt import DgtSlices, save_dgt
from dgd.model import Hyperparams

from helpers import is_hollow, is_symmetric, symmetric_binary_mask


def test_fit_data_matches_slices():
    rng = np.random.default_rng(3)
    t, n = 4, 3
    adj = rng.random((t, n, n))
    mask = symmetric_binary_mask(7, t, n)
    # step 1 observes only the diagonal, step 3 nothing
    mask[1] = np.eye(n)
    mask[3] = 0.0
    exact = tensors.FitData.build(adj, mask, Hyperparams())
    counted = tensors.FitData.build(adj, mask, Hyperparams(gradient_mode="count_weighted"))
    assert exact.dense_target().shape == (t, n, n)
    size = n * (n - 1) // 2 + n
    for fit in (exact, counted):
        # one bit per packed entry, read back as bool rows
        assert fit.weight.shape == (t, -(-size // 8)) and fit.weight.dtype == np.uint8
        rows = fit.pattern(slice(None))
        assert rows.shape == (t, size) and rows.dtype == bool
    rows, cols = np.triu_indices(n, 1)
    for k in range(t):
        assert np.array_equal(exact.dense_target()[k], mask[k] * adj[k])
        # the strict upper triangle row by row, then the diagonal
        want = np.concatenate((mask[k][rows, cols], np.diag(mask[k])))
        assert np.array_equal(exact.pattern(k), want > 0)
        assert exact.scale[k] == 1.0
        # W_t = scale_t B_t is the 0/1 mask
        assert np.array_equal(exact.scale[k] * exact.pattern(k), want)
        # count_weighted weighs every entry of slice k by its count k_t
        count = mask[k].sum()
        assert counted.pattern(k).all()
        assert np.all(counted.scale[k] * counted.pattern(k) == count)
        assert counted.scale[k] == count and counted.slice_max[k] == count
    for name in ("positions", "starts"):
        assert np.array_equal(getattr(counted.entries, name), getattr(exact.entries, name))
    assert np.array_equal(counted.values, exact.values)
    assert np.array_equal(exact.unobserved, [1, 3])
    assert np.array_equal(counted.unobserved, exact.unobserved)


def test_fit_data_holds_one_bit_per_weight_entry():
    # what build leaves allocated: B at 1 bit per packed entry, Y at 12 per
    # nonzero entry, and the O(N^2) index maps of the packed rows; bool rows
    # of B would add 7/8 T (M + N) bytes, about twice the slack allowed
    rng = np.random.default_rng(5)
    t, n = 120, 96
    mask = (rng.random((t, n, n)) < 0.3).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    adj = rng.random((t, n, n))
    size = n * (n + 1) // 2
    for mode in tensors.GRADIENT_MODES:
        tracemalloc.start()
        try:
            fit = tensors.FitData.build(adj, mask, Hyperparams(gradient_mode=mode))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert fit.weight.dtype == np.uint8 and fit.weight.shape == (t, -(-size // 8))
        assert held <= t * -(-size // 8) + 12 * fit.values.size + 24 * n * n + 2**14, mode


@st.composite
def selections(draw):
    """A bool (T, N, N) selection with some slices emptied, and a run budget."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, 8))
    sel = draw(hnp.arrays(np.bool_, (t, n, n)))
    sel[np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t)))] = False
    return sel, draw(st.integers(1, 2 * n * n + 2))


@settings(max_examples=200, deadline=None)
@given(selections())
@example((np.zeros((4, 3, 3), dtype=bool), 1))
@example((np.ones((1, 3, 3), dtype=bool), 4))
@example((np.ones((1, 2, 2), dtype=bool), 1))
def test_slice_entries_match_the_per_slice_formulas(case):
    sel, budget = case
    t, n = sel.shape[:2]
    flat = sel.reshape(t, -1)
    each = [np.flatnonzero(s) for s in flat]
    entries = tensors.SliceEntries.build(each, n * n)
    assert entries.positions.dtype == np.int32
    assert np.array_equal(entries.positions, np.concatenate([np.empty(0, np.intp), *each]))
    assert np.array_equal(entries.starts, np.cumsum([0] + [e.size for e in each]))
    walk = list(entries.slices())
    assert [step[0] for step in walk] == list(range(t))
    for (_, at, span), want in zip(walk, each):
        assert np.array_equal(at, want) and np.array_equal(entries.positions[span], want)
    covered = []
    for t0, t1, span, run in entries.runs(budget):
        first, last = entries.starts[t0], entries.starts[t1]
        assert (span.start, span.stop) == (first, last) and last - first <= budget + n * n
        assert run.positions.dtype == np.intp
        assert np.array_equal(run.positions, entries.positions[first:last])
        assert np.array_equal(run.starts, entries.starts[t0 : t1 + 1] - first)
        covered.extend(range(t0, t1))
    assert covered == list(range(t))
    x = np.random.default_rng(t * 31 + n).standard_normal((2, entries.positions.size))
    sums = entries.sums(x)
    assert sums.shape == (2, t)
    for k, (_, _, span) in enumerate(walk):
        if span.start == span.stop:
            assert np.all(sums[:, k] == 0.0)
        else:
            want = np.sum(x[:, span], axis=1)
            assert np.all(np.abs(sums[:, k] - want) <= 1e-12 * np.abs(want))
    # the wide index once a slice holds 2^31 entries
    assert tensors.SliceEntries.build([np.array([3])], 2**31).positions.dtype == np.int64


def test_triangle_packs_row_by_row_and_unpacks_symmetric():
    n = 5
    at, mirror = tensors.triangle(n)
    rows, cols = np.triu_indices(n, 1)
    diag = np.arange(n) * (n + 1)
    assert np.array_equal(at, np.concatenate((rows * n + cols, diag)))
    assert np.array_equal(mirror, np.concatenate((cols * n + rows, diag)))
    m = np.random.default_rng(2).random((3, n, n))
    m = m + m.transpose(0, 2, 1)
    packed = m.reshape(3, -1).take(at, axis=1)
    want = np.concatenate((m[:, rows, cols], np.diagonal(m, axis1=1, axis2=2)), axis=1)
    assert np.array_equal(packed, want)
    fit = tensors.FitData.build(np.zeros((1, n, n)), np.ones((1, n, n)), Hyperparams())
    assert np.array_equal(fit.unpack(packed), m)
    # a zero diagonal in the rows unpacks to a hollow slice
    hollow = m.copy()
    hollow[:, np.arange(n), np.arange(n)] = 0.0
    packed[:, -n:] = 0.0
    assert np.array_equal(fit.unpack(packed), hollow)


def test_fit_data_reads_slice_stacks(tmp_path):
    # adjacency and mask as DGT slice readers give the same fit data as arrays
    t, n = 3, 4
    adj = np.random.default_rng(4).random((t, n, n))
    mask = symmetric_binary_mask(8, t, n)
    save_dgt(tmp_path / "a.dgt", adj, "adjacency")
    save_dgt(tmp_path / "m.dgt", mask, "mask")
    want = tensors.FitData.build(adj, mask, Hyperparams())
    with DgtSlices(tmp_path / "a.dgt") as a, DgtSlices(tmp_path / "m.dgt") as m:
        got = tensors.FitData.build(a, m, Hyperparams())
    for name in ("values", "weight", "scale", "unobserved"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    for name in ("positions", "starts"):
        assert np.array_equal(getattr(got.entries, name), getattr(want.entries, name))


def test_fit_data_shape_errors():
    with pytest.raises(ValueError):
        tensors.FitData.build(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), Hyperparams())
    with pytest.raises(ValueError):
        tensors.FitData.build(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), Hyperparams())
    # a bogus gradient mode stops where the settings are built, before any fit data
    message = "gradient_mode must be one of ('exact_mask', 'count_weighted'), got 'bogus'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tensors.FitData.build(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)),
                              Hyperparams(gradient_mode="bogus"))


def test_symmetry_and_hollow_checks():
    sym = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert is_symmetric(sym)
    assert is_hollow(sym)
    assert not is_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert not is_hollow(np.array([[1.0, 0.0], [0.0, 0.0]]))
    # batched input checks every slice
    batch = np.stack([sym, np.array([[0.0, 1.0], [3.0, 0.0]])])
    assert not is_symmetric(batch)


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
