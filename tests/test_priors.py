"""Smoothness cache, difference operator and the standalone prior values."""

import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgd.model import Decomposition, reconstruct
from dgd.priors import (
    build_cache,
    diff_operator,
    overlap_h,
    smoothness_g,
    temporal_pi,
    xi_matrix,
)

from helpers import planted_decomposition


def test_cache_matches_pairwise_distance_loop():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 2))
    cache = build_cache(x)
    for t in range(3):
        for i in range(4):
            for j in range(4):
                want = np.sum((x[t, i] - x[t, j]) ** 2)
                assert abs(cache.z_slices[t, i, j] - want) < 1e-12


def test_cache_single_channel_example():
    # two nodes with signals 0 and 1: squared distance 1 off the diagonal
    x = np.array([[[0.0], [1.0]]])
    cache = build_cache(x)
    assert np.allclose(cache.z_slices[0], [[0.0, 1.0], [1.0, 0.0]])


def test_cache_invariants():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 5, 3)) * 4.0
    cache = build_cache(x)
    z = cache.z_slices
    assert np.array_equal(z, z.transpose(0, 2, 1))
    assert np.all(z >= 0.0)
    assert np.all(np.diagonal(z, axis1=1, axis2=2) == 0.0)
    assert (cache.n_steps, cache.n_nodes) == (2, 5)


def _batched_cache(x):
    """The batched formula: (T, N, N) temporaries for the Gram and the sums."""
    sq = np.einsum("tnq,tnq->tn", x, x)
    z = sq[:, :, None] + sq[:, None, :] - 2.0 * (x @ x.transpose(0, 2, 1))
    z = np.maximum(0.5 * (z + z.transpose(0, 2, 1)), 0.0)
    n = z.shape[1]
    z[:, np.arange(n), np.arange(n)] = 0.0
    return z


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=3, max_dims=3, max_side=6),
        elements=st.floats(-1e3, 1e3, allow_subnormal=True),
    )
)
def test_cache_equals_batched_formula(x):
    # T, N and Q = 1 included; slice by slice gives the same bits
    assert build_cache(x).z_slices.tobytes() == _batched_cache(x).tobytes()


def test_cache_scratch_is_one_slice():
    # numpy allocations are traced: beyond Z itself, set-up holds O(N max(N, Q))
    t, n, q = 64, 96, 8
    x = np.random.default_rng(9).standard_normal((t, n, q))
    tracemalloc.start()
    try:
        cache = build_cache(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cache.z_slices.nbytes + 4 * 8 * n * max(n, q)


def test_cache_rejects_non_tensor_input():
    with pytest.raises(ValueError):
        build_cache(np.zeros((4, 4)))


def test_diff_operator_matches_np_diff():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((6, 3))
    d = diff_operator(6)
    assert d.shape == (5, 6)
    assert np.allclose(d @ c, np.diff(c, axis=0))


def test_temporal_pi_equals_explicit_operator():
    rng = np.random.default_rng(3)
    c = rng.standard_normal((7, 2))
    d = diff_operator(7)
    assert np.isclose(temporal_pi(c), np.sum((d @ c) ** 2))
    assert temporal_pi(np.ones((1, 3))) == 0.0
    assert temporal_pi(np.tile([[1.0, 2.0]], (5, 1))) == 0.0


def test_xi_matrix_weighted_sum():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4, 2))
    cache = build_cache(x)
    c_r = np.array([0.5, 2.0, 0.0])
    want = 0.5 * (0.5 * cache.z_slices[0] + 2.0 * cache.z_slices[1])
    assert np.allclose(xi_matrix(cache, c_r), want)
    # equal unit weights over identical slices give back the slice itself
    x_rep = np.stack([x[0], x[0]])
    cache_rep = build_cache(x_rep)
    assert np.allclose(xi_matrix(cache_rep, np.array([1.0, 1.0])), cache_rep.z_slices[0])


def test_xi_matrix_length_check():
    cache = build_cache(np.zeros((3, 2, 1)))
    with pytest.raises(ValueError):
        xi_matrix(cache, np.ones(4))


def test_smoothness_equals_quadratic_variation():
    # sum_t tr(X_t' L_t X_t) with L_t from the reconstructed slice is the same value
    rng = np.random.default_rng(5)
    d = planted_decomposition(6, n=5, t=4, r=2)
    x = rng.standard_normal((4, 5, 3))
    cache = build_cache(x)
    recon = reconstruct(d)
    want = 0.0
    for t in range(4):
        lap = np.diag(recon[t].sum(axis=1)) - recon[t]
        want += np.trace(x[t].T @ lap @ x[t])
    assert np.isclose(smoothness_g(d, cache), want)


def test_smoothness_constant_signals_zero():
    d = planted_decomposition(7, n=4, t=3, r=1)
    x = np.ones((3, 4, 2)) * 5.0
    assert smoothness_g(d, build_cache(x)) == 0.0


def test_smoothness_single_edge_unit_difference():
    # one edge between nodes whose signals differ by 1: QV = 1
    latents = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    d = Decomposition(latents, np.array([[1.0]]))
    x = np.array([[[0.0], [1.0]]])
    assert smoothness_g(d, build_cache(x)) == 1.0


def test_overlap_matches_pair_loop():
    rng = np.random.default_rng(8)
    latents = rng.random((3, 4, 4))
    want = 0.0
    for r in range(3):
        for s in range(3):
            if r != s:
                want += np.trace(latents[r].T @ latents[s])
    assert np.isclose(overlap_h(latents), want)


def test_overlap_disjoint_and_identical():
    a = np.zeros((2, 4, 4))
    a[0, 0, 1] = a[0, 1, 0] = 1.0
    a[1, 2, 3] = a[1, 3, 2] = 1.0
    assert overlap_h(a) == 0.0
    b = np.stack([a[0], a[0]])
    assert np.isclose(overlap_h(b), 2.0 * np.sum(a[0] ** 2))
    assert overlap_h(a[:1]) == 0.0
