"""Smoothness cache, difference operator and the standalone prior values."""

import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgd.model import Decomposition, Hyperparams, objective, reconstruct
from dgd.priors import build_cache, dtd_norm, dtd_product, overlap_h, temporal_pi
from dgd.tensors import FitData, triangle

from helpers import pairwise_z, planted_decomposition


def test_cache_matches_pairwise_distance_loop():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 2))
    z = build_cache(x)
    rows, cols = np.triu_indices(4, 1)
    # the pairs i < j row by row, then the diagonal, whose distances are 0
    pairs = list(zip(rows, cols)) + [(i, i) for i in range(4)]
    for t in range(3):
        for m, (i, j) in enumerate(pairs):
            want = np.sum((x[t, i] - x[t, j]) ** 2)
            assert abs(z[t, m] - want) < 1e-12


def test_cache_single_channel_example():
    # two nodes with signals 0 and 1: squared distance 1 off the diagonal
    x = np.array([[[0.0], [1.0]]])
    cache = build_cache(x)
    assert cache.tolist() == [[1.0, 0.0, 0.0]]


def test_cache_invariants():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 5, 3)) * 4.0
    cache = build_cache(x)
    # the packed rows hold all of the symmetric Z: 10 pairs, then a zero diagonal
    assert cache.shape == (2, 15)
    assert np.all(cache >= 0.0)
    assert np.all(cache[:, 10:] == 0.0)


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
    # T, N and Q = 1 included; slice by slice, then packed, gives the same
    # bits as the batched formula, zero diagonal included, at the packed positions
    at = triangle(x.shape[1])[0]
    want = _batched_cache(x).reshape(len(x), -1)[:, at]
    assert build_cache(x).tobytes() == want.tobytes()


def test_cache_scratch_is_one_slice():
    # numpy allocations are traced: beyond the packed Z, about half a
    # (T, N, N) stack, set-up holds O(N max(N, Q))
    t, n, q = 64, 96, 8
    x = np.random.default_rng(9).standard_normal((t, n, q))
    tracemalloc.start()
    try:
        cache = build_cache(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.nbytes == t * n * (n + 1) // 2 * 8
    assert peak <= cache.nbytes + 4 * 8 * n * max(n, q)


@pytest.mark.parametrize("step,rows", [(1, {0: 2.3e160, 1: 2.3e160}), (2, {0: 1.2e154, 1: -1.2e154})])
def test_cache_names_the_step_whose_distances_overflow(step, rows):
    # finite signals whose squared distances leave float64 (the second case
    # has finite squared norms) stop at set-up, with no numpy warning first
    x = np.ones((3, 4, 2))
    for i, value in rows.items():
        x[step, i, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"signal step {step}: squared distances overflow"):
            build_cache(x)


def test_cache_rejects_non_tensor_input():
    with pytest.raises(ValueError):
        build_cache(np.zeros((4, 4)))


def _dense_diff(n_steps):
    """The (T-1, T) forward-difference matrix: (DC)[t] = C[t+1] - C[t]."""
    return np.diff(np.eye(n_steps), axis=0)


def _blank_fit(t, n):
    zeros = np.zeros((t, n, n))
    return FitData.build(zeros, zeros, Hyperparams())


def _smoothness(d, cache):
    """The objective's unweighted smoothness term 1/2 sum_t sum_r C[t,r] <Z_t, A_r>."""
    h = Hyperparams(delta=1.0)
    return objective(d, _blank_fit(d.n_steps, d.n_nodes), cache, h).smoothness


def test_dtd_norm_closed_form_matches_svd():
    for t in range(1, 65):
        dop = _dense_diff(t)
        want = float(np.linalg.norm(dop.T @ dop, 2)) if t > 1 else 0.0
        assert abs(dtd_norm(t) - want) <= 8 * np.finfo(float).eps * max(want, 1.0), t


def test_dtd_product_matches_dense_formula():
    rng = np.random.default_rng(2)
    for t in range(1, 65):
        c = rng.standard_normal((t, 3))
        dop = _dense_diff(t)
        want = dop.T @ (dop @ c)
        got = dtd_product(c)
        assert got.shape == c.shape
        assert np.abs(got - want).max(initial=0.0) <= 4 * np.finfo(float).eps * np.abs(c).max(), t


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 60), st.integers(1, 3)),
        # few distinct values, so equal neighbours give zero differences of both signs
        elements=st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0]) | st.floats(-1e3, 1e3),
    )
)
def test_dtd_product_is_the_padded_difference_bit_for_bit(c):
    want = -np.diff(np.diff(c, axis=0), axis=0, prepend=0.0, append=0.0)
    got = dtd_product(c)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_temporal_pi_equals_explicit_operator():
    rng = np.random.default_rng(3)
    c = rng.standard_normal((7, 2))
    d = _dense_diff(7)
    assert np.isclose(temporal_pi(c), np.sum((d @ c) ** 2))
    assert temporal_pi(np.ones((1, 3))) == 0.0
    assert temporal_pi(np.tile([[1.0, 2.0]], (5, 1))) == 0.0


def test_xi_is_weighted_sum_of_slices():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4, 2))
    cache = build_cache(x)
    c = np.array([[0.5], [2.0], [0.0]])
    z = pairwise_z(x)
    want = 0.5 * (0.5 * z[0] + 2.0 * z[1])
    assert np.allclose(_blank_fit(3, 4).a_stats(c, cache).xi_plane(0), want)
    # equal unit weights over identical slices give back the slice itself
    x_rep = np.stack([x[0], x[0]])
    cache_rep = build_cache(x_rep)
    xi = _blank_fit(2, 4).a_stats(np.ones((2, 1)), cache_rep).xi_plane(0)
    assert np.allclose(xi, z[0])


def test_a_stats_rejects_wrong_signature_length():
    cache = build_cache(np.zeros((3, 2, 1)))
    with pytest.raises(ValueError):
        _blank_fit(3, 2).a_stats(np.ones((4, 1)), cache)


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
    assert np.isclose(_smoothness(d, cache), want)


def test_smoothness_constant_signals_zero():
    d = planted_decomposition(7, n=4, t=3, r=1)
    x = np.ones((3, 4, 2)) * 5.0
    assert _smoothness(d, build_cache(x)) == 0.0


def test_smoothness_single_edge_unit_difference():
    # one edge between nodes whose signals differ by 1: QV = 1
    latents = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    d = Decomposition(latents, np.array([[1.0]]))
    x = np.array([[[0.0], [1.0]]])
    assert _smoothness(d, build_cache(x)) == 1.0


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
