"""Property tests: the block statistics and the cached fit gradients against
the plain per-slice loop, the (T, N) degree-constraint coupling against the
dense Phi_r formula, the in-place fit value against the plain weighted sum of
squares, and the Gram-form fit against that value."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from dgd.admm_a import a_gradient_terms, build_a_workspace, grad_a_lagrangian
from dgd.admm_c import build_c_workspace, c_gradient_terms, grad_c_lagrangian
from dgd.model import Decomposition, Hyperparams, degree_margin, reconstruct
from dgd.priors import build_cache
from dgd.tensors import GRADIENT_MODES, FitData, triangle

from helpers import pairwise_z

# every prior that enters the cached linear terms is off, so they hold the fit alone
FIT_ONLY = Hyperparams(gamma=0.0, delta=0.0, beta=0.0, eta=0.0)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, 4))
    r = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(GRADIENT_MODES))
    empty = draw(st.lists(st.booleans(), min_size=t, max_size=t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = (rng.random((t, n, n)) < rng.random()).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    mask[np.array(empty)] = 0.0
    adj = rng.random((t, n, n))
    signatures = rng.random((t, r)) * (rng.random((t, r)) < 0.7)
    signatures[:, draw(st.lists(st.booleans(), min_size=r, max_size=r))] = 0.0
    d = Decomposition(rng.random((r, n, n)), signatures)
    return d, adj, mask, mode, rng.random((n, n))


def _loop_weight(mask, t, mode):
    return mask[t] if mode == "exact_mask" else mask[t].sum()


def _close(cached, loop):
    return np.linalg.norm(cached - loop) <= 1e-12 * max(np.linalg.norm(loop), 1.0)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_cached_fit_gradients_match_slice_loop(case):
    d, adj, mask, mode, a = case
    fit = FitData.build(adj, mask, Hyperparams(gradient_mode=mode))
    n_steps, n_lat = d.signatures.shape

    for r in range(n_lat):
        omega, linear = a_gradient_terms(d, r, FIT_ONLY, fit.a_stats(d.signatures))
        loop = np.zeros_like(a)
        for t in range(n_steps):
            recon = sum(d.signatures[t, k] * (a if k == r else d.latents[k]) for k in range(n_lat))
            loop += d.signatures[t, r] * _loop_weight(mask, t, mode) * (recon - mask[t] * adj[t])
        assert _close(a * omega + linear, loop)

    grams, linear = c_gradient_terms(FIT_ONLY, fit.c_stats(d.latents))
    loop = np.zeros_like(d.signatures)
    for t in range(n_steps):
        recon = sum(d.signatures[t, k] * d.latents[k] for k in range(n_lat))
        resid = _loop_weight(mask, t, mode) * (recon - mask[t] * adj[t])
        for r in range(n_lat):
            loop[t, r] = np.sum(resid * d.latents[r])
    assert _close(np.einsum("trs,ts->tr", grams, d.signatures) + linear, loop)


@settings(max_examples=200, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_block_stats_match_slice_loops(case, seed):
    # empty slices, zeroed signature columns and R = 1 come from instances()
    d, adj, mask, mode, _ = case
    fit = FitData.build(adj, mask, Hyperparams(gradient_mode=mode))
    c, lat = d.signatures, d.latents
    n_steps, n_lat = c.shape
    n = d.n_nodes
    signals = np.random.default_rng(seed).standard_normal((n_steps, n, 2))
    cache = build_cache(signals)
    z = pairwise_z(signals)
    weights = [np.broadcast_to(_loop_weight(mask, t, mode), (n, n)) for t in range(n_steps)]
    targets = [mask[t] * adj[t] for t in range(n_steps)]

    a = fit.a_stats(c, cache)
    for r in range(n_lat):
        for k in range(n_lat):
            want = sum(c[t, r] * c[t, k] * weights[t] for t in range(n_steps))
            assert _close(np.broadcast_to(a.omega_plane(r, k), (n, n)), want)
        want = sum(c[t, r] * weights[t] * targets[t] for t in range(n_steps))
        assert _close(a.v_plane(r), want)
        assert _close(a.xi_plane(r), 0.5 * sum(c[t, r] * z[t] for t in range(n_steps)))

    s = fit.c_stats(lat, cache)
    for t in range(n_steps):
        for r in range(n_lat):
            for k in range(n_lat):
                assert _close(s.grams[t, r, k], np.sum(weights[t] * lat[r] * lat[k]))
            assert _close(s.b[t, r], np.sum(weights[t] * targets[t] * lat[r]))
            assert _close(s.traces[t, r], np.sum(z[t] * lat[r]))
    assert fit.a_stats(c).xi is None and fit.c_stats(lat).traces is None


@settings(max_examples=200, deadline=None)
@given(instances(), st.booleans())
def test_gram_fit_matches_loss_within_cancellation_bound(case, planted):
    d, adj, mask, mode, _ = case
    if planted:
        # a perfect fit in either mode: the three terms cancel to 0
        adj, mask = reconstruct(d), np.ones_like(mask)
    fit = FitData.build(adj, mask, Hyperparams(gradient_mode=mode))
    n_steps, n_lat = d.signatures.shape
    n = d.n_nodes
    stats = fit.c_stats(d.latents)
    value, scale = fit.gram_loss(d.signatures, stats)
    c = d.signatures
    quad = 0.5 * np.einsum("tr,trs,ts->", c, stats.grams, c)
    assert scale == fit.target_norm + abs(quad) + abs(np.sum(c * stats.b))
    # every term sums nonnegative products; the longest sum, the target norm,
    # has T N^2 terms, then the Grams N^2 and the quadratic form T R^2
    terms = n_steps * n * n + n * n + n_steps * n_lat * n_lat + 4
    bound = 2 * terms * np.finfo(float).eps * scale
    loss = fit.loss(d.signatures, d.latents)
    assert abs(value - loss) <= bound
    # the objective's fit never reports a value that cancellation has eaten
    assert abs(fit.value(d.signatures, d.latents, stats) - loss) <= max(1e-6 * loss, bound)
    if planted:
        assert fit.value(d.signatures, d.latents, stats) == loss


@settings(max_examples=200, deadline=None)
@given(instances())
def test_coupling_matches_dense_phi_formula(case):
    d, adj, mask, mode, a = case
    h = Hyperparams(n_latents=d.n_latents, zeta=0.3, lambda_a=1.7, lambda_c=0.6, mu=0.0,
                    rho=0.0, gradient_mode=mode)
    fit = FitData.build(adj, mask, h)
    rng = np.random.default_rng(0)
    n_steps, n_lat = d.signatures.shape
    n = d.n_nodes

    for r in range(n_lat):
        ws = build_a_workspace(d, r, h, rng=rng)
        assert _close(ws.margin(d.latents[r]), degree_margin(d, h.zeta))
        # the dense layout: Phi_r = 1 c_r' and Gamma_r are (N, T), P is (N, T)
        phi = np.outer(np.ones(n), d.signatures[:, r])
        gamma = -h.zeta + sum(
            np.outer(d.latents[k].sum(axis=1), d.signatures[:, k]) for k in range(n_lat) if k != r
        )
        dense_margin = a @ phi + gamma
        assert _close(ws.margin(a), dense_margin.T)
        resid = dense_margin - ws.split.aux.T
        lam = ws.split.dual
        zero = np.zeros((n, n))
        coupling = grad_a_lagrangian(a, ws, d, fit, None, h, terms=(zero, zero))
        assert _close(coupling, lam.T @ phi.T + h.lambda_a * (resid @ phi.T))

    ws = build_c_workspace(d.latents, n_steps, h, rng=rng)
    c = rng.random((n_steps, n_lat))
    assert _close(ws.margin(c), degree_margin(Decomposition(d.latents, c), h.zeta))
    ups = d.latents.sum(axis=2).T
    q, lam = ws.split.aux, ws.split.dual.T
    resid = c @ ups.T - h.zeta - q
    terms = (np.zeros((n_steps, n_lat, n_lat)), np.zeros((n_steps, n_lat)))
    coupling = grad_c_lagrangian(c, ws, d.latents, fit, None, h, terms=terms)
    assert _close(coupling, lam.T @ ups + h.lambda_c * (resid @ ups))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_loss_matches_plain_formula_and_leaves_inputs(case):
    # generic latents and an asymmetric adjacency: the loss forms each slice's
    # reconstruction alone and adds the squares at (i, j) and (j, i) before
    # weighting them, so the value agrees to rounding
    d, adj, mask, mode, _ = case
    fit = FitData.build(adj, mask, Hyperparams(gradient_mode=mode))
    n_steps, n = mask.shape[:2]
    weight = np.stack([np.broadcast_to(_loop_weight(mask, t, mode), (n, n)) for t in range(n_steps)])
    inputs = [d.signatures, d.latents, fit.entries.positions, fit.entries.starts, fit.values,
              fit.weight, fit.scale]
    before = [x.copy() for x in inputs]
    recon = np.einsum("tr,rij->tij", d.signatures, d.latents)
    want = 0.5 * float(np.sum(weight * (recon - mask * adj) ** 2))
    got = fit.loss(d.signatures, d.latents)
    # each residual carries the rounding of an R-term reconstruction, which
    # the difference can cancel, then T N^2 weighted squares are summed: both
    # are bounded against the magnitudes the residuals are formed from
    mag = np.einsum("tr,rij->tij", np.abs(d.signatures), np.abs(d.latents)) + np.abs(mask * adj)
    scale = 0.5 * float(np.sum(weight * mag**2))
    terms = d.n_latents + n_steps * n * n + 2
    assert abs(got - want) <= 2 * terms * np.finfo(float).eps * scale
    for x, x0 in zip(inputs, before):
        assert np.array_equal(x, x0)


@st.composite
def sparse_targets(draw):
    """An asymmetric signed adjacency with exact zeros and a nonzero diagonal,
    a symmetric mask with empty slices, and slices observed but all zero."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, 9))
    r = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.where(rng.random((t, n, n)) < rng.random(), rng.standard_normal((t, n, n)), 0.0)
    mask = (rng.random((t, n, n)) < rng.random()).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    mask[np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t)))] = 0.0
    adj[np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t)))] = 0.0
    mode = draw(st.sampled_from(GRADIENT_MODES))
    run = draw(st.integers(1, 2 * n * n))
    return adj, mask, mode, run, rng.standard_normal((t, r)), rng.standard_normal((r, n, n))


def _dense_loss(fit, y, c, lat):
    """The fit on the dense target y, by the slice loop FitData.loss ran on it."""
    n = fit.n_nodes
    at, mirror = triangle(n)
    total = 0.0
    for t in range(len(y)):
        sq = c[t] @ lat.reshape(len(lat), -1)
        sq -= y[t].reshape(-1)
        np.square(sq, out=sq)
        pairs = sq[at]
        pairs += sq[mirror]
        pairs[-n:] *= 0.5
        # W_t = scale_t B_t, B_t the packed pattern unpacked to bool
        total += fit.scale[t] * float(fit.pattern(t) @ pairs)
    return 0.5 * total


@settings(max_examples=200, deadline=None)
@given(sparse_targets())
def test_target_entries_match_the_dense_formulas(case):
    # runs of a few entries each, so that the slices fall into several runs
    adj, mask, mode, run, c, lat = case
    fit = FitData.build(adj, mask, Hyperparams(gradient_mode=mode))
    fit._budget = run
    n_steps, n = mask.shape[:2]
    y = np.where(mask > 0, adj, 0.0)
    assert fit.entries.positions.dtype == np.int32 and len(fit.entries.starts) == n_steps + 1
    assert fit.values.size == np.count_nonzero(y)
    assert fit.dense_target().tobytes() == y.tobytes()
    scaled = fit.scale[:, None, None] * y
    assert _close(fit.target_norm, 0.5 * float(np.sum(scaled * y)))
    a = fit.a_stats(c)
    for r in range(len(lat)):
        assert _close(a.v_plane(r), np.tensordot(c[:, r], scaled, axes=1))
    assert _close(fit.c_stats(lat).b, np.einsum("tij,rij->tr", scaled, lat))
    assert fit.loss(c, lat) == _dense_loss(fit, y, c, lat)


@settings(max_examples=200, deadline=None)
@given(sparse_targets())
def test_bool_pattern_statistics_match_the_dense_weight(case):
    # W_t = scale_t B_t read from the bit rows, B converted in blocks of a
    # few columns, against the dense (T, N, N) float weight of each mode
    adj, mask, mode, run, c, lat = case
    fit = FitData.build(adj, mask, Hyperparams(gradient_mode=mode))
    fit._budget = run
    n_steps, n = mask.shape[:2]
    weight = np.stack([np.broadcast_to(_loop_weight(mask, t, mode), (n, n)) for t in range(n_steps)])
    rows = fit.pattern(slice(None))
    assert fit.weight.dtype == np.uint8 and rows.dtype == bool
    blocks = list(fit._pattern_blocks())
    assert all(b.dtype == np.float64 and b.size <= max(run, n_steps) for _, _, b in blocks)
    assert np.array_equal(np.concatenate([b for _, _, b in blocks], axis=1), rows)
    assert np.array_equal(fit.slice_max, weight.reshape(n_steps, -1).max(axis=1))
    a = fit.a_stats(c)
    for r in range(len(lat)):
        for k in range(len(lat)):
            assert _close(a.omega_plane(r, k), np.tensordot(c[:, r] * c[:, k], weight, axes=1))
    want = np.einsum("tij,rij,kij->trk", weight, lat, lat)
    assert _close(fit.c_stats(lat).grams, want)
    recon = np.einsum("tr,rij->tij", c, lat)
    want = 0.5 * float(np.sum(weight * (recon - np.where(mask > 0, adj, 0.0)) ** 2))
    assert _close(fit.loss(c, lat), want)


@st.composite
def mid_byte_layouts(draw):
    """Packed rows whose length M + N is no multiple of 8, cut into blocks of
    a width that is none either, so that blocks start and end mid-byte."""
    n = draw(st.integers(2, 12).filter(lambda n: n * (n + 1) // 2 % 8))
    t = draw(st.integers(1, 6))
    r = draw(st.integers(1, 3))
    width = draw(st.integers(1, n * (n + 1) // 2).filter(lambda w: w % 8))
    mode = draw(st.sampled_from(GRADIENT_MODES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = (rng.random((t, n, n)) < rng.random()).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    signals = rng.standard_normal((t, n, 2))
    c, lat = rng.random((t, r)), rng.random((r, n, n))
    return mask, rng.random((t, n, n)), mode, width, signals, c, lat


@settings(max_examples=200, deadline=None)
@given(mid_byte_layouts())
def test_bit_rows_give_the_bool_row_results_bit_for_bit(case):
    # the same statistics from the bool rows of B, cut at the same columns
    mask, adj, mode, width, signals, c, lat = case
    n_steps, n = mask.shape[:2]
    size = n * (n + 1) // 2
    fits = [FitData.build(adj, mask, Hyperparams(gradient_mode=mode)) for _ in range(2)]
    fit, ref = fits
    for f in fits:
        f._budget = width * n_steps
    # C-ordered, as the bool rows of B were held: the layout of a block
    # picks the BLAS kernel, and so the rounding of the products
    rows = mask.reshape(n_steps, -1).take(triangle(n)[0], axis=1) > 0
    if mode == "count_weighted":
        rows[:] = True
    assert np.array_equal(fit.pattern(slice(None)), rows)
    assert all(np.array_equal(fit.pattern(t), rows[t]) for t in range(n_steps))

    def bool_blocks():
        for p0 in range(0, size, width):
            p1 = min(p0 + width, size)
            yield p0, p1, rows[:, p0:p1].astype(np.float64)

    ref._pattern_blocks = bool_blocks
    for (p0, p1, got), (q0, q1, want) in zip(fit._pattern_blocks(), bool_blocks(), strict=True):
        assert (p0, p1) == (q0, q1) and got.tobytes() == want.tobytes()
    cache = build_cache(signals)
    a, b = fit.a_stats(c, cache), ref.a_stats(c, cache)
    at, mirror = triangle(n)
    for r in range(c.shape[1]):
        for k in range(c.shape[1]):
            plane = a.omega_plane(r, k)
            assert plane.tobytes() == b.omega_plane(r, k).tobytes()
            # the plane is its packed row at both gathers of the triangle
            row = a.omega[a.pair[r, k]]
            assert np.array_equal(plane.reshape(-1)[at], row)
            assert np.array_equal(plane.reshape(-1)[mirror], row)
        assert a.xi_plane(r).tobytes() == b.xi_plane(r).tobytes()
        assert a.v_plane(r).tobytes() == b.v_plane(r).tobytes()
    assert fit.c_stats(lat, cache).grams.tobytes() == ref.c_stats(lat, cache).grams.tobytes()


def test_statistics_hold_no_float_weight():
    # numpy allocations are traced: a_stats and c_stats convert B to float64
    # a block of columns at a time, never the whole (T, M + N) weight
    rng = np.random.default_rng(12)
    t, n, r = 200, 64, 2
    mask = (rng.random((t, n, n)) < 0.3).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    signatures, latents = rng.random((t, r)), rng.random((r, n, n))
    float_weight = 8 * t * n * (n + 1) // 2
    for mode in GRADIENT_MODES:
        fit = FitData.build(rng.random((t, n, n)), mask, Hyperparams(gradient_mode=mode))
        for stats in (lambda: fit.a_stats(signatures), lambda: fit.c_stats(latents)):
            tracemalloc.start()
            try:
                stats()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < float_weight // 2, mode


def test_loss_allocates_one_stack():
    # numpy allocations are traced: the loss holds no more than one (T, N, N) buffer
    rng = np.random.default_rng(11)
    t, n, r = 16, 128, 3
    mask = (rng.random((t, n, n)) < 0.5).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    signatures, latents = rng.random((t, r)), rng.random((r, n, n))
    for mode in GRADIENT_MODES:
        fit = FitData.build(rng.random((t, n, n)), mask, Hyperparams(gradient_mode=mode))
        tracemalloc.start()
        try:
            fit.loss(signatures, latents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * t * n * n + 2**16, mode
