"""Property tests: the cached fit gradients against the plain per-slice loop,
the (T, N) degree-constraint coupling against the dense Phi_r formula, and the
in-place fit value against the plain weighted sum of squares."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from dgd.admm_a import a_gradient_terms, build_a_workspace, grad_a_lagrangian
from dgd.admm_c import build_c_workspace, c_gradient_terms, grad_c_lagrangian
from dgd.driver import positive_fit_curvature
from dgd.model import GRADIENT_MODES, Decomposition, Hyperparams, degree_margin
from dgd.tensors import FitData

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
        omega, linear = a_gradient_terms(d, r, fit, None, FIT_ONLY)
        loop = np.zeros_like(a)
        for t in range(n_steps):
            recon = sum(d.signatures[t, k] * (a if k == r else d.latents[k]) for k in range(n_lat))
            loop += d.signatures[t, r] * _loop_weight(mask, t, mode) * (recon - mask[t] * adj[t])
        assert _close(a * omega + linear, loop)

    grams, linear = c_gradient_terms(d.latents, fit, None, FIT_ONLY)
    loop = np.zeros_like(d.signatures)
    for t in range(n_steps):
        recon = sum(d.signatures[t, k] * d.latents[k] for k in range(n_lat))
        resid = _loop_weight(mask, t, mode) * (recon - mask[t] * adj[t])
        for r in range(n_lat):
            loop[t, r] = np.sum(resid * d.latents[r])
    assert _close(np.einsum("trs,ts->tr", grams, d.signatures) + linear, loop)

    counts = mask.sum(axis=(1, 2))
    want = (d.signatures**2).T @ counts > 0.0
    assert np.array_equal(positive_fit_curvature(d.signatures, fit), want)


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
    d, adj, mask, mode, _ = case
    fit = FitData.build(adj, mask, Hyperparams(gradient_mode=mode))
    if mode == "count_weighted":
        assert fit.weight.strides[1:] == (0, 0)  # the broadcast per-slice count
    inputs = (d.signatures, d.latents, fit.weight, fit.target)
    before = [x.copy() for x in inputs]
    recon = np.einsum("tr,rij->tij", d.signatures, d.latents)
    want = 0.5 * float(np.sum(fit.weight * (recon - fit.target) ** 2))
    assert fit.loss(d.signatures, d.latents) == want
    for x, x0 in zip(inputs, before):
        assert np.array_equal(x, x0)


def test_loss_allocates_one_stack():
    # numpy allocations are traced: the reconstruction is the only (T, N, N) buffer
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
