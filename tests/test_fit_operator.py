"""Property tests: the cached fit gradients against the plain per-slice loop."""

import numpy as np
from hypothesis import given, settings, strategies as st

from dgd.admm_a import a_gradient_terms
from dgd.admm_c import c_gradient_terms
from dgd.driver import positive_fit_curvature
from dgd.model import GRADIENT_MODES, Decomposition, Hyperparams
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
