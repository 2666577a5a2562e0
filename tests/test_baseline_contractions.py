"""Property tests: the baselines' matrix-product contractions against the plain
formulas they replace (three-operand einsums for CP-ALS, a per-slice loop for
the unc fit history), and their in-place fit histories against the
one-expression fits, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dgd.baselines import _cp_reconstruct, _mttkrp_rows, _mttkrp_time, cpd_als, unc_solve
from dgd.tensors import masked_target


def _close(fast, plain):
    return np.linalg.norm(fast - plain) <= 1e-12 * max(np.linalg.norm(plain), 1.0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    t=st.integers(1, 4),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, t=1, rank=1, seed=0)
@example(n=2, t=1, rank=1, seed=1)
@example(n=2, t=3, rank=3, seed=2)
def test_cpd_contractions_match_einsum(n, t, rank, seed):
    rng = np.random.default_rng(seed)
    # not symmetric, so the row and column modes differ
    x = rng.standard_normal((t, n, n))
    u, v, w = rng.standard_normal((n, rank)), rng.standard_normal((n, rank)), rng.random((t, rank))
    assert _close(_mttkrp_rows(x, v, w), np.einsum("tij,jf,tf->if", x, v, w))
    assert _close(_mttkrp_rows(x.transpose(0, 2, 1), u, w), np.einsum("tij,if,tf->jf", x, u, w))
    assert _close(_mttkrp_time(x, u, v), np.einsum("tij,if,jf->tf", x, u, v))
    assert _close(_cp_reconstruct(u, v, w), np.einsum("if,jf,tf->tij", u, v, w))


@pytest.mark.filterwarnings("ignore:unc. ridged:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 5),
    t=st.integers(1, 4),
    r=st.integers(1, 3),
    iters=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_unc_fit_history_matches_slice_loop(n, t, r, iters, seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random((t, n, n)) < rng.random()).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    adj = np.where(mask > 0, rng.random((t, n, n)), np.nan)
    est, fits = unc_solve(adj, mask, r, iters=iters, seed=seed)
    # the last entry scores the returned decomposition
    want = 0.0
    for k in range(t):
        recon = sum(est.signatures[k, s] * est.latents[s] for s in range(r))
        target = np.where(mask[k] > 0, adj[k], 0.0)
        want += 0.5 * float(np.sum((mask[k] * recon - target) ** 2))
    assert len(fits) == 2 * iters
    assert abs(fits[-1] - want) <= 1e-12 * max(want, 1.0)


def _masked_instance(n, t, seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random((t, n, n)) < rng.random()).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    return np.where(mask > 0, rng.random((t, n, n)), np.nan), mask


@pytest.mark.filterwarnings("ignore:unc. ridged:RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 5),
    t=st.integers(1, 4),
    r=st.integers(1, 3),
    iters=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_unc_fit_history_is_the_plain_formula_exactly(n, t, r, iters, seed):
    adj, mask = _masked_instance(n, t, seed)
    target = masked_target(adj, mask)

    def plain(c, latents):
        return 0.5 * float(np.sum((mask * np.tensordot(c, latents, axes=1) - target) ** 2))

    _, fits = unc_solve(adj, mask, r, iters=iters, seed=seed)
    # after k iterations the latents are those of an iters=k run; L_0 is the first draw
    latents = [np.random.default_rng(seed).random((n * n, r)).reshape(n, n, r).transpose(2, 1, 0)]
    signatures = [None]
    for k in range(1, iters + 1):
        est, _ = unc_solve(adj, mask, r, iters=k, seed=seed)
        latents.append(est.latents)
        signatures.append(est.signatures)
    want = []
    for k in range(1, iters + 1):
        want += [plain(signatures[k], latents[k - 1]), plain(signatures[k], latents[k])]
    assert fits == want


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 5),
    t=st.integers(1, 4),
    rank=st.integers(1, 3),
    iters=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_cpd_fit_history_is_the_plain_formula_exactly(n, t, rank, iters, seed):
    adj, mask = _masked_instance(n, t, seed)
    x = masked_target(adj, mask)
    _, fits = cpd_als(x, rank, iters=iters, seed=seed)
    want = []
    for k in range(1, iters + 1):
        (u, v, w), _ = cpd_als(x, rank, iters=k, seed=seed)
        want.append(0.5 * float(np.sum((x - _cp_reconstruct(u, v, w)) ** 2)))
    assert fits == want
