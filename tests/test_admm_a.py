"""Latent-adjacency subproblem: gradient oracle, workspace, solve loop."""

import tracemalloc
import warnings

import numpy as np
import pytest

from dgd.admm_a import (
    build_a_workspace,
    default_step_a,
    grad_a_lagrangian,
    solve_a_subproblem,
)
from dgd.model import Decomposition, Hyperparams, NumericalAbort, in_sa
from dgd.priors import build_cache
from dgd.tensors import RUN_ENTRIES, FitData

from helpers import a_lagrangian_value, central_diff, dense_fit, random_instance, rel_grad_error


@pytest.mark.parametrize("mode", ["exact_mask", "count_weighted"])
def test_gradient_matches_central_differences(mode):
    # each trial also runs at gamma = beta = mu = rho = 0, whose terms are still added
    for trial in range(6):
        rng, d, fit, cache, weighted = random_instance(300 + trial, mode)
        r = trial % d.n_latents
        for h in (weighted, weighted.replace(gamma=0.0, beta=0.0, mu=0.0, rho=0.0)):
            ws = build_a_workspace(d, r, h, rng=rng)
            a = rng.standard_normal((d.n_nodes, d.n_nodes))

            def f(x):
                return a_lagrangian_value(x, ws, d, fit, cache, h)

            g = grad_a_lagrangian(a, ws, d, fit, cache, h)
            fd = central_diff(f, a)
            assert rel_grad_error(g, fd) < 1e-6


def test_lagrangian_penalty_vanishes_at_feasible_split():
    # Lam = 0 and P = the degree margin kill both coupling terms, leaving the
    # plain objective restricted to latent 0
    _, d, fit_data, cache, h = random_instance(42, "exact_mask")
    ws = build_a_workspace(d, 0, h)
    a = d.latents[0]
    ws.split.aux = ws.margin(a)
    val = a_lagrangian_value(a, ws, d, fit_data, cache, h)
    c_r = d.signatures[:, 0]
    fit = 0.0
    for t in range(d.n_steps):
        recon = sum(d.signatures[t, k] * d.latents[k] for k in range(d.n_latents))
        obs = fit_data.dense_target()[t]
        m = fit_data.dense_weight[t]
        fit += 0.5 * np.sum((m * (recon - obs)) ** 2)
    want = (
        fit
        + h.delta * np.sum(a * 0.5 * np.tensordot(c_r, fit_data.dense_z, axes=1).T)
        + h.gamma * a.sum()
        + 2.0 * h.beta * np.sum(a * (d.latents.sum(axis=0) - a))
        + 0.5 * h.eta * np.sum(a**2)
    )
    assert np.isclose(val, want)


def test_workspace_gamma_collects_other_degrees():
    latents = np.zeros((2, 3, 3))
    latents[1, 0, 1] = latents[1, 1, 0] = 2.0
    signatures = np.array([[1.0, 0.5], [2.0, 1.5]])
    d = Decomposition(latents, signatures)
    ws = build_a_workspace(d, 0, Hyperparams(zeta=0.1))
    # offset_0[t, i] = C[t, 1] * deg_1(i) - zeta
    deg1 = latents[1].sum(axis=1)
    want = np.outer(signatures[:, 1], deg1) - 0.1
    assert np.allclose(ws.offset, want)
    assert np.array_equal(ws.c_r, signatures[:, 0])
    assert ws.split.aux.shape == ws.split.dual.shape == (2, 3)
    assert not ws.split.aux.any() and not ws.split.dual.any()


def test_workspace_draws_from_given_stream():
    d = Decomposition(np.zeros((1, 3, 3)), np.ones((2, 1)))
    ws = build_a_workspace(d, 0, Hyperparams(zeta=0.1), rng=np.random.default_rng(9))
    ref = np.random.default_rng(9)
    # P is drawn (N, T), then Lam (T, N); both are held (T, N)
    assert np.array_equal(ws.split.aux, ref.standard_normal((3, 2)).T)
    assert np.array_equal(ws.split.dual, ref.standard_normal((2, 3)))


def test_workspace_rejects_bad_index():
    d = Decomposition(np.zeros((2, 3, 3)), np.ones((2, 2)))
    with pytest.raises(IndexError):
        build_a_workspace(d, 2, Hyperparams())
    with pytest.raises(IndexError):
        build_a_workspace(d, -1, Hyperparams())


def test_default_step_selection():
    _, d, fit, _, h = random_instance(50, "count_weighted")
    c0 = d.signatures[:, 0]
    w = fit.slice_max
    want = 1.0 / (c0**2 @ w + h.eta + h.lambda_a * d.n_nodes * np.sum(c0**2))
    assert np.isclose(default_step_a(d, 0, fit, h), want)
    _, _, fit2, _, h2 = random_instance(50, "exact_mask")
    want2 = 1.0 / (np.sum(c0**2) + h.eta + h.lambda_a * d.n_nodes * np.sum(c0**2))
    assert np.isclose(default_step_a(d, 0, fit2, h2), want2)


def test_default_step_aborts_on_overflowing_bound():
    _, d, fit, _, h = random_instance(50, "exact_mask")
    d.signatures[:, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalAbort, match="latent 0: curvature bound overflowed"):
            default_step_a(d, 0, fit, h)


def test_count_weighted_gradient_is_affine_identity():
    # linear part sums to (sum_t C[t,r]^2 1'm_t + eta) * I once the ADMM
    # coupling is negligible
    rng, d, fit, cache, h = random_instance(77, "count_weighted")
    h = h.replace(lambda_a=1e-12)
    r = 0
    ws = build_a_workspace(d, r, h, rng=rng)
    coef = float(d.signatures[:, r] ** 2 @ fit.slice_max) + h.eta
    a1 = rng.standard_normal((d.n_nodes, d.n_nodes))
    a2 = rng.standard_normal((d.n_nodes, d.n_nodes))
    g1 = grad_a_lagrangian(a1, ws, d, fit, cache, h)
    g2 = grad_a_lagrangian(a2, ws, d, fit, cache, h)
    lhs = g2 - g1
    rhs = coef * (a2 - a1)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1.0)


def test_solve_output_feasible_and_deterministic():
    _, d, fit, cache, h = random_instance(81, "exact_mask")
    stats = fit.a_stats(d.signatures, cache)
    a1, _, res1 = solve_a_subproblem(d, 0, fit, h, np.random.default_rng(5), stats)
    a2, _, res2 = solve_a_subproblem(d, 0, fit, h, np.random.default_rng(5), stats)
    assert np.array_equal(a1, a2)
    assert res1 == res2
    assert in_sa(a1)
    assert len(res1) == h.inner_iters
    assert all(np.isfinite(res1))


def test_a_sweep_holds_the_statistics_packed():
    # numpy allocations are traced over a_stats and one solve. Omega and Xi
    # stay (P, M + N) and (R, M + N) packed rows; beside them a float block
    # of B, or a run's positions and weights while V_r is formed, each of
    # RUN_ENTRIES plus one slice's entries, and a few (N, N) planes. A
    # (P, N, N) Omega beside the packed Xi alone would exceed that
    rng = np.random.default_rng(6)
    t, n, r = 20, 60, 10
    mask = (rng.random((t, n, n)) < 0.5).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    h = Hyperparams(n_latents=r, delta=0.5, inner_iters=3)
    fit = FitData.build(rng.random((t, n, n)), mask, h)
    cache = build_cache(rng.standard_normal((t, n, 2)))
    d = Decomposition(rng.random((r, n, n)), rng.random((t, r)))
    size, pairs = n * (n + 1) // 2, r * (r + 1) // 2
    tracemalloc.start()
    try:
        stats = fit.a_stats(d.signatures, cache)
        solve_a_subproblem(d, 0, fit, h, np.random.default_rng(0), stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * (pairs + r) * size + 16 * (RUN_ENTRIES + n * n) + 8 * 8 * n * n
    assert peak <= bound
    assert 8 * pairs * n * n + 8 * r * size > bound


def test_solve_aborts_on_nonfinite_data():
    t, n = 2, 3
    adj = np.zeros((t, n, n))
    adj[0, 0, 1] = adj[0, 1, 0] = np.inf
    mask = np.ones((t, n, n))
    h = Hyperparams(n_latents=1, delta=0.0)
    # built directly: FitData.build rejects non-finite observed entries
    fit = dense_fit(mask, adj)
    d = Decomposition(np.zeros((1, n, n)), np.ones((t, 1)))
    with pytest.raises(NumericalAbort):
        solve_a_subproblem(d, 0, fit, h, np.random.default_rng(0), fit.a_stats(d.signatures))



def test_gradient_names_delta_without_smoothness_rows():
    # the default delta = 0.001 reads Xi, which statistics built without the
    # Z rows (cache None) lack: ValueError naming delta, as objective raises
    t, n = 3, 4
    rng = np.random.default_rng(5)
    fit = FitData.build(rng.random((t, n, n)), np.ones((t, n, n)), Hyperparams())
    d = Decomposition(rng.random((2, n, n)), rng.random((t, 2)))
    h = Hyperparams()
    ws = build_a_workspace(d, 0, h, rng=rng)
    with pytest.raises(ValueError, match=r"^delta = 0\.001 needs the signals' smoothness rows"):
        grad_a_lagrangian(d.latents[0], ws, d, fit, None, h)
    # at delta = 0 no row is read
    assert np.isfinite(grad_a_lagrangian(d.latents[0], ws, d, fit, None, h.replace(delta=0.0))).all()
