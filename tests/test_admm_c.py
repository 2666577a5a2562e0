"""Signature subproblem: gradient oracle, curvature floor, solve loop."""

import numpy as np
import pytest

from dgd.admm_c import (
    build_c_workspace,
    build_upsilon,
    c_lagrangian_value,
    default_step_c,
    grad_c_lagrangian,
    solve_c_subproblem,
)
from dgd.model import Decomposition, Hyperparams, NumericalAbort, objective
from dgd.priors import diff_operator
from dgd.tensors import FitData

from helpers import central_diff, random_instance, rel_grad_error


@pytest.mark.parametrize("mode", ["exact_mask", "count_weighted"])
def test_gradient_matches_central_differences(mode):
    for trial in range(6):
        rng, d, fit, cache, h = random_instance(400 + trial, mode)
        ws = build_c_workspace(d.latents, d.n_steps, h, rng=rng)
        c = rng.standard_normal((d.n_steps, d.n_latents))

        def f(x):
            return c_lagrangian_value(x, ws, d.latents, fit, cache, h)

        g = grad_c_lagrangian(c, ws, d.latents, fit, cache, h)
        fd = central_diff(f, c)
        assert rel_grad_error(g, fd) < 1e-6


def test_smoothness_gradient_matches_objective():
    # the smoothness part of the C gradient differentiates objective().smoothness
    rng, d, fit, cache, h = random_instance(70, "exact_mask")
    ws = build_c_workspace(d.latents, d.n_steps, h)
    c = rng.random((d.n_steps, d.n_latents))
    part = grad_c_lagrangian(c, ws, d.latents, fit, cache, h) - grad_c_lagrangian(
        c, ws, d.latents, fit, cache, h.replace(delta=0.0)
    )
    zeros = np.zeros_like(fit.target)
    blank = FitData.build(zeros, zeros, h)

    def smoothness(x):
        return objective(Decomposition(d.latents, x), blank, cache, h).smoothness

    assert rel_grad_error(part, central_diff(smoothness, c)) < 1e-6


def test_temporal_gradient_matches_objective():
    # the temporal part of the C gradient differentiates objective().temporal
    rng, d, fit, cache, h = random_instance(71, "exact_mask")
    ws = build_c_workspace(d.latents, d.n_steps, h)
    c = rng.random((d.n_steps, d.n_latents))
    part = grad_c_lagrangian(c, ws, d.latents, fit, cache, h) - grad_c_lagrangian(
        c, ws, d.latents, fit, cache, h.replace(mu=0.0)
    )
    zeros = np.zeros_like(fit.target)
    blank = FitData.build(zeros, zeros, h)

    def temporal(x):
        return objective(Decomposition(d.latents, x), blank, cache, h).temporal

    assert rel_grad_error(part, central_diff(temporal, c)) < 1e-6


def test_upsilon_stacks_degree_columns():
    latents = np.zeros((2, 3, 3))
    latents[0, 0, 1] = latents[0, 1, 0] = 1.0
    latents[1, 0, 2] = latents[1, 2, 0] = 4.0
    ups = build_upsilon(latents)
    assert ups.shape == (3, 2)
    assert np.array_equal(ups[:, 0], latents[0].sum(axis=1))
    assert np.array_equal(ups[:, 1], latents[1].sum(axis=1))
    with pytest.raises(ValueError):
        build_upsilon(np.zeros((2, 3, 4)))


def test_workspace_draws_from_given_stream():
    latents = np.zeros((1, 3, 3))
    h = Hyperparams()
    ws = build_c_workspace(latents, 4, h, rng=np.random.default_rng(11))
    ref = np.random.default_rng(11)
    # P is drawn (T, N), then Lam (N, T); both are held (T, N)
    assert np.array_equal(ws.split.aux, ref.standard_normal((4, 3)))
    assert np.array_equal(ws.split.dual, ref.standard_normal((3, 4)).T)
    ws0 = build_c_workspace(latents, 4, h)
    assert ws0.split.dual.shape == (4, 3)
    assert not ws0.split.aux.any() and not ws0.split.dual.any()


def test_second_differences_stay_above_ridge():
    # the Lagrangian is quadratic in C, so second differences recover exact
    # Rayleigh quotients; every one must clear rho
    rng, d, fit, cache, h = random_instance(55, "exact_mask")
    ws = build_c_workspace(d.latents, d.n_steps, h, rng=rng)
    c = rng.standard_normal((d.n_steps, d.n_latents))
    f0 = c_lagrangian_value(c, ws, d.latents, fit, cache, h)
    s = 1e-3
    for _ in range(25):
        v = rng.standard_normal(c.shape)
        v /= np.linalg.norm(v)
        fp = c_lagrangian_value(c + s * v, ws, d.latents, fit, cache, h)
        fm = c_lagrangian_value(c - s * v, ws, d.latents, fit, cache, h)
        quotient = (fp + fm - 2.0 * f0) / s**2
        assert quotient >= h.rho - 1e-8


def test_default_step_selection():
    _, d, fit, cache, h = random_instance(60, "count_weighted")
    ws = build_c_workspace(d.latents, d.n_steps, h)
    dop = diff_operator(d.n_steps)
    dtd = dop.T @ dop
    assert default_step_c(ws, d.latents, fit, h.replace(step_c=0.125), dtd) == 0.125
    gram = float(np.linalg.norm(np.einsum("rij,sij->rs", d.latents, d.latents), 2))
    lip = (
        gram * float(fit.slice_max.max())
        + h.rho
        + 2.0 * h.mu * float(np.linalg.norm(dtd, 2))
        + h.lambda_c * float(np.linalg.norm(ws.upsilon, 2)) ** 2
    )
    assert np.isclose(default_step_c(ws, d.latents, fit, h, dtd), 1.0 / lip)


def test_solve_output_nonnegative_and_deterministic():
    _, d, fit, cache, h = random_instance(65, "exact_mask")
    c1, _, res1 = solve_c_subproblem(d, fit, cache, h, np.random.default_rng(3))
    c2, _, res2 = solve_c_subproblem(d, fit, cache, h, np.random.default_rng(3))
    assert np.array_equal(c1, c2)
    assert res1 == res2
    assert np.all(c1 >= 0.0)
    assert c1.shape == d.signatures.shape
    assert len(res1) == h.inner_iters


def test_solve_aborts_on_nonfinite_data():
    t, n = 2, 3
    adj = np.zeros((t, n, n))
    adj[0, 0, 1] = adj[0, 1, 0] = np.inf
    mask = np.ones((t, n, n))
    h = Hyperparams(n_latents=1, delta=0.0)
    # built directly: FitData.build rejects non-finite observed entries
    fit = FitData(weight=mask, target=adj)
    latents = np.zeros((1, n, n))
    latents[0, 0, 1] = latents[0, 1, 0] = 1.0
    d = Decomposition(latents, np.ones((t, 1)))
    with pytest.raises(NumericalAbort):
        solve_c_subproblem(d, fit, cache=None, h=h, rng=np.random.default_rng(0))
