"""ADMM subproblem for one latent adjacency matrix A_r.

With the signatures C and the other latents fixed, A_r is updated by K
iterations of a projected-gradient ADMM on the augmented Lagrangian

    L(A_r, P, Lam) = f(A_r) + tr(Lam (A_r Phi_r + Gamma_r - P))
                     + lambda_a/2 ||A_r Phi_r + Gamma_r - P||_F^2,

where Phi_r = 1_N c_r' carries the signature weights, Gamma_r collects the
degree contribution of the other latents minus the degree floor zeta, and the
auxiliary P >= 0 splits the minimum-degree constraint. Each iteration does a
gradient step projected onto S_A, a closed-form clipped P update, and a dual
ascent step on Lam.

The fit part of f is the weighted least squares of :class:`FitData`, whose
gradient in A_r is A_r o Omega_r + B_r. Omega_r, B_r and the smoothness,
sparsity and overlap gradients do not depend on A_r, so each solve builds
them once (:func:`a_gradient_terms`) instead of once per inner step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NumericalAbort, project_sa
from .priors import xi_matrix


@dataclass
class AWorkspace:
    """Per-solve state for one latent index r.

    phi_r   : (N, T), column t = C[t, r] * 1_N
    gamma_r : (N, T), degree contribution of the other latents minus zeta
    p       : (N, T) auxiliary split of the degree constraint
    lam_r   : (T, N) dual variable
    """

    r: int
    phi_r: np.ndarray
    gamma_r: np.ndarray
    p: np.ndarray
    lam_r: np.ndarray


def build_a_workspace(d, r, zeta, rng=None):
    """Assemble Phi_r and Gamma_r; draw P/Lam as N(0,1) when an rng is given."""
    n_lat, n, _ = d.latents.shape
    if not 0 <= r < n_lat:
        raise IndexError(f"latent index {r} out of range for R={n_lat}")
    t = d.n_steps
    c = d.signatures
    phi = np.ones((n, 1)) @ c[:, r][None, :]
    gamma = -zeta * np.ones((n, t))
    for k in range(n_lat):
        if k == r:
            continue
        gamma += np.outer(d.latents[k].sum(axis=1), c[:, k])
    if rng is not None:
        p = rng.standard_normal((n, t))
        lam = rng.standard_normal((t, n))
    else:
        p = np.zeros((n, t))
        lam = np.zeros((t, n))
    return AWorkspace(r=r, phi_r=phi, gamma_r=gamma, p=p, lam_r=lam)


def a_gradient_terms(d, r, fit, cache, h):
    """Parts of the A_r gradient that stay fixed over the K inner steps.

    Returns (omega, linear) such that the gradient of everything but the
    ADMM coupling is A_r o omega + linear. omega = sum_t C[t,r]^2 W_t + eta;
    linear = B_r + delta Xi_r + gamma + 2 beta sum_{k != r} A_k, with
    B_r = sum_t C[t,r] W_t o (rest_t - Y_t) and rest_t = sum_{k != r} C[t,k] A_k.
    """
    c_r = d.signatures[:, r]
    keep = [k for k in range(d.n_latents) if k != r]
    resid = np.tensordot(d.signatures[:, keep], d.latents[keep], axes=1)
    resid -= fit.target
    resid *= fit.weight
    linear = np.tensordot(c_r, resid, axes=1)
    omega = np.tensordot(c_r**2, fit.weight, axes=1) + h.eta
    if h.delta != 0.0:
        linear += h.delta * xi_matrix(cache, c_r)
    if h.gamma != 0.0:
        linear += h.gamma
    if h.beta != 0.0:
        linear += 2.0 * h.beta * (d.latents.sum(axis=0) - d.latents[r])
    return omega, linear


def grad_a_lagrangian(a_r, ws, d, fit, cache, h, terms=None):
    """Gradient of the augmented Lagrangian at a_r, other blocks fixed.

    `terms` may carry the (omega, linear) pair of :func:`a_gradient_terms`;
    it is rebuilt from d when omitted.
    """
    a_r = np.asarray(a_r, dtype=np.float64)
    if terms is None:
        terms = a_gradient_terms(d, ws.r, fit, cache, h)
    omega, linear = terms
    g = a_r * omega + linear
    resid = a_r @ ws.phi_r + ws.gamma_r - ws.p
    g = g + ws.lam_r.T @ ws.phi_r.T + h.lambda_a * (resid @ ws.phi_r.T)
    return g


def a_lagrangian_value(a_r, ws, d, fit, cache, h):
    """Value of the augmented Lagrangian that grad_a_lagrangian differentiates."""
    a_r = np.asarray(a_r, dtype=np.float64)
    r = ws.r
    c_r = d.signatures[:, r]
    latents = d.latents.copy()
    latents[r] = a_r
    val = fit.loss(np.einsum("tk,kij->tij", d.signatures, latents))
    if h.delta != 0.0:
        val += h.delta * float(np.sum(a_r * xi_matrix(cache, c_r)))
    val += h.gamma * float(a_r.sum())
    if h.beta != 0.0:
        others = d.latents.sum(axis=0) - d.latents[r]
        val += 2.0 * h.beta * float(np.sum(a_r * others))
    if h.eta != 0.0:
        val += 0.5 * h.eta * float(np.sum(a_r**2))
    resid = a_r @ ws.phi_r + ws.gamma_r - ws.p
    val += float(np.sum(ws.lam_r * resid.T))
    val += 0.5 * h.lambda_a * float(np.sum(resid**2))
    return val


def default_step_a(d, r, fit, h):
    """Inverse curvature bound for the A_r gradient step.

    The fit curvature sum_t C[t,r]^2 W_t is bounded entrywise by
    sum_t C[t,r]^2 w_t, w_t = max W_t. Add eta and the augmented term
    lambda_a ||Phi_r||_2^2 = lambda_a N ||c_r||^2.
    """
    if h.penalty_as_step:
        return h.lambda_a
    if h.step_a is not None:
        return h.step_a
    c2 = d.signatures[:, r] ** 2
    lip = float(c2 @ fit.slice_max) + h.eta + h.lambda_a * d.n_nodes * float(np.sum(c2))
    return 1.0 / max(lip, 1e-8)


def solve_a_subproblem(d, r, fit, cache, h, rng):
    """Run K ADMM iterations on latent r; returns (new A_r, workspace, residuals).

    The update order per iteration is gradient step + projection onto S_A,
    clipped closed-form P update, then dual ascent. Residuals record
    ||A Phi_r + Gamma_r - P||_F after each iteration.
    """
    if h.inner_iters < 1:
        raise ValueError(f"inner_iters must be >= 1, got {h.inner_iters}")
    ws = build_a_workspace(d, r, h.zeta, rng=rng)
    terms = a_gradient_terms(d, r, fit, cache, h)
    step = default_step_a(d, r, fit, h)
    a = d.latents[r].copy()
    gamma_scale = float(np.linalg.norm(ws.gamma_r))
    residuals = []
    for _ in range(h.inner_iters):
        g = grad_a_lagrangian(a, ws, d, fit, cache, h, terms=terms)
        a = project_sa(a - step * g)
        if not np.all(np.isfinite(a)):
            raise NumericalAbort(
                f"latent {r}: iterate went non-finite (step {step:.3e} too large)"
            )
        ap = a @ ws.phi_r + ws.gamma_r
        ws.p = np.maximum(ws.lam_r.T / h.lambda_a + ap, 0.0)
        resid = ap - ws.p
        ws.lam_r = ws.lam_r + h.lambda_a * resid.T
        residuals.append(float(np.linalg.norm(resid)))
        if h.admm_early_exit and residuals[-1] < 1e-6 * gamma_scale:
            break
    return a, ws, residuals
