"""ADMM subproblem for one latent adjacency matrix A_r.

With the signatures C and the other latents fixed, A_r is updated by K
iterations of a projected-gradient ADMM on the augmented Lagrangian

    L(A_r, P, Lam) = f(A_r) + <Lam, M_r(A_r) - P> + lambda_a/2 ||M_r(A_r) - P||_F^2,

where M_r(A_r) = outer(c_r, A_r 1) + offset_r is the (T, N) degree margin
with A_r in place of latent r, offset_r = C_{-r} Ups_{-r}' - zeta collects the
degrees of the other latents minus the floor, and the auxiliary P >= 0 splits
the minimum-degree constraint (:class:`model.DegreeSplit`). Each iteration
does a gradient step projected onto S_A, a closed-form clipped P update, and a
dual ascent step on Lam.

The fit part of f is the weighted least squares of :class:`FitData`, whose
gradient in A_r is A_r o Omega_r + B_r. Omega_r, B_r and the smoothness,
sparsity and overlap gradients do not depend on A_r, so each solve builds
them once (:func:`a_gradient_terms`) instead of once per inner step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DegreeSplit, normal_or_zeros, project_sa, run_admm
from .priors import xi_matrix


@dataclass
class AWorkspace:
    """Per-solve state for one latent index r.

    c_r    : (T,), signature column r
    offset : (T, N), degree contribution of the other latents minus zeta
    split  : the degree-constraint split, P and Lam both (T, N)
    """

    r: int
    c_r: np.ndarray
    offset: np.ndarray
    split: DegreeSplit

    def margin(self, a_r):
        """(T, N) degree margin outer(c_r, A_r 1) + offset_r."""
        return np.outer(self.c_r, a_r.sum(axis=1)) + self.offset


def build_a_workspace(d, r, h, rng=None):
    """Assemble c_r and offset_r; draw P/Lam as N(0,1) when an rng is given."""
    n_lat, n, _ = d.latents.shape
    if not 0 <= r < n_lat:
        raise IndexError(f"latent index {r} out of range for R={n_lat}")
    t = d.n_steps
    keep = [k for k in range(n_lat) if k != r]
    offset = d.signatures[:, keep] @ d.latents[keep].sum(axis=2) - h.zeta
    # P is drawn (N, T) so that runs keep their random stream
    p = normal_or_zeros(rng, (n, t)).T
    split = DegreeSplit(aux=p, dual=normal_or_zeros(rng, (t, n)), penalty=h.lambda_a)
    return AWorkspace(r=r, c_r=d.signatures[:, r].copy(), offset=offset, split=split)


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
    wd = ws.split.weighted_residual(ws.margin(a_r))
    return a_r * omega + linear + (wd.T @ ws.c_r)[:, None]


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
    return val + ws.split.coupling(ws.margin(a_r))


def default_step_a(d, r, fit, h):
    """Inverse curvature bound for the A_r gradient step.

    The fit curvature sum_t C[t,r]^2 W_t is bounded entrywise by
    sum_t C[t,r]^2 w_t, w_t = max W_t. Add eta and lambda_a N ||c_r||^2, which
    bounds the augmented term: ||outer(c_r, A 1)||_F^2 <= N ||c_r||^2 ||A||_F^2.
    """
    if h.step_a is not None:
        return h.step_a
    c2 = d.signatures[:, r] ** 2
    lip = float(c2 @ fit.slice_max) + h.eta + h.lambda_a * d.n_nodes * float(np.sum(c2))
    return 1.0 / max(lip, 1e-8)


def solve_a_subproblem(d, r, fit, cache, h, rng):
    """Run K ADMM iterations on latent r; returns (new A_r, workspace, residuals).

    The update order per iteration is gradient step + projection onto S_A,
    clipped closed-form P update, then dual ascent (:func:`model.run_admm`).
    """
    ws = build_a_workspace(d, r, h, rng=rng)
    terms = a_gradient_terms(d, r, fit, cache, h)

    def grad(a):
        return grad_a_lagrangian(a, ws, d, fit, cache, h, terms=terms)

    step = default_step_a(d, r, fit, h)
    return run_admm(d.latents[r].copy(), ws, grad, project_sa, step, h.inner_iters, f"latent {r}")
