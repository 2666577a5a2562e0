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
gradient in A_r is A_r o Omega_rr + B_r with B_r = sum_{k != r} Omega_rk o A_k
- V_r. The planes Omega_rk, V_r and the smoothness weights Xi_r depend on C
alone, which is fixed for the whole A sweep, so their packed rows and
weights are built once per outer iteration (:meth:`FitData.a_stats`) and
passed to every solve. Each solve unpacks the planes of latent r, forms V_r,
and from them and the freshest A_k forms its (omega, linear) pair in
O(R N^2) (:func:`a_gradient_terms`), once for its K inner steps. Every
prior weight but delta is applied even at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DegreeSplit,
    check_smoothness,
    normal_or_zeros,
    project_sa,
    run_admm,
    step_from_bound,
)


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


def a_gradient_terms(d, r, h, stats):
    """Parts of the A_r gradient that stay fixed over the K inner steps.

    Returns (omega, linear) such that the gradient of everything but the
    ADMM coupling is A_r o omega + linear. omega = Omega_rr + eta;
    linear = B_r + delta Xi_r + gamma + 2 beta sum_{k != r} A_k, with
    the fit part B_r = sum_{k != r} Omega_rk o A_k - V_r formed from `stats`,
    the :class:`tensors.AStats` of d.signatures. Every weight but delta is
    applied even at zero; Xi_r needs the Z rows, so delta only when nonzero,
    and stats built without them raise ValueError naming delta
    (:func:`model.check_smoothness`).
    """
    check_smoothness(h, stats.xi)
    linear = stats.v_plane(r)
    np.negative(linear, out=linear)
    for k in range(d.n_latents):
        if k != r:
            linear += stats.omega_plane(r, k) * d.latents[k]
    omega = stats.omega_plane(r, r) + h.eta
    if h.delta != 0.0:
        linear += h.delta * stats.xi_plane(r)
    linear += h.gamma
    linear += 2.0 * h.beta * (d.latents.sum(axis=0) - d.latents[r])
    return omega, linear


def grad_a_lagrangian(a_r, ws, d, fit, cache, h, terms=None, margin=None):
    """Gradient of the augmented Lagrangian at a_r, other blocks fixed.

    `terms` may carry the (omega, linear) pair of :func:`a_gradient_terms`;
    when omitted it is formed from fit.a_stats(d.signatures, cache), the only
    use of fit and cache. `margin` may carry ws.margin(a_r), else it is formed.
    """
    a_r = np.asarray(a_r, dtype=np.float64)
    if terms is None:
        terms = a_gradient_terms(d, ws.r, h, fit.a_stats(d.signatures, cache))
    if margin is None:
        margin = ws.margin(a_r)
    omega, linear = terms
    wd = ws.split.weighted_residual(margin)
    return a_r * omega + linear + (wd.T @ ws.c_r)[:, None]


def default_step_a(d, r, fit, h):
    """Inverse curvature bound for the A_r gradient step.

    The fit curvature sum_t C[t,r]^2 W_t is bounded entrywise by
    sum_t C[t,r]^2 w_t, w_t = max W_t. Add eta and lambda_a N ||c_r||^2, which
    bounds the augmented term: ||outer(c_r, A 1)||_F^2 <= N ||c_r||^2 ||A||_F^2.
    A bound that overflows aborts through :func:`model.step_from_bound`
    without numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = d.signatures[:, r] ** 2
        lip = float(c2 @ fit.slice_max) + h.eta + h.lambda_a * d.n_nodes * float(np.sum(c2))
    return step_from_bound(lip, f"latent {r}")


def solve_a_subproblem(d, r, fit, h, rng, stats):
    """Run K ADMM iterations on latent r; returns (new A_r, workspace, residuals).

    The update order per iteration is gradient step + projection onto S_A,
    clipped closed-form P update, then dual ascent (:func:`model.run_admm`).
    `stats` is the :class:`tensors.AStats` of d.signatures, which the driver
    builds once per sweep; fit supplies the step bound.
    """
    ws = build_a_workspace(d, r, h, rng=rng)
    step = default_step_a(d, r, fit, h)
    terms = a_gradient_terms(d, r, h, stats)

    def grad(a, margin):
        return grad_a_lagrangian(a, ws, d, fit, None, h, terms=terms, margin=margin)

    return run_admm(d.latents[r].copy(), ws, grad, project_sa, step, h.inner_iters, f"latent {r}")
