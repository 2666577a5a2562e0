"""ADMM subproblem for the temporal signature matrix C.

With the latents fixed, C is updated by K iterations of projected-gradient
ADMM on

    L(C, P, Lam) = f(C) + <Lam, C Ups' - zeta - P> + lambda_c/2 ||C Ups' - zeta - P||_F^2,

where Ups stacks the latent degree vectors A_r 1 as columns, so row t of
C Ups' is the reconstructed degree vector at step t; C Ups' - zeta is the
(T, N) degree margin and the auxiliary P >= 0 splits the minimum-degree
constraint (:class:`model.DegreeSplit`). f adds the weighted least-squares
fit of :class:`FitData`, the signal smoothness coupling, the squared
forward-difference penalty mu ||DC||_F^2 and a ridge. The fit gradient of
row t is G_t c_t - b_t with per-slice R x R Grams G_t; the Grams, b_t and
the smoothness traces <Z_t, A_r> depend on the latents alone, so they are
built once per outer iteration, after the A sweep (:meth:`FitData.c_stats`),
passed to the solve and reused by :func:`model.objective`. D'D is applied as
a second difference (:func:`priors.dtd_product`), never as a (T, T) matrix.
Every prior weight but delta is applied even at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DegreeSplit,
    check_smoothness,
    normal_or_zeros,
    project_sc,
    run_admm,
    step_from_bound,
)
from .priors import dtd_norm, dtd_product


@dataclass
class CWorkspace:
    """Per-solve state for the signature update.

    upsilon : (N, R), column r = A_r 1
    zeta    : the degree floor
    split   : the degree-constraint split, P and Lam both (T, N)
    """

    upsilon: np.ndarray
    zeta: float
    split: DegreeSplit

    def margin(self, c):
        """(T, N) degree margin C Ups' - zeta."""
        return c @ self.upsilon.T - self.zeta


def build_upsilon(latents):
    """Stack latent degree vectors: (R, N, N) -> (N, R) with column r = A_r 1."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 3 or latents.shape[1] != latents.shape[2]:
        raise ValueError(f"expected (R, N, N) latents, got {latents.shape}")
    return latents.sum(axis=2).T


def build_c_workspace(latents, n_steps, h, rng=None):
    """Assemble Upsilon; draw P/Lam as N(0,1) when an rng is given."""
    ups = build_upsilon(latents)
    n = ups.shape[0]
    p = normal_or_zeros(rng, (n_steps, n))
    # Lam is drawn (N, T) so that runs keep their random stream
    split = DegreeSplit(aux=p, dual=normal_or_zeros(rng, (n, n_steps)).T, penalty=h.lambda_c)
    return CWorkspace(upsilon=ups, zeta=h.zeta, split=split)


def c_gradient_terms(h, stats):
    """Parts of the C gradient that stay fixed over the K inner steps.

    Returns (grams, linear) such that row t of the fit plus smoothness
    gradient is G_t c_t + linear_t, with G_t = sum_ij W_t A_r A_s (T, R, R)
    and linear_t = -b_t + delta/2 <Z_t, A_r>, b_t = sum_ij W_t Y_t A_r. The
    smoothness part is the derivative of the objective's 1/2 sum C[t,r] <Z_t, A_r>.
    `stats` is the :class:`tensors.CStats` of the latents. delta is the one
    conditional weight: the traces need the Z rows, so its term is added only
    when delta != 0, and stats built without them raise ValueError naming
    delta (:func:`model.check_smoothness`).
    """
    check_smoothness(h, stats.traces)
    linear = -stats.b
    if h.delta != 0.0:
        linear = linear + 0.5 * h.delta * stats.traces
    return stats.grams, linear


def grad_c_lagrangian(c, ws, latents, fit, cache, h, terms=None, margin=None):
    """Gradient of the augmented Lagrangian at c, latents fixed.

    `terms` may carry the (grams, linear) pair of :func:`c_gradient_terms`;
    when omitted it is formed from fit.c_stats(latents, cache), the only use
    of latents, fit and cache. `margin` may carry ws.margin(c), else it is
    formed. Every weight but delta (:func:`c_gradient_terms`) is applied even at zero.
    """
    c = np.asarray(c, dtype=np.float64)
    if terms is None:
        terms = c_gradient_terms(h, fit.c_stats(latents, cache))
    if margin is None:
        margin = ws.margin(c)
    grams, linear = terms
    g = np.einsum("trs,ts->tr", grams, c) + linear + 2.0 * h.mu * dtd_product(c) + h.rho * c
    return g + ws.split.weighted_residual(margin) @ ws.upsilon


def default_step_c(ws, latents, fit, h):
    """Inverse curvature bound for the C gradient step.

    The fit Gram G_t is bounded by the unweighted latent Gram times
    w_t = max W_t, so the largest w_t scales its spectral norm. The temporal
    term mu ||DC||_F^2 adds 2 mu ||D'D||_2, in closed form
    (:func:`priors.dtd_norm`), and the ridge adds rho. A bound that overflows
    aborts through :func:`model.step_from_bound` without numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = latents.reshape(len(latents), -1)
        gram_norm = float(np.linalg.norm(stacked @ stacked.T, 2))
        lip = gram_norm * float(fit.slice_max.max()) + h.rho + 2.0 * h.mu * dtd_norm(fit.n_steps)
        # a numpy scalar, so that an overflowing square gives inf, not OverflowError
        ups_norm = np.linalg.norm(ws.upsilon, 2)
        lip += h.lambda_c * float(ups_norm**2)
    return step_from_bound(lip, "signatures")


def solve_c_subproblem(d, fit, h, rng, stats):
    """Run K ADMM iterations on the signatures; returns (new C, ws, residuals).

    Update order per iteration: gradient step + projection onto the
    nonnegative orthant, clipped closed-form P update, dual ascent on Lam
    (:func:`model.run_admm`). `stats` is the :class:`tensors.CStats` of
    d.latents, which the driver builds once per outer iteration; fit supplies
    the step bound. The step bound comes first, so data too large for
    float64 aborts naming the bound.
    """
    ws = build_c_workspace(d.latents, d.n_steps, h, rng=rng)
    step = default_step_c(ws, d.latents, fit, h)
    terms = c_gradient_terms(h, stats)

    def grad(c, margin):
        return grad_c_lagrangian(c, ws, d.latents, fit, None, h, terms=terms, margin=margin)

    return run_admm(d.signatures.copy(), ws, grad, project_sc, step, h.inner_iters, "signatures")
