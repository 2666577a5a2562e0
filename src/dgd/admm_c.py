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
the smoothness coupling do not depend on C, so each solve builds them once
(:func:`c_gradient_terms`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DegreeSplit, normal_or_zeros, project_sc, run_admm
from .priors import diff_operator, smoothness_traces, temporal_pi
from .tensors import weighted_grams


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


def c_gradient_terms(latents, fit, cache, h):
    """Parts of the C gradient that stay fixed over the K inner steps.

    Returns (grams, linear) such that row t of the fit plus smoothness
    gradient is G_t c_t + linear_t, with G_t = sum_ij W_t A_r A_s (T, R, R)
    and linear_t = -b_t + delta/2 <Z_t, A_r>, b_t = sum_ij W_t Y_t A_r. The
    smoothness part is the derivative of the objective's 1/2 sum C[t,r] <Z_t, A_r>.
    """
    grams = weighted_grams(fit.weight, latents)
    linear = -np.tensordot(fit.weight * fit.target, latents, axes=([1, 2], [1, 2]))
    if h.delta != 0.0:
        linear += 0.5 * h.delta * smoothness_traces(latents, cache)
    return grams, linear


def _dtd(n_steps):
    dop = diff_operator(n_steps)
    return dop.T @ dop


def grad_c_lagrangian(c, ws, latents, fit, cache, h, terms=None, dtd=None):
    """Gradient of the augmented Lagrangian at c, latents fixed.

    `terms` may carry the (grams, linear) pair of :func:`c_gradient_terms`
    and dtd the (T, T) product D'D; both are rebuilt when omitted.
    """
    c = np.asarray(c, dtype=np.float64)
    if terms is None:
        terms = c_gradient_terms(latents, fit, cache, h)
    grams, linear = terms
    g = np.einsum("trs,ts->tr", grams, c) + linear
    if h.mu != 0.0:
        if dtd is None:
            dtd = _dtd(c.shape[0])
        g = g + 2.0 * h.mu * (dtd @ c)
    if h.rho != 0.0:
        g = g + h.rho * c
    return g + ws.split.weighted_residual(ws.margin(c)) @ ws.upsilon


def c_lagrangian_value(c, ws, latents, fit, cache, h):
    """Value of the augmented Lagrangian that grad_c_lagrangian differentiates."""
    c = np.asarray(c, dtype=np.float64)
    val = fit.loss(np.einsum("tr,rij->tij", c, latents))
    if h.delta != 0.0:
        val += 0.5 * h.delta * float(np.sum(c * smoothness_traces(latents, cache)))
    if h.mu != 0.0:
        val += h.mu * temporal_pi(c)
    if h.rho != 0.0:
        val += 0.5 * h.rho * float(np.sum(c**2))
    return val + ws.split.coupling(ws.margin(c))


def default_step_c(ws, latents, fit, h, dtd):
    """Inverse curvature bound for the C gradient step.

    The fit Gram G_t is bounded by the unweighted latent Gram times
    w_t = max W_t, so the largest w_t scales its spectral norm. The temporal
    term mu ||DC||_F^2 adds 2 mu ||D'D||_2.
    """
    if h.step_c is not None:
        return h.step_c
    stacked = latents.reshape(len(latents), -1)
    gram_norm = float(np.linalg.norm(stacked @ stacked.T, 2))
    lip = gram_norm * float(fit.slice_max.max()) + h.rho
    if h.mu != 0.0:
        lip += 2.0 * h.mu * float(np.linalg.norm(dtd, 2))
    # a numpy scalar, so that an overflowing square gives inf, not OverflowError
    ups_norm = np.linalg.norm(ws.upsilon, 2)
    lip += h.lambda_c * float(ups_norm**2)
    return 1.0 / max(lip, 1e-8)


def solve_c_subproblem(d, fit, cache, h, rng):
    """Run K ADMM iterations on the signatures; returns (new C, ws, residuals).

    Update order per iteration: gradient step + projection onto the
    nonnegative orthant, clipped closed-form P update, dual ascent on Lam
    (:func:`model.run_admm`).
    """
    ws = build_c_workspace(d.latents, d.n_steps, h, rng=rng)
    terms = c_gradient_terms(d.latents, fit, cache, h)
    dtd = _dtd(d.n_steps)

    def grad(c):
        return grad_c_lagrangian(c, ws, d.latents, fit, cache, h, terms=terms, dtd=dtd)

    step = default_step_c(ws, d.latents, fit, h, dtd)
    return run_admm(d.signatures.copy(), ws, grad, project_sc, step, h.inner_iters, "signatures")
