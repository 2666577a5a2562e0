"""Alternating driver for the latent graph decomposition.

Each outer iteration runs the K-step ADMM solve for every latent adjacency
in turn (Gauss-Seidel, each solve sees the freshest blocks) and then the
signature solve (:func:`outer_iteration`). The fit statistics each block
reads of the data are built once per outer iteration, not once per solve.
Auxiliary and dual variables are drawn fresh from N(0,1) at the start of
every subproblem solve, all from the single driver rng stream, so a run is
a pure function of (data, hyperparams, seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .admm_a import solve_a_subproblem
from .admm_c import solve_c_subproblem
from .model import Decomposition, NumericalAbort, degree_margin, objective, project_sa
from .priors import build_cache
from .tensors import FitData, as_stack, as_stacks


@dataclass
class RunHistory:
    """Per-outer-iteration trace of a solver run.

    breakdowns holds one ObjectiveBreakdown per outer iteration;
    a_residuals[i][r] and c_residuals[i] are the final ADMM primal residuals
    of iteration i; min_degree_margin[i] is the least entry of
    model.degree_margin after iteration i's C step, negative when the
    minimum-degree constraint is violated; status is one of
    running/converged/max_iters/aborted.
    """

    breakdowns: list = field(default_factory=list)
    a_residuals: list = field(default_factory=list)
    c_residuals: list = field(default_factory=list)
    min_degree_margin: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    status: str = "running"
    zero_observation_steps: list = field(default_factory=list)

    @property
    def totals(self):
        return [b.total for b in self.breakdowns]


def initialize(seed, n_nodes, n_steps, n_latents):
    """Draw a feasible starting point: uniform latents pushed into S_A, then
    uniform signatures. Accepts an int seed or a Generator."""
    rng = np.random.default_rng(seed)
    latents = rng.random((n_latents, n_nodes, n_nodes))
    for k in range(n_latents):
        latents[k] = project_sa(latents[k])
    signatures = rng.random((n_steps, n_latents))
    return Decomposition(latents, signatures)


def outer_iteration(d, fit, cache, h, rng):
    """One alternating pass over all blocks, updating d in place.

    The A-block statistics of the signatures are built before the A sweep
    and dropped after it; the C-block statistics of the latents, built next,
    serve the C solve and the objective. Returns (breakdown, final A
    residual per latent, final C residual).
    """
    a_stats = fit.a_stats(d.signatures, cache)
    a_res = []
    for r in range(h.n_latents):
        a_new, _, res = solve_a_subproblem(d, r, fit, h, rng, a_stats)
        d.latents[r] = a_new
        a_res.append(res[-1])
    del a_stats
    c_stats = fit.c_stats(d.latents, cache)
    d.signatures, _, c_res = solve_c_subproblem(d, fit, h, rng, c_stats)
    return objective(d, fit, cache, h, stats=c_stats), a_res, c_res[-1]


def run_dgd(adj, mask, signals, h, seed):
    """Recover (latents, signatures) from a partially observed slice stack.

    Parameters
    ----------
    adj : (T, N, N) observed adjacency values; entries where mask is 0 are
        never read and may hold anything, NaN included. Observed entries and
        signals must be finite (ValueError otherwise).
    mask : (T, N, N) binary symmetric observation mask. A step that observes
        no pair i != j is listed in the history's zero_observation_steps and
        named in one UserWarning; a run where no step observes one aborts.
    signals : (T, N, Q) node signals, or None when h.delta == 0; never read
        when h.delta == 0. When h.delta > 0, missing signals or signals of
        another (T, N) than the mask raise ValueError before any slice is read.
    adj, mask and signals may be any slice stack (:func:`tensors.as_stack`),
    such as an io_dgt.DgtSlices reader; each is read one slice at a time, once.
    h : Hyperparams, checked when built.
    seed : int seed or np.random.Generator.

    Returns
    -------
    (Decomposition, RunHistory). Raises NumericalAbort (with .history set to
    the partial trace, status "aborted") if an iterate diverges or nothing is
    observed. The run prints nothing: the history and Python warnings are its
    only reports.
    """
    adj, mask = as_stacks(adj, mask)
    n_steps, n = mask.shape[:2]
    if h.delta != 0.0:
        if signals is None:
            raise ValueError("signals are required when delta > 0")
        signals = as_stack(signals)
        shape = signals.shape
        if len(shape) != 3 or tuple(shape[:2]) != (n_steps, n):
            raise ValueError(f"expected ({n_steps}, {n}, Q) signals, got {shape}")
    fit = FitData.build(adj, mask, h)

    history = RunHistory()
    try:
        zero_steps = fit.unobserved
        history.zero_observation_steps = [int(s) for s in zero_steps]
        if zero_steps.size == n_steps:
            raise NumericalAbort("no observed entries off the diagonal in any time step")
        if zero_steps.size:
            warnings.warn(
                f"{zero_steps.size} time steps carry no observations off the diagonal: "
                f"{history.zero_observation_steps}",
                stacklevel=2,
            )

        cache = None if h.delta == 0.0 else build_cache(signals)

        rng = np.random.default_rng(seed)
        d = initialize(rng, n, n_steps, h.n_latents)
        streak = 0
        for _ in range(h.outer_iters):
            t0 = perf_counter()
            bd, a_res, c_res = outer_iteration(d, fit, cache, h, rng)
            history.breakdowns.append(bd)
            history.a_residuals.append(a_res)
            history.c_residuals.append(c_res)
            history.min_degree_margin.append(float(degree_margin(d, h.zeta).min()))
            history.seconds.append(perf_counter() - t0)
            if len(history.breakdowns) > 1:
                prev_total = history.breakdowns[-2].total
                rel = abs(bd.total - prev_total) / max(abs(prev_total), 1e-12)
                streak = streak + 1 if rel < h.tol_outer else 0
            if streak >= 3:
                history.status = "converged"
                break
        else:
            history.status = "max_iters"
    except NumericalAbort as err:
        history.status = "aborted"
        err.history = history
        raise
    return d, history
