"""Decomposition model: value types, objective, projections, feasibility.

A dynamic network is modeled as a weighted combination of R latent graphs,

    A_t = sum_r C[t, r] * A_r,

with each A_r in S_A (symmetric, entrywise nonnegative, zero diagonal) and the
signature matrix C in S_C (entrywise nonnegative). The objective combines a
least-squares fit on the observed entries with sparsity, signal-smoothness,
temporal-variation and overlap priors.

The fit is one weighted least squares,
fit = 1/2 sum_t sum_ij W_t,ij (recon_t,ij - Y_t,ij)^2, with target Y = M o A
(see tensors.FitData). The gradient mode only picks the weight: `exact_mask`
(the default) uses W = M and scores exactly the observed entries;
`count_weighted` uses the per-slice observation count k_t = 1'm_t on every
entry of slice t. Both are W_t = scale_t B_t, a per-slice factor times a 0/1
pattern held as packed rows at one bit per entry, one row per slice holding
the strict upper triangle and then the diagonal (tensors.triangle), so every
fit computation is one code path and one product against those rows;
FitData.build alone tells the modes apart. The
subproblems in admm_a/admm_c differentiate the same loss and share one split
of the minimum-degree constraint (DegreeSplit, run_admm).
The objective's fit and smoothness terms come from the C-block statistics
(tensors.CStats) that the driver builds once per outer iteration, after the
A sweep, so evaluating it costs O(T R^2) beyond them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Real
from typing import get_type_hints

import numpy as np

from . import priors
from .tensors import GRADIENT_MODES, project_sa  # project_sa exported beside project_sc


def check_number(name, value, integer=False, low=None, strict=False):
    """Raise ValueError naming `name` unless value is an integer (integer=True)
    or a finite real number, a bool being neither, and, when low is given,
    value > low (strict) or value >= low."""
    if integer:
        ok, kind = isinstance(value, (int, np.integer)), "an integer"
    else:
        ok, kind = isinstance(value, Real) and math.isfinite(value), "a finite number"
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if low is not None and (value <= low if strict else value < low):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")


def check_fields(record, low, strict=()):
    """check_number on each field of a settings dataclass by its declared type.

    An int field must be an integer >= low[name] and a float field a finite
    number >= 0 (> 0 for the names in strict); ValueError naming the first
    field that is not. str fields are left to the record's own rules.
    """
    for name, kind in get_type_hints(type(record)).items():
        value = getattr(record, name)
        if kind is int:
            check_number(name, value, integer=True, low=low[name])
        elif kind is float:
            check_number(name, value, low=0, strict=name in strict)


def settings_from_dict(cls, cfg, unknown):
    """cls(**cfg) for a settings dataclass cls, which checks its fields as it is
    built; a JSON int given for a float field becomes a float, and the first
    unknown key in sorted order raises ValueError(unknown.format(key))."""
    extra = sorted(set(cfg) - {f.name for f in fields(cls)})
    if extra:
        raise ValueError(unknown.format(extra[0]))
    floats = {name for name, kind in get_type_hints(cls).items() if kind is float}
    return cls(**{k: float(v) if k in floats and type(v) is int else v
                  for k, v in cfg.items()})


class NumericalAbort(RuntimeError):
    """Raised when an iterate goes non-finite (diverging step, bad data)."""


@dataclass
class Decomposition:
    """R latent adjacency matrices plus their temporal signatures.

    latents    : (R, N, N), each slice in S_A
    signatures : (T, R) nonnegative, column r is the temporal profile of A_r
    """

    latents: np.ndarray
    signatures: np.ndarray

    def __post_init__(self):
        self.latents = np.asarray(self.latents, dtype=np.float64)
        self.signatures = np.asarray(self.signatures, dtype=np.float64)
        if self.latents.ndim != 3 or self.latents.shape[1] != self.latents.shape[2]:
            raise ValueError(f"latents must be (R, N, N), got {self.latents.shape}")
        if self.signatures.ndim != 2 or self.signatures.shape[1] != self.latents.shape[0]:
            raise ValueError(
                f"signatures must be (T, {self.latents.shape[0]}), got {self.signatures.shape}"
            )

    @property
    def n_latents(self):
        return self.latents.shape[0]

    @property
    def n_nodes(self):
        return self.latents.shape[1]

    @property
    def n_steps(self):
        return self.signatures.shape[0]


@dataclass(frozen=True)
class Hyperparams:
    """All solver knobs. Config files mirror these fields one-to-one. Checked when
    built, replace included (ValueError naming the first bad field), and immutable.

    n_latents     : R, number of latent graphs
    gamma         : sparsity weight on sum 1'A_r 1
    delta         : signal smoothness weight
    beta          : overlap penalty between distinct latents
    mu            : temporal-variation weight on ||DC||_F^2
    rho           : ridge on C (strong convexity of the C block)
    zeta          : minimum reconstructed degree per node and time
    eta           : optional ridge on each A_r (0 disables)
    lambda_a/c    : ADMM penalty parameters of the two subproblems
    inner_iters   : K, ADMM iterations per subproblem
    outer_iters   : I, alternating passes over all blocks
    gradient_mode : 'exact_mask' or 'count_weighted'
    tol_outer     : relative objective change declaring outer convergence
    """

    n_latents: int = 2
    gamma: float = 0.01
    delta: float = 0.001
    beta: float = 0.05
    mu: float = 0.05
    rho: float = 0.01
    zeta: float = 0.05
    eta: float = 0.0
    lambda_a: float = 1.0
    lambda_c: float = 1.0
    inner_iters: int = 20
    outer_iters: int = 50
    gradient_mode: str = "exact_mask"
    tol_outer: float = 1e-5

    def __post_init__(self):
        low = {"n_latents": 1, "inner_iters": 1, "outer_iters": 0}
        check_fields(self, low, strict=("zeta", "lambda_a", "lambda_c"))
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"gradient_mode must be one of {GRADIENT_MODES}, got {self.gradient_mode!r}")

    @classmethod
    def from_dict(cls, cfg):
        """Build from a config mapping (:func:`settings_from_dict`)."""
        return settings_from_dict(cls, cfg, "unknown config key: {}")

    def replace(self, **kw):
        return replace(self, **kw)


@dataclass
class ObjectiveBreakdown:
    """Objective value split by term, hyperparameter weights applied.

    Its fields are the one list of the objective's terms (OBJECTIVE_TERMS,
    the history.csv columns); a fit-only method leaves all but `fit` at 0.
    `total` is no field: it is the sum of the terms in declaration order,
    computed when read, so it always agrees with them.
    """

    fit: float
    sparsity: float = 0.0
    smoothness: float = 0.0
    temporal: float = 0.0
    overlap: float = 0.0
    ridge_c: float = 0.0
    ridge_a: float = 0.0

    @property
    def total(self):
        return sum((getattr(self, name) for name in OBJECTIVE_TERMS[1:]), self.fit)


OBJECTIVE_TERMS = tuple(f.name for f in fields(ObjectiveBreakdown))


def reconstruct(d):
    """Reconstructed (T, N, N) tensor, slice t being sum_r C[t,r] A_r."""
    return np.einsum("tr,rij->tij", d.signatures, d.latents)


def objective(d, fit, cache, h, stats=None):
    """Evaluate the full objective, split by term.

    `fit` is the tensors.FitData of the observed stack, so the fit term sees
    only observed entries. `cache` is the packed Z rows of priors.build_cache,
    or None without signals; missing `stats`, the tensors.CStats of d.latents,
    are built from it, so there is one formula for the fit, :meth:`FitData.value`.
    Every weight is applied even at zero but delta, whose term needs the Z
    rows: a nonzero delta without them raises ValueError naming delta.
    """
    if (fit.n_steps, fit.n_nodes) != (d.n_steps, d.n_nodes):
        raise ValueError(
            f"decomposition ({d.n_steps},{d.n_nodes},{d.n_nodes}) does not match data "
            f"{(fit.n_steps, fit.n_nodes, fit.n_nodes)}"
        )
    if stats is None:
        stats = fit.c_stats(d.latents, cache)
    smoothness = 0.0
    if h.delta != 0.0:
        if stats.traces is None:
            raise ValueError(f"delta = {h.delta} needs the signals' smoothness rows (cache)")
        smoothness = h.delta * (0.5 * float(np.sum(d.signatures * stats.traces)))
    return ObjectiveBreakdown(
        fit=fit.value(d.signatures, d.latents, stats),
        sparsity=h.gamma * float(d.latents.sum()),
        smoothness=smoothness,
        temporal=h.mu * priors.temporal_pi(d.signatures),
        overlap=h.beta * priors.overlap_h(d.latents),
        ridge_c=0.5 * h.rho * float(np.sum(d.signatures**2)),
        ridge_a=0.5 * h.eta * float(np.sum(d.latents**2)),
    )


def project_sc(x):
    """Euclidean projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def in_sa(m, tol=0.0):
    return (
        bool(np.all(np.abs(m - m.T) <= tol))
        and bool(np.all(m >= -tol))
        and bool(np.all(np.abs(np.diag(m)) <= tol))
    )


def degree_margin(d, zeta):
    """Per (t, i) slack of the minimum-degree constraint.

    Entry (t, i) is the reconstructed degree of node i at time t minus zeta;
    the constraint holds iff all entries are nonnegative. The degrees are
    C (A_r 1), O(T N R) with no (T, N, N) reconstruction.
    """
    return d.signatures @ d.latents.sum(axis=2) - zeta


@dataclass
class DegreeSplit:
    """ADMM split margin = P, P >= 0, of the minimum-degree constraint.

    aux P and dual Lam are (T, N), the layout of :func:`degree_margin`; the
    coupling is <Lam, margin - P> + penalty/2 ||margin - P||_F^2.
    """

    aux: np.ndarray
    dual: np.ndarray
    penalty: float

    def weighted_residual(self, margin):
        """Wd = Lam + penalty (margin - P), the coupling's gradient in the margin."""
        return self.dual + self.penalty * (margin - self.aux)

    def coupling(self, margin):
        """Value of the coupling term at a given margin."""
        resid = margin - self.aux
        return float(np.sum(self.dual * resid)) + 0.5 * self.penalty * float(np.sum(resid**2))

    def update(self, margin):
        """Closed-form clipped P update, then dual ascent; returns ||margin - P||_F."""
        self.aux = np.maximum(self.dual / self.penalty + margin, 0.0)
        resid = margin - self.aux
        self.dual = self.dual + self.penalty * resid
        return float(np.linalg.norm(resid))


def normal_or_zeros(rng, shape):
    """N(0, 1) draws from rng, or zeros when rng is None."""
    return np.zeros(shape) if rng is None else rng.standard_normal(shape)


def step_from_bound(lip, label):
    """Gradient step 1 / max(lip, 1e-8) for a curvature bound lip.

    A non-finite bound means the data's scale overflowed float64 before any
    iterate did, so it aborts naming that rather than a step size.
    """
    if not math.isfinite(lip):
        raise NumericalAbort(
            f"{label}: curvature bound overflowed ({lip}); "
            "the data scale is too large for float64"
        )
    return 1.0 / max(lip, 1e-8)


def run_admm(x, ws, grad, project, step, iters, label):
    """K projected-gradient ADMM iterations on one block; returns (x, ws, residuals).

    Each iteration projects a gradient step on the augmented Lagrangian, then
    updates ws.split at the new degree margin ws.margin(x) and records the
    residual ||margin - P||_F. grad(x, margin) takes the margin at x too:
    the one formed for the split update is reused by the next step's
    gradient, so each step forms one margin. An iterate that leaves float64
    aborts naming the block, the inner step and the last finite iterate's
    largest entry, with no numpy warning before it. iters is Hyperparams.inner_iters, >= 1.
    """
    residuals = []
    with np.errstate(over="ignore", invalid="ignore"):
        margin = ws.margin(x)
        for k in range(iters):
            x_new = project(x - step * grad(x, margin))
            if not np.all(np.isfinite(x_new)):
                raise NumericalAbort(
                    f"{label}: iterate went non-finite at inner step {k + 1} of {iters} "
                    f"(step {step:.3e}; last finite iterate max |x| = "
                    f"{float(np.max(np.abs(x))):.3e})"
                )
            x = x_new
            margin = ws.margin(x)
            residuals.append(ws.split.update(margin))
    return x, ws, residuals
