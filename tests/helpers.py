"""Shared oracle helpers for the test suite."""

import itertools
import os

import numpy as np

from dgd.model import Decomposition, Hyperparams, project_sa
from dgd.priors import build_cache, temporal_pi
from dgd.tensors import FitData, SliceEntries, triangle


def set_cpus(monkeypatch, cpus):
    """Make os.sched_getaffinity report the given CPUs: {0} runs sweep cells
    and the generator's per-step filters one after another in the caller,
    {0, 1} through a pool of two workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def central_diff(f, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def rel_grad_error(analytic, numeric):
    return float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1.0))


def is_symmetric(m, tol=0.0):
    return bool(np.all(np.abs(m - m.swapaxes(-1, -2)) <= tol))


def is_hollow(m, tol=0.0):
    d = np.diagonal(m, axis1=-2, axis2=-1)
    return bool(np.all(np.abs(d) <= tol))


def pairwise_z(x):
    """Z_t[i, j] = ||X_t[i] - X_t[j]||^2 of a (T, N, Q) stack, by the loop over pairs."""
    t, n, _ = x.shape
    z = np.zeros((t, n, n))
    for k, i, j in itertools.product(range(t), range(n), range(n)):
        z[k, i, j] = np.sum((x[k, i] - x[k, j]) ** 2)
    return z


def sparse_target(target):
    """(entries, values) of a dense (T, N, N) target, as FitData holds it: the
    SliceEntries of each slice's nonzero entries and their values, by a loop
    over the slices."""
    flat = target.reshape(len(target), -1)
    entries = [np.flatnonzero(y) for y in flat]
    values = [y[e] for y, e in zip(flat, entries)]
    starts = np.cumsum([0] + [e.size for e in entries])
    positions = np.concatenate(entries).astype(np.int32)
    return SliceEntries(positions, starts), np.concatenate(values)


def dense_fit(mask, target):
    """FitData of a dense symmetric 0/1 (T, N, N) mask as the weight, built
    directly; the target is taken as it is, so it may hold what
    FitData.build rejects. Every step counts as observed."""
    t, n = mask.shape[:2]
    weight = mask.reshape(t, n * n)[:, triangle(n)[0]] > 0
    unobserved = np.empty(0, dtype=np.intp)
    return FitData(*sparse_target(target), weight, np.ones(t), unobserved)


def random_instance(seed, mode):
    """Small random problem with every prior weight active.

    Latents and signatures are arbitrary (not projected) so the gradient
    checks exercise generic points, not just feasible ones. The adjacency is
    not symmetric. The returned fit also carries the dense weight
    (fit.dense_weight) and the smoothness slices by the pairwise loop
    (fit.dense_z), which the Lagrangian values below read instead of the
    packed rows the solver holds.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    t = int(rng.integers(2, 5))
    r = int(rng.integers(1, 4))
    d = Decomposition(rng.random((r, n, n)), rng.random((t, r)) + 0.1)
    adj = rng.random((t, n, n))
    mask = (rng.random((t, n, n)) < 0.7).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    signals = rng.standard_normal((t, n, 2))
    cache = build_cache(signals)
    h = Hyperparams(
        n_latents=r,
        gamma=0.3,
        delta=0.7,
        beta=0.4,
        mu=0.6,
        rho=0.2,
        zeta=0.1,
        eta=0.5,
        lambda_a=1.3,
        lambda_c=0.9,
        gradient_mode=mode,
    )
    fit = FitData.build(adj, mask, h)
    if mode == "exact_mask":
        fit.dense_weight = mask
    else:
        fit.dense_weight = np.broadcast_to(mask.sum(axis=(1, 2))[:, None, None], mask.shape)
    fit.dense_z = pairwise_z(signals)
    return rng, d, fit, cache, h


def dense_loss(fit, signatures, latents):
    """1/2 sum_t sum_ij W_t,ij (recon_t,ij - Y_t,ij)^2 on the dense weight of random_instance."""
    recon = np.einsum("tr,rij->tij", signatures, latents)
    return 0.5 * float(np.sum(fit.dense_weight * (recon - fit.dense_target()) ** 2))


def a_lagrangian_value(a_r, ws, d, fit, cache, h):
    """Value of the augmented Lagrangian that admm_a.grad_a_lagrangian differentiates.

    Formed from the plain formulas on the dense weight and smoothness slices
    of random_instance, as the reference the gradient is checked against.
    """
    a_r = np.asarray(a_r, dtype=np.float64)
    r = ws.r
    c_r = d.signatures[:, r]
    latents = d.latents.copy()
    latents[r] = a_r
    val = dense_loss(fit, d.signatures, latents)
    if h.delta != 0.0:
        traces = np.tensordot(fit.dense_z, a_r, axes=2)
        val += 0.5 * h.delta * float(c_r @ traces)
    val += h.gamma * float(a_r.sum())
    if h.beta != 0.0:
        others = d.latents.sum(axis=0) - d.latents[r]
        val += 2.0 * h.beta * float(np.sum(a_r * others))
    if h.eta != 0.0:
        val += 0.5 * h.eta * float(np.sum(a_r**2))
    return val + ws.split.coupling(ws.margin(a_r))


def c_lagrangian_value(c, ws, latents, fit, cache, h):
    """Value of the augmented Lagrangian that admm_c.grad_c_lagrangian differentiates.

    Formed from the plain formulas on the dense weight and smoothness slices
    of random_instance, as the reference the gradient is checked against.
    """
    c = np.asarray(c, dtype=np.float64)
    val = dense_loss(fit, c, latents)
    if h.delta != 0.0:
        traces = np.tensordot(fit.dense_z, latents, axes=([1, 2], [1, 2]))
        val += 0.5 * h.delta * float(np.sum(c * traces))
    if h.mu != 0.0:
        val += h.mu * temporal_pi(c)
    if h.rho != 0.0:
        val += 0.5 * h.rho * float(np.sum(c**2))
    return val + ws.split.coupling(ws.margin(c))


def planted_decomposition(seed, n=8, t=10, r=2):
    """Feasible ground-truth factors for exact-recovery style tests."""
    rng = np.random.default_rng(seed)
    latents = np.stack([project_sa(rng.random((n, n))) for _ in range(r)])
    signatures = rng.random((t, r)) + 0.2
    return Decomposition(latents, signatures)


def symmetric_binary_mask(seed, t, n, frac=0.7):
    rng = np.random.default_rng(seed)
    mask = (rng.random((t, n, n)) < frac).astype(np.float64)
    return np.maximum(mask, mask.transpose(0, 2, 1))


def corr_after_match(est, truth):
    """Per-column cosine similarities under the column permutation that
    maximizes the worst match. Both factors are nonnegative here, so cosine
    similarity doubles as a positive-rescaling-invariant correlation."""
    r = truth.shape[1]
    best = None
    for perm in itertools.permutations(range(r)):
        cors = []
        for j, p in enumerate(perm):
            a = est[:, p]
            b = truth[:, j]
            na = float(np.linalg.norm(a))
            nb = float(np.linalg.norm(b))
            cors.append(float(a @ b / (na * nb)) if na > 0 and nb > 0 else 0.0)
        if best is None or min(cors) > min(best):
            best = cors
    return best
