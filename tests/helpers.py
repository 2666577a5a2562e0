"""Shared oracle helpers for the test suite."""

import itertools
import os

import numpy as np

from dgd.model import Decomposition, Hyperparams, project_sa
from dgd.priors import build_cache
from dgd.tensors import FitData


def set_cpus(monkeypatch, cpus):
    """Make os.sched_getaffinity report the given CPUs: {0} runs sweep cells
    one after another in the caller, {0, 1} through a pool of two workers."""
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


def random_instance(seed, mode):
    """Small random problem with every prior weight active.

    Latents and signatures are arbitrary (not projected) so the gradient
    checks exercise generic points, not just feasible ones.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    t = int(rng.integers(2, 5))
    r = int(rng.integers(1, 4))
    d = Decomposition(rng.random((r, n, n)), rng.random((t, r)) + 0.1)
    adj = rng.random((t, n, n))
    mask = (rng.random((t, n, n)) < 0.7).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    cache = build_cache(rng.standard_normal((t, n, 2)))
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
    return rng, d, FitData.build(adj, mask, h), cache, h


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
