"""Signal-smoothness structures and the standalone prior terms.

The smoothness prior couples node signals to the recovered topology through
the pairwise squared-distance matrices Z_t: an edge (i, j) is cheap when the
signals at i and j are close. Its value is 1/2 sum_t sum_r C[t,r] <Z_t, A_r>,
so both subproblems differentiate the one (T, R) table of inner products
<Z_t, A_r>. The temporal prior penalizes successive differences of the
signature matrix C. Runs without signals (delta = 0) carry no cache at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SmoothCache:
    """Precomputed smoothness structures for one signal tensor.

    z_slices : (T, N, N), Z_t[i, j] = ||X_t[i, :] - X_t[j, :]||_2^2
    """

    z_slices: np.ndarray

    @property
    def n_steps(self):
        return self.z_slices.shape[0]

    @property
    def n_nodes(self):
        return self.z_slices.shape[1]


def build_cache(x):
    """Build the pairwise squared-distance slices from a (T, N, Q) signal tensor.

    Z_t = sq_t 1' + 1 sq_t' - 2 X_t X_t', sq_t the squared row norms of X_t,
    is formed in its slice of the output with one N x N scratch, so set-up
    needs no (T, N, N) temporaries beyond Z itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"signal tensor must be (T, N, Q), got {x.shape}")
    t, n, _ = x.shape
    z = np.empty((t, n, n))
    scratch = np.empty((n, n))
    for k in range(t):
        xk, zk = x[k], z[k]
        sq = np.einsum("nq,nq->n", xk, xk)
        np.matmul(xk, xk.T, out=zk)
        zk *= 2.0
        np.add(sq[:, None], sq[None, :], out=scratch)
        np.subtract(scratch, zk, out=zk)
        # exact invariants: symmetric, nonnegative, zero diagonal
        np.add(zk, zk.T, out=scratch)
        scratch *= 0.5
        np.maximum(scratch, 0.0, out=zk)
        np.fill_diagonal(zk, 0.0)
    return SmoothCache(z_slices=z)


def diff_operator(n_steps):
    """Forward-difference matrix D of shape (T-1, T): (DC)[t] = C[t+1] - C[t]."""
    d = np.zeros((n_steps - 1, n_steps))
    idx = np.arange(n_steps - 1)
    d[idx, idx] = -1.0
    d[idx, idx + 1] = 1.0
    return d


def xi_matrix(cache, c_r):
    """Xi_r = 1/2 sum_t c_r[t] Z_t, the smoothness weight matrix for one latent."""
    c_r = np.asarray(c_r, dtype=np.float64)
    if c_r.shape != (cache.n_steps,):
        raise ValueError(f"c_r must have length {cache.n_steps}, got {c_r.shape}")
    return 0.5 * np.tensordot(c_r, cache.z_slices, axes=1)


def smoothness_traces(latents, cache):
    """(T, R) table of tr(A_r Z_t) = <Z_t, A_r> (Z_t is symmetric)."""
    return np.einsum("rij,tij->tr", latents, cache.z_slices)


def smoothness_g(d, cache):
    """Unweighted smoothness value sum_t sum_r C[t,r] tr(A_r Z_t)/2."""
    return 0.5 * float(np.sum(d.signatures * smoothness_traces(d.latents, cache)))


def overlap_h(latents):
    """Sum of tr(A_r' A_rbar) over ordered pairs r != rbar."""
    latents = np.asarray(latents, dtype=np.float64)
    gram = np.einsum("rij,sij->rs", latents, latents)
    return float(gram.sum() - np.trace(gram))


def temporal_pi(c):
    """||D C||_F^2, the squared temporal variation of the signatures.

    Returns 0 for T < 2 (no differences to take).
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape[0] < 2:
        return 0.0
    return float(np.sum(np.diff(c, axis=0) ** 2))
