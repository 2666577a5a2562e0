"""Signal-smoothness structures and the standalone prior terms.

The smoothness prior couples node signals to the recovered topology through
the pairwise squared-distance matrices Z_t: an edge (i, j) is cheap when the
signals at i and j are close. Its value is 1/2 sum_t sum_r C[t,r] <Z_t, A_r>.
The C block and the objective read it through the (T, R) table of inner
products <Z_t, A_r>, the A block through Xi_r = 1/2 sum_t C[t,r] Z_t; both
are built by :class:`tensors.FitData` with the fit statistics. The temporal prior
penalizes successive differences of the signature matrix C through the
forward-difference operator D, whose D'D is tridiagonal and is never formed.
Runs without signals (delta = 0) carry no cache at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensors import as_stack, check_finite


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
    """Build the pairwise squared-distance slices from a (T, N, Q) signal stack.

    Z_t = sq_t 1' + 1 sq_t' - 2 X_t X_t', sq_t the squared row norms of X_t,
    is formed in its slice of the output with one N x N scratch, so set-up
    needs no (T, N, N) temporaries beyond Z itself. x is any slice stack
    (:func:`tensors.as_stack`) and is read one slice at a time; each slice
    must be finite, else ValueError names the entry's (t, i, q).
    """
    x = as_stack(x)
    if len(x.shape) != 3:
        raise ValueError(f"signal tensor must be (T, N, Q), got {x.shape}")
    t, n, _ = x.shape
    z = np.empty((t, n, n))
    scratch = np.empty((n, n))
    for k, zk in enumerate(z):
        xk = np.asarray(x[k], dtype=np.float64)
        check_finite(xk, "signal", "t, i, q", at=(k,))
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


def dtd_product(c):
    """D'D C for the (T-1, T) forward difference D, without forming D.

    D'D is tridiagonal, so D'D C is the negated first difference of d = DC
    padded with a zero row at each end: -d[0], then d[k] - d[k+1], then d[-1].
    Each row is formed as that difference and negated, so the signs of zeros
    match the padded formula; for T < 2 every entry is -0.0.
    """
    c = np.asarray(c, dtype=np.float64)
    out = np.empty_like(c)
    if len(c) < 2:
        out.fill(-0.0)
        return out
    d = c[1:] - c[:-1]
    out[0] = d[0]
    np.subtract(d[1:], d[:-1], out=out[1:-1])
    np.subtract(0.0, d[-1:], out=out[-1:])
    return np.negative(out, out=out)


def dtd_norm(n_steps):
    """||D'D||_2 = 4 sin^2(pi (T-1) / (2T)), the top eigenvalue of the path Laplacian."""
    return 4.0 * math.sin(math.pi * (n_steps - 1) / (2 * n_steps)) ** 2
