"""Signal-smoothness structures and the standalone prior terms.

The smoothness prior couples node signals to the recovered topology through
the pairwise squared-distance matrices Z_t: an edge (i, j) is cheap when the
signals at i and j are close. Its value is 1/2 sum_t sum_r C[t,r] <Z_t, A_r>.
The C block and the objective read it through the (T, R) table of inner
products <Z_t, A_r>, the A block through Xi_r = 1/2 sum_t C[t,r] Z_t; both
are built by :class:`tensors.FitData` with the fit statistics, from the
symmetric Z_t packed as float64 rows in the layout of the fit weight's
pattern rows, diagonal (zero) included, so the same products and unpack
serve both. The temporal prior
penalizes successive differences of the signature matrix C through the
forward-difference operator D, whose D'D is tridiagonal and is never formed.
Runs without signals (delta = 0) carry no cache at all.
"""

from __future__ import annotations

import math

import numpy as np

from .tensors import as_stack, check_finite, project_sa, triangle


def build_cache(x):
    """The packed pairwise squared-distance slices of a (T, N, Q) signal stack.

    Returns (T, M + N) rows, M = N(N-1)/2, row t the :func:`distance_row`
    of X_t, so set-up needs no (T, N, N) array at all. x is any slice stack
    (:func:`tensors.as_stack`) and is read one slice at a time, with the
    checks of :func:`distance_row`.
    """
    x = as_stack(x)
    if len(x.shape) != 3:
        raise ValueError(f"signal tensor must be (T, N, Q), got {x.shape}")
    at = triangle(x.shape[1])[0]
    z = np.empty((x.shape[0], at.size))
    for t in range(len(z)):
        xt = np.asarray(x[t], dtype=np.float64)
        z[t] = distance_row(t, xt, at)
    return z


def distance_row(t, xt, at):
    """Z_t of the (N, Q) float64 signals xt of step t, packed at `at`.

    at is :func:`tensors.triangle`'s first index array for N, so the row has
    M + N entries, where Z_t[i, j] = ||X_t[i, :] - X_t[j, :]||_2^2 off the
    diagonal and Z_t[i, i] = 0. Z_t = project_sa(sq 1' + 1 sq' - 2 X_t X_t'),
    sq the squared row norms of X_t, is formed as one N x N slice. xt must be
    finite, else ValueError names the entry's (t, i, q), and so must Z_t,
    else ValueError names the step t whose signals are too large for
    float64, with no numpy warning before it. :func:`build_cache` and a sweep
    cell's generator (:func:`datagen.swdyn`) both form their rows here.
    """
    check_finite(xt, "signal", "t, i, q", at=(t,))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("nq,nq->n", xt, xt)
        # project_sa keeps the exact invariants: symmetric, nonnegative, zero diagonal
        row = project_sa(sq[:, None] + sq[None, :] - 2.0 * (xt @ xt.T)).take(at)
    if not np.isfinite(row).all():
        raise ValueError(
            f"signal step {t}: squared distances overflow float64 "
            f"(max |x| = {float(np.max(np.abs(xt))):.3e})"
        )
    return row


def overlap_h(latents):
    """Sum of tr(A_r' A_rbar) over ordered pairs r != rbar."""
    latents = np.asarray(latents, dtype=np.float64)
    gram = np.einsum("rij,sij->rs", latents, latents)
    return float(gram.sum() - np.trace(gram))


def temporal_pi(c):
    """||D C||_F^2, the squared temporal variation of the signatures; 0.0 for
    T < 2, which has no differences to sum."""
    return float(np.sum(np.diff(np.asarray(c, dtype=np.float64), axis=0) ** 2))


def dtd_product(c):
    """D'D C for the (T-1, T) forward difference D, without forming D:
    -diff(DC) with DC padded by a zero row at each end. For T < 2 every
    entry is -0.0.
    """
    c = np.asarray(c, dtype=np.float64)
    return -np.diff(np.diff(c, axis=0), axis=0, prepend=0.0, append=0.0)


def dtd_norm(n_steps):
    """||D'D||_2 = 4 sin^2(pi (T-1) / (2T)), the top eigenvalue of the path Laplacian."""
    return 4.0 * math.sin(math.pi * (n_steps - 1) / (2 * n_steps)) ** 2
