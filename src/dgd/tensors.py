"""Dense containers for dynamic-network tensors and the weighted fit data.

Conventions used throughout the package:

* a dynamic adjacency (or mask) tensor is a float64 array of shape (T, N, N),
  slice ``adj[t]`` being the N x N adjacency at time t
* a signal tensor is float64 of shape (T, N, Q), ``x[t]`` holding Q features
  per node at time t
* a stack of latent adjacency matrices is float64 of shape (R, N, N)

The fit is one weighted least-squares loss on that layout,
1/2 sum_t sum_ij W_t,ij (recon_t,ij - Y_t,ij)^2, whose weight W and target Y
are held by :class:`FitData`. Everything is dense; the target problems have N
up to a couple hundred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FitData:
    """Weight and target of the weighted least-squares fit.

    weight    : (T, N, N), W_t,ij >= 0, zero wherever the entry is unobserved
    target    : (T, N, N), Y = M o A, the adjacency with unobserved entries zeroed
    slice_max : (T,), w_t = max_ij W_t,ij, which bounds the fit curvature of slice t
    """

    weight: np.ndarray
    target: np.ndarray
    slice_max: np.ndarray = field(init=False)

    def __post_init__(self):
        self.slice_max = self.weight.max(axis=(1, 2))

    @classmethod
    def build(cls, adj, mask, h):
        """Fit data for the gradient mode of Hyperparams h.

        `exact_mask` weighs each entry by the mask; `count_weighted` weighs
        every entry of slice t by the observation count 1'm_t. Adjacency
        values where the mask is 0 are never read, so they may be NaN.
        """
        target = masked_target(adj, mask)
        mask = np.asarray(mask, dtype=np.float64)
        if h.gradient_mode == "exact_mask":
            weight = mask
        elif h.gradient_mode == "count_weighted":
            counts = mask.sum(axis=(1, 2))
            weight = np.broadcast_to(counts[:, None, None], mask.shape)
        else:
            raise ValueError(f"unknown gradient_mode {h.gradient_mode!r}")
        return cls(weight=weight, target=target)

    def loss(self, signatures, latents):
        """The fit value 1/2 sum W (recon - Y)^2 of recon_t = sum_r C[t,r] A_r.

        The reconstruction is the one (T, N, N) buffer this allocates; the
        residual, its square and the weighting are formed in place.
        """
        buf = np.einsum("tr,rij->tij", signatures, latents)
        buf -= self.target
        np.square(buf, out=buf)
        buf *= self.weight
        return 0.5 * float(np.sum(buf))


def masked_target(adj, mask):
    """Y = M o A, with entries where the mask is 0 set to 0 unread (NaN there is harmless).

    This is the input boundary every method shares: a mask that is not binary
    and symmetric (:func:`check_mask`) or a non-finite observed entry raises
    ValueError, the latter naming its (t, i, j).
    """
    adj = np.asarray(adj, dtype=np.float64)
    mask = np.asarray(mask)
    if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
        raise ValueError(f"adjacency tensor must be (T, N, N), got {adj.shape}")
    if adj.shape != mask.shape:
        raise ValueError(f"adjacency {adj.shape} and mask {mask.shape} differ in shape")
    check_mask(mask)
    target = np.where(mask > 0, adj, 0.0)
    check_finite(target, "observed adjacency", "t, i, j")
    return target


def check_finite(x, name, labels):
    """Raise ValueError naming the first non-finite entry of x by its index."""
    finite = np.isfinite(x)
    if not finite.all():
        idx = tuple(int(k) for k in np.unravel_index(np.argmin(finite), x.shape))
        raise ValueError(f"{name} entry ({labels}) = {idx} is not finite: {x[idx]}")


def weighted_grams(weight, latents):
    """Per-slice Grams G[t, r, s] = sum_ij W_t,ij A_r,ij A_s,ij, shape (T, R, R)."""
    pairs = latents[:, None] * latents[None, :]
    return np.tensordot(weight, pairs, axes=([1, 2], [2, 3]))


def is_symmetric(m, tol=0.0):
    return bool(np.all(np.abs(m - m.swapaxes(-1, -2)) <= tol))


def is_hollow(m, tol=0.0):
    d = np.diagonal(m, axis1=-2, axis2=-1)
    return bool(np.all(np.abs(d) <= tol))


def check_mask(mask):
    """Validate mask invariants slice by slice: binary entries, symmetric slices."""
    mask = np.asarray(mask)
    for t, m in enumerate(mask.reshape((-1,) + mask.shape[-2:])):
        if not ((m == 0.0) | (m == 1.0)).all():
            raise ValueError(f"mask entries must be 0 or 1 (slice {t})")
        # exact comparison: the entries are already known to be 0 or 1
        if not (m == m.T).all():
            raise ValueError(f"mask slices must be symmetric (slice {t})")
    return True
