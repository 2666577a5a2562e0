"""Dense containers for dynamic-network tensors and the weighted fit data.

Conventions used throughout the package:

* a dynamic adjacency (or mask) tensor is a float64 array of shape (T, N, N),
  slice ``adj[t]`` being the N x N adjacency at time t
* a signal tensor is float64 of shape (T, N, Q), ``x[t]`` holding Q features
  per node at time t
* a stack of latent adjacency matrices is float64 of shape (R, N, N)

The fit is one weighted least-squares loss on that layout,
1/2 sum_t sum_ij W_t,ij (recon_t,ij - Y_t,ij)^2, whose weight W and target Y
are held by :class:`FitData`. With one block fixed, the other block's fit
reduces to a few small statistics of the data (:class:`AStats`,
:class:`CStats`), built once per outer iteration by matrix products on the
(T, N^2) views of W, Y and the smoothness slices Z. Everything is dense; the
target problems have N up to a couple hundred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# relative size below which the Gram-form fit is recomputed from the residual
CANCELLATION = 1e-6


def _flat(stack):
    """(K, N, N) -> (K, N^2), a view when the stack is contiguous."""
    return stack.reshape(len(stack), -1)


@dataclass
class AStats:
    """Fit and smoothness statistics of the A block for fixed signatures C.

    omega : (P, N, N), Omega_rk = sum_t C[t,r] C[t,k] W_t for the P = R(R+1)/2
            pairs r <= k; (P, 1, 1) when W_t is constant on each slice
    pair  : (R, R) int, the row of omega holding pair (r, k) or (k, r)
    v     : (R, N, N), V_r = sum_t C[t,r] (W o Y)_t
    xi    : (R, N, N), Xi_r = 1/2 sum_t C[t,r] Z_t, or None without signals
    """

    omega: np.ndarray
    pair: np.ndarray
    v: np.ndarray
    xi: np.ndarray | None

    def fit_terms(self, r, latents):
        """(Omega_rr, sum_{k != r} Omega_rk o A_k - V_r).

        With the other latents fixed, the fit gradient in A_r is
        A_r o Omega_rr plus the second entry.
        """
        linear = -self.v[r]
        for k in range(len(latents)):
            if k != r:
                linear += self.omega[self.pair[r, k]] * latents[k]
        return self.omega[self.pair[r, r]], linear


@dataclass
class CStats:
    """Fit and smoothness statistics of the C block for fixed latents.

    grams  : (T, R, R), G_t,rk = sum_ij W_t A_r A_k
    b      : (T, R), b_t,r = sum_ij (W o Y)_t A_r
    traces : (T, R), <Z_t, A_r>, or None without signals
    """

    grams: np.ndarray
    b: np.ndarray
    traces: np.ndarray | None


@dataclass
class FitData:
    """Weight and target of the weighted least-squares fit.

    weight      : (T, N, N), W_t,ij >= 0, zero wherever the entry is unobserved
    target      : (T, N, N), Y = M o A, the adjacency with unobserved entries zeroed
    counts      : (T,) when every entry of slice t has weight counts[t]
                  (`count_weighted`); None when W is the 0/1 mask and Y is
                  zero off it (`exact_mask`), so that W o Y = Y
    slice_max   : (T,), w_t = max_ij W_t,ij, which bounds the fit curvature of slice t
    target_norm : 1/2 sum W o Y^2, the fit of a zero reconstruction

    This is the one place that contracts W, Y and the smoothness slices Z
    against the factors: :meth:`a_stats` and :meth:`c_stats` build, with one
    matrix product on the (T, N^2) views each, everything either block and
    the objective read of them. The gradient mode is decided here alone.
    """

    weight: np.ndarray
    target: np.ndarray
    counts: np.ndarray | None = None
    slice_max: np.ndarray = field(init=False)
    target_norm: float = field(init=False)

    def __post_init__(self):
        flat = _flat(self.target)
        # data too large for float64 overflows here silently; the step bounds
        # abort on it with a message of their own
        with np.errstate(over="ignore", invalid="ignore"):
            if self.counts is None:
                self.slice_max = self.weight.max(axis=(1, 2))
                self.target_norm = 0.5 * float(np.vdot(flat, flat))
            else:
                self.slice_max = self.counts
                norms = np.einsum("ti,ti->t", flat, flat)
                self.target_norm = 0.5 * float(self.counts @ norms)

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
            return cls(weight=mask, target=target)
        if h.gradient_mode == "count_weighted":
            counts = mask.sum(axis=(1, 2))
            weight = np.broadcast_to(counts[:, None, None], mask.shape)
            return cls(weight=weight, target=target, counts=counts)
        raise ValueError(f"unknown gradient_mode {h.gradient_mode!r}")

    def _weighted(self, coef):
        """coef (T, K) with row t scaled by the slice weight when W_t is constant."""
        return coef if self.counts is None else coef * self.counts[:, None]

    def a_stats(self, signatures, cache=None):
        """:class:`AStats` of the (T, R) signatures; Xi needs the smoothness cache.

        Built under the same errstate as the step bounds, so data too large
        for float64 raises no numpy warning before the abort that names it.
        """
        c = np.asarray(signatures, dtype=np.float64)
        n_steps, n = self.target.shape[:2]
        if c.ndim != 2 or c.shape[0] != n_steps:
            raise ValueError(f"signatures must be ({n_steps}, R), got {c.shape}")
        rows, cols = np.triu_indices(c.shape[1])
        pair = np.empty((c.shape[1],) * 2, dtype=np.intp)
        pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
        with np.errstate(over="ignore", invalid="ignore"):
            prods = c[:, rows] * c[:, cols]
            if self.counts is None:
                omega = (prods.T @ _flat(self.weight)).reshape(-1, n, n)
            else:
                omega = (self.counts @ prods).reshape(-1, 1, 1)
            v = (self._weighted(c).T @ _flat(self.target)).reshape(-1, n, n)
            xi = None
            if cache is not None:
                xi = (c.T @ _flat(cache.z_slices)).reshape(-1, n, n)
                xi *= 0.5
        return AStats(omega=omega, pair=pair, v=v, xi=xi)

    def c_stats(self, latents, cache=None):
        """:class:`CStats` of the (R, N, N) latents; the traces need the smoothness cache.

        The exact-mask Grams take one product per latent r against the pairs
        r <= k, so no (R, R, N, N) or (P, N^2) temporary is formed. Built
        under the same errstate as :meth:`a_stats`.
        """
        lat = _flat(np.asarray(latents, dtype=np.float64))
        n_lat = len(lat)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.counts is None:
                grams = np.empty((self.target.shape[0], n_lat, n_lat))
                w = _flat(self.weight)
                for r in range(n_lat):
                    g = w @ (lat[r:] * lat[r]).T
                    grams[:, r, r:] = g
                    grams[:, r:, r] = g
            else:
                grams = self.counts[:, None, None] * (lat @ lat.T)
            b = self._weighted(_flat(self.target) @ lat.T)
            traces = None if cache is None else _flat(cache.z_slices) @ lat.T
        return CStats(grams=grams, b=b, traces=traces)

    def gram_loss(self, signatures, stats):
        """The fit of :meth:`loss` from the C-block statistics, in O(T R^2).

        1/2 sum W (recon - Y)^2 = target_norm + 1/2 sum_t c_t' G_t c_t - sum C o b,
        with G and b the :class:`CStats` of the latents that recon uses.
        Returns (value, scale): scale = target_norm + 1/2 |quad| + |sum C o b|
        bounds the terms that cancel, so the rounding error is a multiple of
        eps * scale.
        """
        c = np.asarray(signatures, dtype=np.float64)
        quad = 0.5 * float(np.einsum("tr,trs,ts->", c, stats.grams, c))
        lin = float(np.sum(c * stats.b))
        return self.target_norm + quad - lin, self.target_norm + abs(quad) + abs(lin)

    def value(self, signatures, latents, stats):
        """The fit value: :meth:`gram_loss`, unless cancellation has eaten its digits.

        A fit below CANCELLATION * scale (a near-perfect fit) keeps fewer than
        about ten correct digits in the Gram form, so it is taken from the
        plain sum of :meth:`loss` instead.
        """
        value, scale = self.gram_loss(signatures, stats)
        if value < CANCELLATION * scale:
            return self.loss(signatures, latents)
        return value

    def loss(self, signatures, latents):
        """The fit value 1/2 sum W (recon - Y)^2 of recon_t = sum_r C[t,r] A_r.

        The plain formula, kept as the reference for :meth:`gram_loss`. The
        reconstruction is the one (T, N, N) buffer this allocates; the
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
