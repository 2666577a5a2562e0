"""Dense containers for dynamic-network tensors and the weighted fit data.

Conventions used throughout the package:

* a dynamic adjacency (or mask) tensor is a float64 array of shape (T, N, N),
  slice ``adj[t]`` being the N x N adjacency at time t
* a signal tensor is float64 of shape (T, N, Q), ``x[t]`` holding Q features
  per node at time t
* a stack of latent adjacency matrices is float64 of shape (R, N, N)
* a stack of symmetric slices may be held packed, as (K, M) rows of their
  strict upper triangles, M = N(N-1)/2, entry (i, j), i < j, at the position
  :func:`triangle` gives it

The fit is one weighted least-squares loss on that layout,
1/2 sum_t sum_ij W_t,ij (recon_t,ij - Y_t,ij)^2, whose weight W and target Y
are held by :class:`FitData`. With one block fixed, the other block's fit
reduces to a few small statistics of the data (:class:`AStats`,
:class:`CStats`), built once per outer iteration by matrix products on the
(T, N^2) view of Y and the packed rows of W and of the smoothness slices Z.
W and Z are symmetric, so their packed rows hold every entry off the
diagonal; the latents need not be, so the statistics stay exact for any.
Everything is dense; the target problems have N up to a couple hundred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# relative size below which the Gram-form fit is recomputed from the residual
CANCELLATION = 1e-6


def _flat(stack):
    """(K, N, N) -> (K, N^2), a view when the stack is contiguous."""
    return stack.reshape(len(stack), -1)


def triangle(n):
    """(upper, lower): flat indices i N + j and j N + i of the pairs i < j, row by row.

    Row k of a packed stack holds slice k at `upper`; for a symmetric slice
    that is its entries at `lower` too. Each holder of packed rows builds
    these once.
    """
    rows, cols = np.triu_indices(n, 1)
    lower = cols * n
    lower += rows
    rows *= n
    rows += cols
    return rows, lower


def pack(m, at, out):
    """Write the entries of the N x N slice m at the flat indices `at` into out.

    The indices are in range by construction, so take runs in "clip" mode,
    which fills out directly instead of through a buffer.
    """
    return np.take(m, at, out=out, mode="clip")


@dataclass
class AStats:
    """Fit and smoothness statistics of the A block for fixed signatures C.

    omega : (P, N, N), Omega_rk = sum_t C[t,r] C[t,k] W_t for the P = R(R+1)/2
            pairs r <= k
    pair  : (R, R) int, the row of omega holding pair (r, k) or (k, r)
    v     : (R, N, N), V_r = sum_t C[t,r] (W o Y)_t = sum_t C[t,r] scale_t Y_t
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
    b      : (T, R), b_t,r = sum_ij (W o Y)_t A_r = scale_t sum_ij Y_t A_r
    traces : (T, R), <Z_t, A_r>, or None without signals
    """

    grams: np.ndarray
    b: np.ndarray
    traces: np.ndarray | None


@dataclass
class FitData:
    """Weight and target of the weighted least-squares fit.

    target      : (T, N, N), Y = M o A, the adjacency with unobserved entries zeroed
    upper       : (T, M), W_t,ij for i < j, packed (:func:`triangle`) from the
                  symmetric weight
    diag        : (T, N), W_t,ii
    scale       : (T,), the factor with W_t o Y_t = scale_t Y_t
    unobserved  : the steps whose mask observes no pair i != j, as an int array
    slice_max   : (T,), w_t = max_ij W_t,ij, which bounds the fit curvature of slice t
    target_norm : 1/2 sum W o Y^2, the fit of a zero reconstruction

    This is the one place that contracts W, Y and the smoothness slices Z
    against the factors: :meth:`a_stats` and :meth:`c_stats` build, with one
    matrix product on the (T, N^2) view of Y or the packed rows of W and Z
    each, everything either block and the objective read of them. The
    gradient mode only picks the weight :meth:`build` packs.
    """

    target: np.ndarray
    upper: np.ndarray
    diag: np.ndarray
    scale: np.ndarray
    unobserved: np.ndarray
    slice_max: np.ndarray = field(init=False)
    target_norm: float = field(init=False)
    # the packed rows' flat indices (:func:`triangle`), and for each flat
    # index of a slice its position in a packed row followed by the diagonal;
    # built once per fit
    _at: np.ndarray = field(init=False, repr=False)
    _mirror: np.ndarray = field(init=False, repr=False)
    _source: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_nodes
        self._at, self._mirror = triangle(n)
        m = self._at.size
        self._source = np.empty(n * n, dtype=np.intp)
        self._source[self._at] = self._source[self._mirror] = np.arange(m)
        self._source[:: n + 1] = np.arange(m, m + n)
        flat = _flat(self.target)
        # data too large for float64 overflows here silently; the step bounds
        # abort on it with a message of their own
        with np.errstate(over="ignore", invalid="ignore"):
            # W >= 0, and a slice without pairs (N = 1) has none to take
            upper_max = self.upper.max(axis=1, initial=0.0)
            self.slice_max = np.maximum(upper_max, self.diag.max(axis=1))
            norms = np.einsum("ti,ti->t", flat, flat)
            self.target_norm = 0.5 * float(self.scale @ norms)

    @classmethod
    def build(cls, adj, mask, h):
        """Fit data for the gradient mode of Hyperparams h.

        adj and mask are any slice stacks (:func:`as_stack`), read together
        one slice at a time: each mask slice is checked (:func:`check_mask`),
        its observed entries of adj copied into Y, and it is packed into W.
        Adjacency values where the mask is 0 are never read, so they may be
        NaN. `exact_mask` keeps W the 0/1 mask; Y is zero off it, so scale is
        1. `count_weighted` then fills slice t of W, and scale_t, with the
        observation count k_t = 1'm_t. The diagonal never counts as an
        observed pair: it carries no edge, and a sampled mask always observes
        it (datagen.sample_mask).
        """
        if h.gradient_mode not in ("exact_mask", "count_weighted"):
            raise ValueError(f"unknown gradient_mode {h.gradient_mode!r}")
        adj, mask = _stacks(adj, mask)
        n_steps, n = mask.shape[:2]
        at = triangle(n)[0]
        target = np.zeros(mask.shape)
        upper = np.empty((n_steps, n * (n - 1) // 2))
        diag = np.empty((n_steps, n))
        for t, y in enumerate(target):
            m = _observe(adj, mask, t, y)
            diag[t] = np.diagonal(m)
            pack(m, at, upper[t])
        unobserved = np.flatnonzero(~upper.any(axis=1))
        scale = np.ones(n_steps)
        if h.gradient_mode == "count_weighted":
            # sums of 0/1 entries, so k_t is exact
            scale = 2.0 * upper.sum(axis=1) + diag.sum(axis=1)
            upper[:] = diag[:] = scale[:, None]
        return cls(target, upper, diag, scale, unobserved)

    @property
    def n_nodes(self):
        return self.target.shape[1]

    def unpack(self, upper, diag=None):
        """The (K, N, N) symmetric stack of (K, M) packed rows, with diagonals diag or 0.

        One gather from the rows with their diagonals appended, which runs
        several times faster than scattering each row to both triangles.
        """
        n, m = self.n_nodes, self._at.size
        rows = np.empty((len(upper), m + n))
        rows[:, :m] = upper
        rows[:, m:] = 0.0 if diag is None else diag
        return np.take(rows, self._source, axis=1).reshape(-1, n, n)

    def a_stats(self, signatures, cache=None):
        """:class:`AStats` of the (T, R) signatures; Xi needs the smoothness cache.

        Omega and Xi are contracted on the packed rows of W and Z and unpacked
        once, to the symmetric planes the A solves read. Built under the same
        errstate as the step bounds, so data too large for float64 raises no
        numpy warning before the abort that names it.
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
            omega = self.unpack(prods.T @ self.upper, prods.T @ self.diag)
            v = ((c * self.scale[:, None]).T @ _flat(self.target)).reshape(-1, n, n)
            xi = None
            if cache is not None:
                half = c.T @ cache.z_upper
                half *= 0.5
                xi = self.unpack(half)
        return AStats(omega=omega, pair=pair, v=v, xi=xi)

    def c_stats(self, latents, cache=None):
        """:class:`CStats` of the (R, N, N) latents; the traces need the smoothness cache.

        For symmetric W and Z and any latents, with P = A_r o A_k,
        G_t,rk = sum_{i<j} W_t,ij (P_ij + P_ji) + sum_i W_t,ii P_ii and
        <Z_t, A_r> = sum_{i<j} Z_t,ij (A_r,ij + A_r,ji), Z_t having a zero
        diagonal. The Grams take one product per latent r against
        the pairs r <= k, so no (R, R, M) temporary is formed. Built under
        the same errstate as :meth:`a_stats`.
        """
        lat = _flat(np.asarray(latents, dtype=np.float64))
        n_lat = len(lat)
        up, low = lat[:, self._at], lat[:, self._mirror]
        with np.errstate(over="ignore", invalid="ignore"):
            grams = np.empty((self.target.shape[0], n_lat, n_lat))
            dg = lat[:, :: self.n_nodes + 1]
            for r in range(n_lat):
                sym = up[r:] * up[r]
                sym += low[r:] * low[r]
                g = self.upper @ sym.T
                g += self.diag @ (dg[r:] * dg[r]).T
                grams[:, r, r:] = g
                grams[:, r:, r] = g
            b = _flat(self.target) @ lat.T
            b *= self.scale[:, None]
            traces = None
            if cache is not None:
                up += low
                traces = cache.z_upper @ up.T
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

        The plain formula, kept as the reference for :meth:`gram_loss`. It
        runs one slice at a time, so it holds no (T, N, N) buffer: the dense
        residual of slice t is squared in place, and its squares at (i, j)
        and (j, i) are weighted together by the packed W_t,ij.
        """
        c = np.asarray(signatures, dtype=np.float64)
        lat = _flat(np.asarray(latents, dtype=np.float64))
        n = self.n_nodes
        total = 0.0
        for t, y in enumerate(_flat(self.target)):
            sq = c[t] @ lat
            sq -= y
            np.square(sq, out=sq)
            pairs = sq[self._at]
            pairs += sq[self._mirror]
            total += float(self.upper[t] @ pairs) + float(self.diag[t] @ sq[:: n + 1])
        return 0.5 * total


def _stacks(adj, mask):
    """adj and mask as slice stacks (:func:`as_stack`) of one (T, N, N) shape."""
    adj, mask = as_stack(adj), as_stack(mask)
    if len(adj.shape) != 3 or adj.shape[1] != adj.shape[2]:
        raise ValueError(f"adjacency tensor must be (T, N, N), got {adj.shape}")
    if tuple(adj.shape) != tuple(mask.shape):
        raise ValueError(f"adjacency {adj.shape} and mask {mask.shape} differ in shape")
    return adj, mask


def _observe(adj, mask, t, y):
    """Check mask slice t, copy the observed entries of adj[t] into y; returns the slice."""
    m = np.asarray(mask[t], dtype=np.float64)
    _check_mask_slice(m, t)
    np.copyto(y, adj[t], where=m > 0)
    check_finite(y, "observed adjacency", "t, i, j", at=(t,))
    return m


def as_stack(x):
    """x itself when it has a .shape and integer indexing, else x as a float64 array.

    Arrays and io_dgt.DgtSlices readers pass through, so a slice loop over
    the result reads a file one slice at a time.
    """
    return x if hasattr(x, "shape") else np.asarray(x, dtype=np.float64)


def check_finite(x, name, labels, at=()):
    """Raise ValueError naming the first non-finite entry of x by its index.

    at is the index of x within a larger array, prepended to the one named.
    """
    finite = np.isfinite(x)
    if not finite.all():
        idx = tuple(int(k) for k in np.unravel_index(np.argmin(finite), x.shape))
        raise ValueError(f"{name} entry ({labels}) = {at + idx} is not finite: {x[idx]}")


def check_mask(mask):
    """Validate mask invariants slice by slice: binary entries, symmetric slices."""
    mask = np.asarray(mask)
    for t, m in enumerate(mask.reshape((-1,) + mask.shape[-2:])):
        _check_mask_slice(m, t)
    return True


def _check_mask_slice(m, t):
    if not ((m == 0.0) | (m == 1.0)).all():
        raise ValueError(f"mask entries must be 0 or 1 (slice {t})")
    # exact comparison: the entries are already known to be 0 or 1
    if not (m == m.T).all():
        raise ValueError(f"mask slices must be symmetric (slice {t})")
