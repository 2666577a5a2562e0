"""Containers for dynamic-network tensors and the weighted fit data.

Conventions used throughout the package:

* a dynamic adjacency (or mask) tensor is a float64 array of shape (T, N, N),
  slice ``adj[t]`` being the N x N adjacency at time t
* a signal tensor is float64 of shape (T, N, Q), ``x[t]`` holding Q features
  per node at time t
* a stack of latent adjacency matrices is float64 of shape (R, N, N)
* a stack of symmetric slices may be held packed, as (K, M + N) rows: the
  M = N(N-1)/2 strict-upper entries (i, j), i < j, then the N diagonal
  entries, each at the position :func:`triangle` gives it
* a selection of a stack's entries, such as a sparse stack's nonzero
  entries, is held slice by slice as a :class:`SliceEntries`

The fit is one weighted least-squares loss on that layout,
1/2 sum_t sum_ij W_t,ij (recon_t,ij - Y_t,ij)^2, whose weight W and target Y
are held by :class:`FitData`. W_t = scale_t B_t, a per-slice factor times a
0/1 pattern, so W is held as the packed rows of B at one bit per entry.
With one block fixed, the other block's fit reduces to a few small
statistics of the data (:class:`AStats`, :class:`CStats`), built once per
outer iteration by matrix products on the packed rows of B and of the
smoothness slices Z, and by a scatter or a gather over the nonzero entries
of Y. The A-block statistics stay packed rows too: each A_r solve unpacks
only the planes it reads, and forms V_r from Y's entries when it starts.
B and Z are symmetric, so their packed rows hold every entry, and each
statistic is one product against them; the latents need not be symmetric,
so their entries at (i, j) and (j, i) are gathered apart and summed, the
diagonal gathered once. Y need not be symmetric and is held sparse, since it
is zero wherever the mask is 0 or the graph has no edge. The statistics stay
exact for any latents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# relative size below which the Gram-form fit is recomputed from the residual
CANCELLATION = 1e-6
# the statistics visit Y's entries in runs of whole slices, and convert B to
# float64 in blocks of packed columns, both sized by max(N^2, RUN_ENTRIES)
# entries: their temporaries stay O(N^2), and a small fit takes one run
RUN_ENTRIES = 1 << 14
# the fit weights FitData.build can form, by Hyperparams.gradient_mode
GRADIENT_MODES = ("exact_mask", "count_weighted")


def _flat(stack):
    """(K, N, N) -> (K, N^2), a view when the stack is contiguous."""
    return stack.reshape(len(stack), -1)


def triangle(n):
    """(at, mirror): flat indices i N + j and j N + i of the pairs i < j, row
    by row, then i (N + 1) for the diagonal in both.

    Row k of a packed stack holds slice k at `at`; for a symmetric slice that
    is its entries at `mirror` too. Each holder of packed rows builds these
    once.
    """
    # the pairs i < j, then (i, i)
    rows, cols = (np.concatenate((k, np.arange(n))) for k in np.triu_indices(n, 1))
    return rows * n + cols, cols * n + rows


@dataclass
class SliceEntries:
    """Selected entries of a (T, N, N) stack, slice by slice.

    positions : (K,), the flat position i N + j of each entry within its
                slice; int32 when a slice has under 2^31 entries, else int64
    starts    : (T + 1,), slice t holds positions[starts[t]:starts[t + 1]]

    A vector of one value per entry follows the same order.
    """

    positions: np.ndarray
    starts: np.ndarray

    @classmethod
    def build(cls, slices, size):
        """From a sequence of position arrays, one per slice of `size` entries."""
        index = np.int32 if size < 2**31 else np.int64
        # the empty head keeps a stack of no slices concatenable
        positions = np.concatenate([np.empty(0, index), *slices], dtype=index)
        return cls(positions, np.cumsum([0] + [p.size for p in slices]))

    def slices(self):
        """(t, positions of slice t, its span of an entry vector) per slice, in order."""
        for t, (lo, hi) in enumerate(zip(self.starts[:-1], self.starts[1:])):
            yield t, self.positions[lo:hi], slice(lo, hi)

    def runs(self, budget):
        """(t0, t1, span, run) per run of whole slices t0 <= t < t1, in order:
        span is the run's part of an entry vector and run its SliceEntries,
        positions as intp. A run holds under budget entries plus one slice's."""
        # cut before the slice holding each budget-th entry
        held = np.arange(budget, self.positions.size, budget)
        inner = np.searchsorted(self.starts, held, side="right") - 1
        cuts = np.concatenate(([0], inner, [len(self.starts) - 1]))
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            span = slice(self.starts[t0], self.starts[t1])
            offsets = self.starts[t0 : t1 + 1] - span.start
            yield t0, t1, span, SliceEntries(self.positions[span].astype(np.intp), offsets)

    def sums(self, x):
        """(..., T) sums of the (..., K) entry vectors x slice by slice, 0 for an empty slice."""
        full = np.flatnonzero(self.starts[1:] > self.starts[:-1])
        sums = np.zeros(x.shape[:-1] + (len(self.starts) - 1,))
        if full.size:
            # a run of full[i] ends where the next nonempty one starts
            sums[..., full] = np.add.reduceat(x, self.starts[full], axis=-1)
        return sums


@dataclass
class AStats:
    """Fit and smoothness statistics of the A block for fixed signatures C.

    omega : (P, M + N) packed rows (:func:`triangle`), row pair[r, k] holding
            Omega_rk = sum_t C[t,r] C[t,k] W_t for the P = R(R+1)/2 pairs
            r <= k, with W_t = scale_t B_t
    pair  : (R, R) int, the row of omega holding pair (r, k) or (k, r)
    coef  : (T, R), C[t,r] scale_t, the weights of V_r = sum_t C[t,r] (W o Y)_t
            = sum_t coef[t,r] Y_t
    xi    : (R, M + N) packed rows of Xi_r = 1/2 sum_t C[t,r] Z_t, or None
            without signals
    data  : the :class:`FitData` they come from, which unpacks the rows and
            holds Y

    Each plane is unpacked, or V_r formed, when the gradient terms of an A_r
    solve (admm_a.a_gradient_terms) read it (:meth:`omega_plane`,
    :meth:`v_plane`, :meth:`xi_plane`), so no (P, N, N) or (R, N, N) stack is held.
    """

    omega: np.ndarray
    pair: np.ndarray
    coef: np.ndarray
    xi: np.ndarray | None
    data: FitData = field(repr=False)

    def omega_plane(self, r, k):
        """Omega_rk as an (N, N) plane."""
        return self.data.unpack(self.omega[self.pair[r, k]])

    def v_plane(self, r):
        """V_r as an (N, N) plane."""
        return self.data.target_plane(self.coef[:, r])

    def xi_plane(self, r):
        """Xi_r as an (N, N) plane."""
        return self.data.unpack(self.xi[r])


@dataclass
class CStats:
    """Fit and smoothness statistics of the C block for fixed latents.

    grams  : (T, R, R), G_t,rk = sum_ij W_t A_r A_k = scale_t sum_ij B_t A_r A_k
    b      : (T, R), b_t,r = sum_ij (W o Y)_t A_r = scale_t sum_ij Y_t A_r
    traces : (T, R), <Z_t, A_r>, or None without signals
    """

    grams: np.ndarray
    b: np.ndarray
    traces: np.ndarray | None


@dataclass
class FitData:
    """Weight and target of the weighted least-squares fit.

    entries     : the :class:`SliceEntries` of the K nonzero entries of
                  Y = M o A, the adjacency with unobserved entries zeroed
    values      : (K,), Y at those entries, in their order
    weight      : the symmetric 0/1 pattern B_t packed (:func:`triangle`), one
                  bit per entry: given as (T, M + N) bool rows, held as their
                  (T, ceil((M + N) / 8)) np.packbits rows (:meth:`pattern`)
    scale       : (T,), the factor of W_t = scale_t B_t; Y_t is zero off B_t,
                  so W_t o Y_t = scale_t Y_t
    unobserved  : the steps whose mask observes no pair i != j, as an int array
    n_nodes     : N
    slice_max   : (T,), w_t = max_ij W_t,ij, which bounds the fit curvature of slice t
    target_norm : 1/2 sum W o Y^2, the fit of a zero reconstruction

    B costs 1 bit per packed entry. Y costs 12 bytes per nonzero entry
    against 8 per entry of a dense stack, so it is the smaller while under
    2/3 of its entries are nonzero; a dense-valued, fully observed adjacency
    costs up to 1.5 dense stacks.

    This is the one place that contracts W, Y and the smoothness slices Z
    against the factors: :meth:`a_stats` and :meth:`c_stats` build, with one
    matrix product on the packed rows of B or Z, or one scatter or gather
    over Y's entries each, everything either block and the objective read of
    them. The products read B as float64 one block of columns at a time
    (:meth:`_pattern_blocks`), so no float copy of the whole W is formed.
    The A-block statistics are kept as packed rows and the weights of V;
    :meth:`unpack` and :meth:`target_plane` give one plane at a time.
    The gradient mode only picks the pattern and scale :meth:`build` forms.
    """

    entries: SliceEntries
    values: np.ndarray
    weight: np.ndarray
    scale: np.ndarray
    unobserved: np.ndarray
    n_nodes: int = field(init=False)
    slice_max: np.ndarray = field(init=False)
    target_norm: float = field(init=False)
    # the packed rows' flat indices (:func:`triangle`), and for each flat
    # index of a slice its position in a packed row; built once per fit
    _at: np.ndarray = field(init=False, repr=False)
    _mirror: np.ndarray = field(init=False, repr=False)
    _source: np.ndarray = field(init=False, repr=False)
    # the entries in each run of Y's entries and each block of :meth:`_pattern_blocks`
    _budget: int = field(init=False, repr=False)

    def __post_init__(self):
        # a packed row holds N (N + 1) / 2 entries
        self.n_nodes = n = (math.isqrt(8 * self.weight.shape[1] + 1) - 1) // 2
        self.weight = np.packbits(self.weight, axis=1)
        self._at, self._mirror = triangle(n)
        self._source = np.empty(n * n, dtype=np.intp)
        self._source[self._at] = self._source[self._mirror] = np.arange(self._at.size)
        self._budget = max(n * n, RUN_ENTRIES)
        self.slice_max = np.where(self.weight.any(axis=1), self.scale, 0.0)
        # data too large for float64 overflows here silently; the step bounds
        # abort on it with a message of their own
        with np.errstate(over="ignore", invalid="ignore"):
            norms = self.entries.sums(np.square(self.values))
            self.target_norm = 0.5 * float(self.scale @ norms)

    @classmethod
    def build(cls, adj, mask, h):
        """Fit data for the gradient mode of Hyperparams h.

        adj and mask are any slice stacks (:func:`as_stack`), read together
        one slice at a time: each mask slice is checked (:func:`check_mask`)
        and gathered into the packed rows of B, and Y_t = where(mask_t > 0,
        adj_t, 0) keeps its nonzero entries. Adjacency values where the mask
        is 0 never reach Y_t, so they may be NaN; an observed zero, of either
        sign, is not kept.
        `exact_mask` keeps B the mask and scale 1, so W is the 0/1 mask.
        `count_weighted` then sets all of B and takes scale_t the observation
        count k_t = 1'm_t, so W_t weighs every entry by k_t. The
        diagonal never counts as an observed pair: it carries no edge, and a
        sampled mask always observes it (datagen.sample_mask). h is checked
        when built, so its gradient mode is one of GRADIENT_MODES.
        """
        adj, mask = as_stacks(adj, mask)
        n_steps, n = mask.shape[:2]
        at = triangle(n)[0]
        weight = np.empty((n_steps, at.size), dtype=bool)
        entries, values = [], [np.empty(0)]
        for t in range(n_steps):
            m = np.asarray(mask[t], dtype=np.float64)
            _check_mask_slice(m, t)
            seen = m > 0
            weight[t] = seen.take(at)
            y = np.where(seen, np.asarray(adj[t], dtype=np.float64), 0.0)
            check_finite(y, "observed adjacency", "t, i, j", at=(t,))
            # a boolean scan runs several times faster than one of the floats
            nonzero = np.flatnonzero(y != 0.0)
            entries.append(nonzero)
            values.append(y.take(nonzero))
        unobserved = np.flatnonzero(~weight[:, :-n].any(axis=1))
        scale = np.ones(n_steps)
        if h.gradient_mode == "count_weighted":
            # counts of entries, so k_t is exact
            scale = 2.0 * weight[:, :-n].sum(axis=1) + weight[:, -n:].sum(axis=1)
            weight.fill(True)
        entries = SliceEntries.build(entries, n * n)
        return cls(entries, np.concatenate(values), weight, scale, unobserved)

    @property
    def n_steps(self):
        return len(self.weight)

    def dense_target(self):
        """Y as the dense (T, N, N) stack, for the methods that fit it whole."""
        n = self.n_nodes
        y = np.zeros((self.n_steps, n * n))
        for t, at, span in self.entries.slices():
            y[t, at] = self.values[span]
        return y.reshape(-1, n, n)

    def pattern(self, steps):
        """B's packed rows at steps, an index or a slice of them, as bool, one
        byte per entry: (M + N,) for one step, (K, M + N) for K."""
        return np.unpackbits(self.weight[steps], axis=-1, count=self._at.size).view(bool)

    def _pattern_blocks(self):
        """B's packed columns p0 <= p < p1 as a float64 (T, p1 - p0) block:
        (p0, p1, block), left to right, each of at most _budget entries or one column.

        Each block unpacks the bytes that hold its columns and drops the
        p0 % 8 bits before them, so a block may start and end mid-byte.
        """
        size = self._at.size
        width = max(1, self._budget // max(1, self.n_steps))
        for p0 in range(0, size, width):
            p1 = min(p0 + width, size)
            first = p0 // 8
            bits = np.unpackbits(self.weight[:, first : -(-p1 // 8)], axis=1)
            yield p0, p1, bits[:, p0 - 8 * first : p1 - 8 * first].astype(np.float64)

    def unpack(self, rows):
        """The (..., N, N) symmetric planes of (..., M + N) packed rows.

        One gather, which runs several times faster than scattering each row
        to both triangles.
        """
        n = self.n_nodes
        return np.take(rows, self._source, axis=-1).reshape(rows.shape[:-1] + (n, n))

    def target_plane(self, coef):
        """sum_t coef[t] Y_t as an (N, N) plane, for a (T,) vector coef.

        One scatter-add of coef[t] Y_t over the entries of each run, under
        the errstate of :meth:`a_stats`.
        """
        n = self.n_nodes
        plane = np.zeros(n * n)
        with np.errstate(over="ignore", invalid="ignore"):
            for t0, t1, span, run in self.entries.runs(self._budget):
                w = np.repeat(coef[t0:t1], np.diff(run.starts))
                w *= self.values[span]
                plane += np.bincount(run.positions, w, minlength=n * n)
        return plane.reshape(n, n)

    def a_stats(self, signatures, z_rows=None):
        """:class:`AStats` of the (T, R) signatures; Xi needs the packed Z rows.

        Omega and Xi are contracted on the packed rows of B and Z and kept
        packed; the scale of W goes into the coefficients of Omega and of V,
        which :meth:`target_plane` forms plane by plane when an A solve reads
        it. Built under the same errstate as the step bounds, so data too
        large for float64 raises no numpy warning before the abort that names
        it.
        """
        c = np.asarray(signatures, dtype=np.float64)
        n_steps = self.n_steps
        if c.ndim != 2 or c.shape[0] != n_steps:
            raise ValueError(f"signatures must be ({n_steps}, R), got {c.shape}")
        rows, cols = np.triu_indices(c.shape[1])
        pair = np.empty((c.shape[1],) * 2, dtype=np.intp)
        pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
        with np.errstate(over="ignore", invalid="ignore"):
            prods = c[:, rows] * c[:, cols]
            prods *= self.scale[:, None]
            omega = np.empty((rows.size, self._at.size))
            for p0, p1, block in self._pattern_blocks():
                omega[:, p0:p1] = prods.T @ block
            coef = c * self.scale[:, None]
            xi = None
            if z_rows is not None:
                xi = c.T @ z_rows
                xi *= 0.5
        return AStats(omega=omega, pair=pair, coef=coef, xi=xi, data=self)

    def c_stats(self, latents, z_rows=None):
        """:class:`CStats` of the (R, N, N) latents; the traces need the packed Z rows.

        For symmetric B and Z and any latents, with the packed positions p of
        :func:`triangle`, the mirror gather zeroed on the diagonal, which
        the first gather holds,
        G_t,rk = scale_t sum_p B_t,p (A_r,at A_k,at + A_r,mirror A_k,mirror)
        and <Z_t, A_r> = sum_p Z_t,p (A_r,at + A_r,mirror); Z_t's diagonal is
        0. The Grams take one product per block of B's columns
        (:meth:`_pattern_blocks`) against the (R, R) products of the latents'
        entries in those columns, so no (R, R, M + N) temporary is formed.
        Built under the same errstate as :meth:`a_stats`.
        """
        lat = _flat(np.asarray(latents, dtype=np.float64))
        n_lat, n = len(lat), self.n_nodes
        # np.take gathers rows several times faster than fancy indexing
        up, low = np.take(lat, self._at, axis=1), np.take(lat, self._mirror, axis=1)
        low[:, -n:] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            grams = np.zeros((self.n_steps, n_lat * n_lat))
            for p0, p1, block in self._pattern_blocks():
                u, l = up[:, p0:p1], low[:, p0:p1]
                sym = u[:, None] * u
                sym += l[:, None] * l
                grams += block @ sym.reshape(n_lat * n_lat, -1).T
            grams *= self.scale[:, None]
            grams = grams.reshape(-1, n_lat, n_lat)
            # b_t: Y_t's entries times the latents gathered at them, summed per slice
            b = np.empty((self.n_steps, n_lat))
            for t0, t1, span, run in self.entries.runs(self._budget):
                g = np.take(lat, run.positions, axis=1)
                g *= self.values[span]
                b[t0:t1] = run.sums(g).T
            b *= self.scale[:, None]
            traces = None
            if z_rows is not None:
                up += low
                traces = z_rows @ up.T
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
        runs one slice at a time, so it holds no (T, N, N) buffer: Y_t's
        entries are subtracted from the dense reconstruction of slice t, the
        residual is squared in place, and its squares at the two gathers of
        :func:`triangle` are weighted together by the packed B_t, the
        diagonal, gathered twice, halved, and by scale_t.
        """
        c = np.asarray(signatures, dtype=np.float64)
        lat = _flat(np.asarray(latents, dtype=np.float64))
        n = self.n_nodes
        total = 0.0
        for t, at, span in self.entries.slices():
            sq = c[t] @ lat
            sq[at] -= self.values[span]
            np.square(sq, out=sq)
            pairs = sq[self._at]
            pairs += sq[self._mirror]
            pairs[-n:] *= 0.5
            total += self.scale[t] * float(self.pattern(t) @ pairs)
        return 0.5 * total


def as_stacks(adj, mask):
    """adj and mask as slice stacks (:func:`as_stack`) of one (T, N, N) shape."""
    adj, mask = as_stack(adj), as_stack(mask)
    if len(adj.shape) != 3 or adj.shape[1] != adj.shape[2]:
        raise ValueError(f"adjacency tensor must be (T, N, N), got {adj.shape}")
    if tuple(adj.shape) != tuple(mask.shape):
        raise ValueError(f"adjacency {adj.shape} and mask {mask.shape} differ in shape")
    return adj, mask


def project_sa(x):
    """Euclidean projection onto S_A: symmetrize, clip negatives, zero the diagonal."""
    x = np.asarray(x, dtype=np.float64)
    s = np.maximum(0.5 * (x + x.T), 0.0)
    np.fill_diagonal(s, 0.0)
    return s


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
