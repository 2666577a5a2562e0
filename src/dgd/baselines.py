"""Reference methods the solver is compared against.

unc drops every constraint and prior and alternates exact masked least
squares on the same factorization. cpd fits an unconstrained three-way
canonical decomposition to the zero-imputed tensor at a rank matched by
parameter count. nsdgd is the full solver with the signal coupling turned
off. METHODS exposes all of them behind one adapter signature, returning
the decomposition and one ObjectiveBreakdown per recorded iteration.
"""

from __future__ import annotations

import warnings

import numpy as np

from .driver import run_dgd
from .model import Decomposition, Hyperparams, NumericalAbort, ObjectiveBreakdown
from .tensors import FitData

RIDGE = 1e-8


def _ridged_solve(grams, rhs, label):
    """Batched SPD solves with a tiny ridge on near-singular blocks."""
    w = np.linalg.eigvalsh(grams)
    bad = w[..., 0] <= 1e-12 * np.maximum(w[..., -1], 1.0)
    n_bad = int(bad.sum())
    if n_bad:
        warnings.warn(
            f"unc: ridged {n_bad} near-singular {label} blocks", RuntimeWarning, stacklevel=3
        )
        eye = np.eye(grams.shape[-1])
        grams = grams.copy()
        grams[bad] += RIDGE * eye
    return np.linalg.solve(grams, rhs[..., None])[..., 0]


def unc_solve(adj, mask, n_latents, iters=50, seed=0):
    """Alternating masked least squares without constraints or priors.

    Returns (Decomposition, fit history); the history records
    0.5 ||M o (recon - A)||_F^2 after every half-step, so it is
    non-increasing up to the ridge added on degenerate blocks. Its
    reconstruction sum_r C[t, r] A_r is the product of C with the (R, N^2)
    matricized latents, copied contiguous by tensordot. The signature step
    solves with the masked Grams and right-hand sides of
    :meth:`FitData.c_stats`.
    Adjacency entries where the mask is 0 are never read; adj and mask are
    any slice stacks (:func:`tensors.as_stack`).
    """
    observed = FitData.build(adj, mask, Hyperparams())
    target = observed.dense_target()
    t, n = target.shape[:2]
    # the fit and the latent step weigh each entry (i, j) apart, on the bool
    # pattern unpacked from the checked rows; each product casts it to float
    mask = observed.unpack(observed.pattern(slice(None)))
    rng = np.random.default_rng(seed)
    # the draw's column r is A_r stacked column by column
    latents = rng.random((n * n, n_latents)).reshape(n, n, n_latents).transpose(2, 1, 0)
    c = rng.random((t, n_latents))
    fits = []

    def fit():
        buf = np.tensordot(c, latents, axes=1)
        buf *= mask
        buf -= target
        np.square(buf, out=buf)
        return 0.5 * float(np.sum(buf))

    for _ in range(iters):
        stats = observed.c_stats(latents)
        c = _ridged_solve(stats.grams, stats.b, "signature")
        fits.append(fit())
        # the last Grams die before the next are formed
        latents = _ridged_solve(
            np.tensordot(mask, c[:, :, None] * c[:, None, :], axes=(0, 0)),
            np.tensordot(target, c, axes=(0, 0)),
            "latent",
        ).transpose(2, 0, 1)
        fits.append(fit())
    return Decomposition(latents, c), fits


def nsdgd(adj, mask, signals, h, seed):
    """The full solver with the signal coupling (delta) turned off."""
    return run_dgd(adj, mask, None, h.replace(delta=0.0), seed)


def cpd_rank_for(n_nodes, n_steps, n_latents):
    """Rank that matches the decomposition's parameter count.

    Solves F (2N + T) = R (N(N-1)/2 + T) for F, rounded to the nearest
    integer and floored at 1.
    """
    free = n_latents * (n_nodes * (n_nodes - 1) / 2.0 + n_steps)
    return max(1, int(np.rint(free / (2.0 * n_nodes + n_steps))))


def _khatri_rao(u, v):
    """Column-wise Kronecker product: row (i, j) of the (N_u N_v, F) result is u[i] * v[j]."""
    return (u[:, None, :] * v[None, :, :]).reshape(-1, u.shape[1])


def _mttkrp_rows(x, v, w):
    """Row-mode MTTKRP sum_tj X[t, i, j] v[j, f] w[t, f]: batched X_t v, contracted with w.

    The column mode is the row mode of x.transpose(0, 2, 1).
    """
    return np.einsum("tif,tf->if", x @ v, w)


def _mttkrp_time(x, u, v):
    """Temporal MTTKRP sum_ij X[t, i, j] u[i, f] v[j, f] = X_(T) (u kr v).

    X_(T) is the (T, N^2) reshape of x and kr the Khatri-Rao product.
    """
    return x.reshape(len(x), -1) @ _khatri_rao(u, v)


def _cp_reconstruct(u, v, w):
    """The (T, N, N) stack sum_f w[t, f] u[i, f] v[j, f] = w (u kr v)', reshaped."""
    return (w @ _khatri_rao(u, v).T).reshape(len(w), len(u), len(v))


def cpd_als(tensor, rank, iters=60, seed=0):
    """Unconstrained CP decomposition of a (T, N, N) stack by ALS.

    Every contraction is a matrix product on a matricization of X (Kolda &
    Bader 2009, sec. 3.4): the time-mode MTTKRP is X_(T) (u kr v), with X_(T)
    the (T, N^2) reshape and kr the Khatri-Rao product; the node-mode MTTKRPs
    contract the batched products X_t v and X_t' u with w over t; the
    reconstruction is w (u kr v)', reshaped to (T, N, N).

    Factor columns of the two node modes are renormalized each iteration with
    the scale pushed into the time mode. A non-finite iterate triggers one
    restart from seed + 1, then NumericalAbort. Returns ((u, v, w), fit
    history) with fit = 0.5 ||X - recon||_F^2 per iteration.
    """
    x = np.asarray(tensor, dtype=np.float64)
    t, n = x.shape[0], x.shape[1]
    def _solve(g, rhs, like):
        # lstsq chokes on non-finite input (and can fail to converge even on
        # finite input); either way the iterate is dead, signal with NaN
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(rhs))):
            return np.full_like(like, np.nan)
        try:
            return np.linalg.lstsq(g, rhs.T, rcond=None)[0].T
        except np.linalg.LinAlgError:
            return np.full_like(like, np.nan)

    for start in (seed, seed + 1):
        rng = np.random.default_rng(start)
        u = rng.random((n, rank))
        v = rng.random((n, rank))
        w = rng.random((t, rank))
        fits = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(iters):
                u = _solve((v.T @ v) * (w.T @ w), _mttkrp_rows(x, v, w), u)
                v = _solve((u.T @ u) * (w.T @ w), _mttkrp_rows(x.transpose(0, 2, 1), u, w), v)
                w = _solve((u.T @ u) * (v.T @ v), _mttkrp_time(x, u, v), w)
                nu = np.linalg.norm(u, axis=0)
                nv = np.linalg.norm(v, axis=0)
                scale_u = np.where(nu > 0, nu, 1.0)
                scale_v = np.where(nv > 0, nv, 1.0)
                u = u / scale_u
                v = v / scale_v
                w = w * (scale_u * scale_v)
                if not (
                    np.all(np.isfinite(u)) and np.all(np.isfinite(v)) and np.all(np.isfinite(w))
                ):
                    break
                buf = _cp_reconstruct(u, v, w)
                np.subtract(x, buf, out=buf)
                np.square(buf, out=buf)
                fits.append(0.5 * float(np.sum(buf)))
            else:
                return (u, v, w), fits
    raise NumericalAbort("cpd: factors went non-finite twice")


def cpd_to_decomposition(u, v, w):
    """Symmetrize CP factors into latent graphs plus their signatures over time.

    Latent f is 0.5 (P_f + P_f') for P_f = u_f v_f', whose transpose is v_f u_f'
    entry for entry; the signatures are a copy of w.
    """
    u, v, w = (np.asarray(x, dtype=np.float64) for x in (u, v, w))
    outer = np.einsum("if,jf->fij", u, v)
    return Decomposition(0.5 * (outer + outer.transpose(0, 2, 1)), w.copy())


def _dgd(adj, mask, signals, h, seed):
    d, hist = run_dgd(adj, mask, signals, h, seed)
    return d, hist.breakdowns


def _nsdgd(adj, mask, signals, h, seed):
    d, hist = nsdgd(adj, mask, signals, h, seed)
    return d, hist.breakdowns


def _unc(adj, mask, signals, h, seed):
    d, fits = unc_solve(adj, mask, h.n_latents, seed=seed)
    return d, [ObjectiveBreakdown(fit=f) for f in fits]


def _cpd(adj, mask, signals, h, seed):
    observed = FitData.build(adj, mask, Hyperparams()).dense_target()
    rank = cpd_rank_for(observed.shape[1], observed.shape[0], h.n_latents)
    (u, v, w), fits = cpd_als(observed, rank, seed=seed)
    return cpd_to_decomposition(u, v, w), [ObjectiveBreakdown(fit=f) for f in fits]


# adapter(adj, mask, signals, h, seed) -> (Decomposition, [ObjectiveBreakdown])
METHODS = {
    "dgd": _dgd,
    "nsdgd": _nsdgd,
    "unc": _unc,
    "cpd": _cpd,
}
