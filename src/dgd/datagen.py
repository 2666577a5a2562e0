"""Synthetic switching-community dynamic network generator.

Two planted stochastic block model graphs over the same node set, one with a
coarse community split and one with a finer nested split, are blended by a
pair of complementary linear ramps: the blend drifts from the coarse graph at
the first step to the fine graph at the last. Smooth node signals are drawn
per step by low-pass filtering white noise through the blended Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Decomposition, check_fields, check_number, reconstruct, settings_from_dict


@dataclass(frozen=True)
class SwDynSpec:
    """Generator settings.

    Defaults give 40 nodes, 50 steps, 1000 signal channels and an average of
    roughly 130 edges per blended slice. Community counts must both divide
    n_nodes (blocks are equal-sized and contiguous). Checked when built,
    dataclasses.replace included, and immutable.
    """

    n_nodes: int = 40
    n_steps: int = 50
    n_signals: int = 1000
    communities_start: int = 2
    communities_end: int = 4
    p_in: float = 0.24
    p_out: float = 0.01
    alpha: float = 10.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        low = {"n_nodes": 2, "n_steps": 1, "n_signals": 1,
               "communities_start": 1, "communities_end": 1, "seed": 0}
        check_fields(self, low)
        for name in ("communities_start", "communities_end"):
            k = getattr(self, name)
            if self.n_nodes % k != 0:
                raise ValueError(f"n_nodes={self.n_nodes} is not divisible by {name}={k}")
        for name in ("p_in", "p_out"):
            p = getattr(self, name)
            if p > 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")

    @classmethod
    def from_dict(cls, cfg):
        """Build from a settings mapping (:func:`model.settings_from_dict`)."""
        return settings_from_dict(cls, cfg, "unknown generator setting {!r}")


def sbm_graph(block_sizes, p_in, p_out, seed):
    """Sample a symmetric hollow 0/1 stochastic block model adjacency.

    block_sizes lists contiguous community sizes; within-community pairs
    connect with probability p_in, others with p_out.
    """
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    same = labels[:, None] == labels[None, :]
    prob = np.where(same, p_in, p_out)
    n = labels.size
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    return (upper | upper.T).astype(np.float64)


def _low_pass(adjacency, alpha, white):
    """(I + alpha L)^{-1} white for the Laplacian L of one adjacency.

    The inverse is formed, then multiplied into the (N, Q) white noise:
    2 N^3 + 2 N^2 Q flops against a solve's 2/3 N^3 + 2 N^2 Q, but the
    product runs as one matrix product, several times faster per flop than a
    solve's triangular sweeps. It wins once Q is above about 1.2 N; with
    Q much below N it costs up to ~5x a solve (N = 240, Q = 1). The system
    is symmetric positive definite, so both agree to rounding.
    """
    lap = np.diag(adjacency.sum(axis=1)) - adjacency
    return np.linalg.inv(np.eye(adjacency.shape[0]) + alpha * lap) @ white


def observed_fraction(value, name):
    """value as a float in (0, 1], the fractions a dataset may observe;
    ValueError naming `name` otherwise."""
    check_number(name, value)
    if not 0 < value <= 1:
        raise ValueError(f"{name}: observed fraction must lie in (0, 1], got {value}")
    return float(value)


def sample_mask(n_nodes, n_steps, observed_frac, seed):
    """Observe each unordered node pair independently per step.

    The mask is symmetric with an all-ones diagonal (the diagonal carries no
    edges either way). observed_frac = 1 gives the full mask; it must be a
    finite number in [0, 1], else ValueError naming observed_frac.
    """
    check_number("observed_frac", observed_frac)
    if not 0.0 <= observed_frac <= 1.0:
        raise ValueError(f"observed_frac must lie in [0, 1], got {observed_frac}")
    rng = np.random.default_rng(seed)
    mask = np.empty((n_steps, n_nodes, n_nodes))
    # one (N, N) draw per slice, in order from the one stream: the same
    # numbers as one (T, N, N) draw, without its stack-sized buffers
    for m in mask:
        upper = np.triu(rng.random((n_nodes, n_nodes)) < observed_frac, k=1)
        m[...] = upper | upper.T
        np.fill_diagonal(m, 1.0)
    return mask


def mask_seed(seed, observed_frac):
    """Seed of the observation mask drawn for a dataset seed and fraction.

    Decouples the mask stream from the data stream, and stays stable across
    ranks so sweeps over n_latents see the same masks.
    """
    return np.random.SeedSequence([int(seed), 0x6D61736B, round(observed_frac * 10**9)])


def swdyn(spec, reduce=None):
    """Generate one dataset: (adjacency, signals, truth) of a SwDynSpec.

    adjacency : (T, N, N) blended slices, plus symmetric hollow Gaussian
        noise when spec.noise_sigma > 0.
    signals : (T, N, Q) smooth node signals filtered through the clean
        slices; with `reduce`, row k is instead reduce(k, X_k) of step k's
        (N, Q) signals X_k, an array of one shape at every step (for
        example :func:`priors.distance_row` with its `at` bound).
    truth : Decomposition holding the two planted graphs and their ramps.

    The white noise comes from the one seeded stream in step order: latents,
    steps 0..T-1, then the edge noise. The steps run one after another in the
    calling thread: each is drawn into one reused (N, Q) buffer, filtered
    (:func:`_low_pass`) and kept, or reduced, before the next is drawn, so a
    reducer that keeps nothing (the command line's, which writes each step to
    its file) holds no stack of signals.
    """
    rng = np.random.default_rng(spec.seed)
    n, t, q = spec.n_nodes, spec.n_steps, spec.n_signals
    ramp = np.linspace(1.0, 0.0, t)
    signatures = np.stack([ramp, 1.0 - ramp], axis=1)
    k1, k2 = spec.communities_start, spec.communities_end
    latents = np.stack([sbm_graph([n // k] * k, spec.p_in, spec.p_out, rng) for k in (k1, k2)])
    truth = Decomposition(latents, signatures)
    clean = reconstruct(truth)

    white = np.empty((n, q))
    out = None
    for k in range(t):
        rng.standard_normal(out=white)
        row = _low_pass(clean[k], spec.alpha, white)
        if reduce is not None:
            row = reduce(k, row)
        if out is None:
            out = np.empty((t,) + row.shape, row.dtype)
        out[k] = row
        del row  # frees this step's signals before the next step is filtered
    if spec.noise_sigma > 0:
        _add_edge_noise(clean, spec.noise_sigma, rng)
    return clean, out, truth


def _add_edge_noise(adj, sigma, rng):
    """Add symmetric hollow N(0, sigma^2 / 2) noise to the (T, N, N) stack adj
    in place.

    Step t's noise is 0.5 (E + E') for E = sigma times the t-th (N, N) draw
    of the stream, zeroed on the diagonal; the draws are taken one slice at
    a time, which consumes the stream as one (T, N, N) draw does. Beyond adj
    this holds two N x N slices and no temporary.
    """
    draw = np.empty(adj.shape[1:])
    noise = np.empty_like(draw)
    for a in adj:
        rng.standard_normal(out=draw)
        draw *= sigma
        # E' + E, with no ufunc buffer for the transposed operand
        np.copyto(noise, draw.T)
        noise += draw
        noise *= 0.5
        np.fill_diagonal(noise, 0.0)
        a += noise
