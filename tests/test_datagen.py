"""Synthetic generator: SBM, smooth signals, masks, the blended dataset."""

import dataclasses
import itertools
import sys
import threading
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgd.datagen import (
    SwDynSpec,
    _add_edge_noise,
    _low_pass,
    mask_seed,
    sample_mask,
    sbm_graph,
    swdyn,
)
from dgd.model import reconstruct

from helpers import is_hollow, is_symmetric, set_cpus

CPUS = pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["pool", "one_cpu"])


def _qv(x, adjacency):
    lap = np.diag(adjacency.sum(axis=1)) - adjacency
    return float(np.trace(x.T @ lap @ x))


@pytest.mark.parametrize(
    "kw",
    [
        {"n_nodes": 1},
        {"n_steps": 0},
        {"n_signals": 0},
        {"communities_start": 3},
        {"communities_end": 0},
        {"p_in": 1.5},
        {"p_out": -0.1},
        {"alpha": -1.0},
        {"noise_sigma": -0.5},
    ],
)
def test_spec_validation_rejects(kw):
    with pytest.raises(ValueError):
        SwDynSpec(**kw)


def test_spec_from_dict_names_unknown_key():
    # clip_negative, a setting of older specs, is an unknown key like any other
    for key in ("n_bogus", "clip_negative"):
        with pytest.raises(ValueError, match=f"^unknown generator setting {key!r}$"):
            SwDynSpec.from_dict({key: 3})


def test_spec_dict_round_trip():
    spec = SwDynSpec(n_nodes=8, n_steps=6, n_signals=4, p_in=0.5)
    assert SwDynSpec.from_dict(dataclasses.asdict(spec)) == spec


def test_spec_from_dict_reads_json_ints_in_float_fields_as_floats():
    # as Hyperparams.from_dict does: a spec file may write 10 for 10.0
    given = {"n_nodes": 12, "n_steps": 5, "n_signals": 6, "alpha": 10, "p_in": 1,
             "p_out": 0, "noise_sigma": 1, "seed": 3}
    spec = SwDynSpec.from_dict(given)
    for name in ("alpha", "p_in", "p_out", "noise_sigma"):
        assert type(getattr(spec, name)) is float, name
    assert type(spec.n_nodes) is int
    floats = SwDynSpec.from_dict({**given, "alpha": 10.0, "p_in": 1.0, "p_out": 0.0,
                                  "noise_sigma": 1.0})
    adj, signals, truth = swdyn(spec)
    want_adj, want_signals, want_truth = swdyn(floats)
    assert adj.tobytes() == want_adj.tobytes()
    assert signals.tobytes() == want_signals.tobytes()
    assert truth.latents.tobytes() == want_truth.latents.tobytes()
    assert truth.signatures.tobytes() == want_truth.signatures.tobytes()


def test_sbm_complete_blocks():
    g = sbm_graph([2, 2], p_in=1.0, p_out=0.0, seed=0)
    want = np.zeros((4, 4))
    want[0, 1] = want[1, 0] = 1.0
    want[2, 3] = want[3, 2] = 1.0
    assert np.array_equal(g, want)


def test_sbm_empty_graph():
    assert not sbm_graph([3, 3], 0.0, 0.0, seed=1).any()


def test_sbm_shape_and_feasibility():
    g = sbm_graph([5, 5, 5], 0.4, 0.1, seed=2)
    assert g.shape == (15, 15)
    assert is_symmetric(g) and is_hollow(g)
    assert set(np.unique(g)) <= {0.0, 1.0}


def test_sbm_density_monte_carlo():
    # one block, p=0.5: edge density over 200 draws lands within 0.05
    n, draws = 20, 200
    total = 0.0
    pairs = n * (n - 1) / 2
    for seed in range(draws):
        g = sbm_graph([n], 0.5, 0.0, seed=seed)
        total += g.sum() / 2.0 / pairs
    assert abs(total / draws - 0.5) < 0.05


def test_sbm_deterministic_and_generator_friendly():
    a = sbm_graph([4, 4], 0.5, 0.1, seed=7)
    b = sbm_graph([4, 4], 0.5, 0.1, seed=7)
    assert np.array_equal(a, b)
    c = sbm_graph([4, 4], 0.5, 0.1, seed=np.random.default_rng(7))
    assert np.array_equal(a, c)


def test_low_pass_alpha_zero_returns_white_input():
    g = sbm_graph([4], 1.0, 0.0, seed=0)
    white = np.random.default_rng(3).standard_normal((4, 6))
    assert np.allclose(_low_pass(g, 0.0, white), white)


def test_low_pass_empty_graph_is_identity_filter():
    white = np.random.default_rng(4).standard_normal((5, 4))
    assert np.allclose(_low_pass(np.zeros((5, 5)), 10.0, white), white)


def test_low_pass_quadratic_variation_decreases_with_alpha():
    g = sbm_graph([6, 6], 0.8, 0.2, seed=5)
    white = np.random.default_rng(6).standard_normal((12, 40))
    qvs = [_qv(_low_pass(g, alpha, white), g) for alpha in (0.0, 1.0, 10.0)]
    assert qvs[0] > qvs[1] > qvs[2]
    # the filter never amplifies variation relative to its white input
    assert qvs[2] <= _qv(white, g)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_low_pass_matches_the_solve_formula(data):
    n = data.draw(st.integers(1, 60), label="n")
    q = data.draw(st.integers(1, 3 * n), label="q")
    alpha = data.draw(st.sampled_from([0.0, 50.0]) | st.floats(0.0, 50.0), label="alpha")
    weights = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0)
    upper = np.triu(data.draw(hnp.arrays(np.float64, (n, n), elements=weights)), k=1)
    adjacency = upper + upper.T
    white = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((n, q))
    lap = np.diag(adjacency.sum(axis=1)) - adjacency
    want = np.linalg.solve(np.eye(n) + alpha * lap, white)
    got = _low_pass(adjacency, alpha, white)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_sample_mask_boundaries():
    full = sample_mask(4, 3, 1.0, seed=0)
    assert np.array_equal(full, np.ones((3, 4, 4)))
    empty = sample_mask(4, 3, 0.0, seed=0)
    assert np.array_equal(empty, np.broadcast_to(np.eye(4), (3, 4, 4)))
    with pytest.raises(ValueError):
        sample_mask(4, 3, 1.5, seed=0)
    with pytest.raises(ValueError):
        sample_mask(4, 3, -0.1, seed=0)


def test_sample_mask_symmetric_with_observed_diagonal():
    mask = sample_mask(10, 5, 0.4, seed=1)
    assert is_symmetric(mask)
    assert np.all(np.diagonal(mask, axis1=1, axis2=2) == 1.0)
    assert set(np.unique(mask)) <= {0.0, 1.0}


@pytest.mark.parametrize("n, t, frac", [(7, 5, 0.4), (1, 3, 0.5), (6, 2, 0.0), (6, 2, 1.0)])
def test_sample_mask_is_the_one_draw_formula_byte_for_byte(n, t, frac):
    # slice by slice from one stream: the same bytes as one (T, N, N) draw
    draws = np.random.default_rng(mask_seed(3, frac)).random((t, n, n))
    upper = np.triu(draws < frac, k=1)
    want = (upper | upper.transpose(0, 2, 1)).astype(np.float64)
    want[:, np.arange(n), np.arange(n)] = 1.0
    got = sample_mask(n, t, frac, mask_seed(3, frac))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_sample_mask_hits_requested_fraction():
    mask = sample_mask(40, 50, 0.5, seed=2)
    off = ~np.eye(40, dtype=bool)
    frac = mask[:, off].mean()
    assert abs(frac - 0.5) < 0.02


def test_swdyn_blend_endpoints_and_exact_reconstruction():
    spec = SwDynSpec(n_nodes=12, n_steps=9, n_signals=5, seed=3)
    adj, signals, truth = swdyn(spec)
    assert adj.shape == (9, 12, 12)
    assert signals.shape == (9, 12, 5)
    assert np.array_equal(adj[0], truth.latents[0])
    assert np.array_equal(adj[-1], truth.latents[1])
    assert np.allclose(truth.signatures.sum(axis=1), 1.0)
    # the noise-free adjacency is the truth's reconstruction, byte for byte
    assert reconstruct(truth).tobytes() == adj.tobytes()
    assert is_symmetric(adj) and is_hollow(adj)
    assert np.all(adj >= 0.0)


def test_swdyn_deterministic_per_seed():
    spec = SwDynSpec(n_nodes=8, n_steps=4, n_signals=3, seed=5)
    a1, s1, t1 = swdyn(spec)
    a2, s2, t2 = swdyn(spec)
    assert np.array_equal(a1, a2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(t1.latents, t2.latents)
    a3, _, _ = swdyn(SwDynSpec(n_nodes=8, n_steps=4, n_signals=3, seed=6))
    assert not np.array_equal(a1, a3)


def test_swdyn_default_edge_count_near_target():
    # per-slice average count of strictly positive entries, aiming at ~130
    counts = []
    for seed in range(3):
        adj, _, _ = swdyn(SwDynSpec(seed=seed))
        counts.append(float((adj > 0).sum()) / 2.0 / adj.shape[0])
    mean = sum(counts) / len(counts)
    assert 115.0 < mean < 147.0


def test_swdyn_noise_is_symmetric_hollow_and_optionally_clipped():
    spec = SwDynSpec(n_nodes=12, n_steps=6, n_signals=4, noise_sigma=0.5, seed=7)
    adj, _, truth = swdyn(spec)
    noise = adj - reconstruct(truth)
    assert is_symmetric(noise) and is_hollow(noise)
    assert noise.std() > 0.1
    # the noise is never clipped: negative weights stay
    assert adj.min() < 0.0


def _serial_swdyn(spec):
    """swdyn by the plain formula: one stream, latents, then per step a
    (N, Q) white-noise draw and its filter, the inverse of I + alpha L times
    the draw, then the edge noise."""
    rng = np.random.default_rng(spec.seed)
    n, t, q = spec.n_nodes, spec.n_steps, spec.n_signals
    k1, k2 = spec.communities_start, spec.communities_end
    latents = np.stack(
        [
            sbm_graph([n // k1] * k1, spec.p_in, spec.p_out, rng),
            sbm_graph([n // k2] * k2, spec.p_in, spec.p_out, rng),
        ]
    )
    ramp = np.linspace(1.0, 0.0, t)
    clean = np.einsum("tr,rij->tij", np.stack([ramp, 1.0 - ramp], axis=1), latents)
    signals = []
    for k in range(t):
        white = rng.standard_normal((n, q))
        lap = np.diag(clean[k].sum(axis=1)) - clean[k]
        signals.append(np.linalg.inv(np.eye(n) + spec.alpha * lap) @ white)
    adj = clean
    if spec.noise_sigma > 0:
        noise = spec.noise_sigma * rng.standard_normal((t, n, n))
        noise = 0.5 * (noise + noise.transpose(0, 2, 1))
        noise[:, np.arange(n), np.arange(n)] = 0.0
        adj = clean + noise
    return adj, np.stack(signals), latents


@CPUS
@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"noise_sigma": 0.4},
        {"n_steps": 1},
    ],
    ids=["clean", "noisy", "one_step"],
)
def test_swdyn_matches_the_serial_formula_bytes(monkeypatch, cpus, kw):
    set_cpus(monkeypatch, cpus)
    spec = SwDynSpec(**{"n_nodes": 12, "n_steps": 7, "n_signals": 9, "seed": 11, **kw})
    adj, signals, truth = swdyn(spec)
    want_adj, want_signals, want_latents = _serial_swdyn(spec)
    assert signals.tobytes() == want_signals.tobytes()
    assert adj.tobytes() == want_adj.tobytes()
    assert truth.latents.tobytes() == want_latents.tobytes()


def test_swdyn_bytes_hold_with_more_threads_than_cores(monkeypatch):
    # eight filter threads switching every microsecond: a step written into
    # another's slice, or drawn out of order, changes the bytes
    set_cpus(monkeypatch, range(8))
    spec = SwDynSpec(n_nodes=12, n_steps=40, n_signals=6, seed=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, signals, _ = swdyn(spec)
    finally:
        sys.setswitchinterval(interval)
    assert signals.tobytes() == _serial_swdyn(spec)[1].tobytes()


@CPUS
def test_swdyn_leaves_no_thread_behind(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    before = threading.active_count()
    swdyn(SwDynSpec(n_nodes=8, n_steps=6, n_signals=4))
    assert threading.active_count() == before


@CPUS
def test_swdyn_step_error_reaches_the_caller(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    inv = np.linalg.inv
    calls = itertools.count()

    def failing_inv(a):
        if next(calls) == 2:
            raise np.linalg.LinAlgError("step 2 is singular")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", failing_inv)
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match="^step 2 is singular$"):
        swdyn(SwDynSpec(n_nodes=8, n_steps=6, n_signals=4))
    assert threading.active_count() == before


@CPUS
def test_swdyn_peak_memory_is_the_outputs_plus_a_few_slices_per_worker(monkeypatch, cpus):
    # the signal stack is built in place: beyond the outputs, each worker
    # holds only its filter's few N x N temporaries and one (N, Q) product
    set_cpus(monkeypatch, cpus)
    spec = SwDynSpec(n_nodes=60, n_steps=30, n_signals=200)
    swdyn(spec)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        adj, signals, truth = swdyn(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = adj.nbytes + signals.nbytes + truth.latents.nbytes + truth.signatures.nbytes
    per_worker = 2 * signals[0].nbytes + 4 * adj[0].nbytes
    assert peak - outputs <= len(cpus) * per_worker + 64 * 1024


@CPUS
def test_swdyn_edge_noise_adds_no_stack(monkeypatch, cpus):
    # the noise is drawn and added one slice at a time into the clean stack,
    # which becomes the adjacency output: the noisy run keeps the noise-free
    # run's bound of the outputs plus a few slices per worker
    set_cpus(monkeypatch, cpus)
    spec = SwDynSpec(n_nodes=60, n_steps=30, n_signals=200, noise_sigma=0.3)
    swdyn(spec)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        adj, signals, truth = swdyn(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = adj.nbytes + signals.nbytes + truth.latents.nbytes + truth.signatures.nbytes
    per_worker = 2 * signals[0].nbytes + 4 * adj[0].nbytes
    assert peak - outputs <= len(cpus) * per_worker + 64 * 1024


def test_edge_noise_step_holds_two_slices():
    adj = np.zeros((20, 90, 90))
    _add_edge_noise(adj, 0.3, np.random.default_rng(0))  # first-call allocations
    tracemalloc.start()
    try:
        _add_edge_noise(adj, 0.3, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * adj[0].nbytes + 16 * 1024
    assert is_symmetric(adj) and is_hollow(adj) and adj.min() < 0.0 < adj.max()
