"""Alternating driver: determinism, convergence bookkeeping, failure paths."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dgd import admm_a
from dgd.driver import initialize, outer_iteration, run_dgd
from dgd.model import Hyperparams, NumericalAbort, in_sa, reconstruct
from dgd.priors import build_cache
from dgd.tensors import FitData

from helpers import planted_decomposition


def _small_problem(seed=0, t=6, n=6):
    d = planted_decomposition(seed, n=n, t=t, r=2)
    adj = reconstruct(d)
    mask = np.ones((t, n, n))
    return adj, mask


def test_initialize_feasible_and_deterministic():
    d1 = initialize(3, 5, 7, 2)
    d2 = initialize(3, 5, 7, 2)
    assert np.array_equal(d1.latents, d2.latents)
    assert np.array_equal(d1.signatures, d2.signatures)
    for r in range(2):
        assert in_sa(d1.latents[r])
    assert np.all(d1.signatures >= 0.0)
    assert d1.latents.shape == (2, 5, 5)
    assert d1.signatures.shape == (7, 2)


def test_zero_outer_iterations_returns_initial_point():
    adj, mask = _small_problem()
    h = Hyperparams(delta=0.0, outer_iters=0)
    d, hist = run_dgd(adj, mask, None, h, seed=9)
    ref = initialize(np.random.default_rng(9), 6, 6, 2)
    assert np.array_equal(d.latents, ref.latents)
    assert np.array_equal(d.signatures, ref.signatures)
    assert hist.breakdowns == []
    assert hist.status == "max_iters"


def test_run_is_deterministic_per_seed():
    adj, mask = _small_problem(1)
    h = Hyperparams(delta=0.0, inner_iters=4, outer_iters=5)
    d1, h1 = run_dgd(adj, mask, None, h, seed=4)
    d2, h2 = run_dgd(adj, mask, None, h, seed=4)
    d3, _ = run_dgd(adj, mask, None, h, seed=5)
    assert np.array_equal(d1.latents, d2.latents)
    assert np.array_equal(d1.signatures, d2.signatures)
    assert h1.totals == h2.totals
    assert not np.array_equal(d1.latents, d3.latents)


def test_objective_trace_decreases_on_planted_data():
    adj, mask = _small_problem(2)
    h = Hyperparams(
        delta=0.0, gamma=1e-4, beta=1e-4, mu=1e-4, rho=1e-4, zeta=0.01,
        inner_iters=60, outer_iters=40,
    )
    _, hist = run_dgd(adj, mask, None, h, seed=0)
    totals = hist.totals
    assert totals[-1] < 0.1 * totals[0]
    assert hist.status in ("converged", "max_iters")


def test_history_shapes_and_progress_lines(capfd):
    adj, mask = _small_problem(3)
    h = Hyperparams(delta=0.0, inner_iters=3, outer_iters=4, tol_outer=0.0)
    _, hist = run_dgd(adj, mask, None, h, seed=1)
    assert len(hist.breakdowns) == 4
    assert len(hist.a_residuals) == 4 and all(len(row) == 2 for row in hist.a_residuals)
    assert len(hist.c_residuals) == 4
    assert len(hist.seconds) == 4
    err = capfd.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.startswith("iter=")]
    assert len(lines) == 4
    assert re.fullmatch(
        r"iter=0 total=\d\.\d{6}e[+-]\d+ fit=\d\.\d{6}e[+-]\d+ rel_change=inf", lines[0]
    )
    assert re.fullmatch(
        r"iter=1 total=\d\.\d{6}e[+-]\d+ fit=\d\.\d{6}e[+-]\d+ rel_change=\d\.\d{3}e[+-]\d+",
        lines[1],
    )


def test_history_records_the_min_degree_margin_of_each_iteration():
    adj, mask = _small_problem(5)
    h = Hyperparams(delta=0.0, inner_iters=3, outer_iters=4, tol_outer=0.0, zeta=0.5)
    _, hist = run_dgd(adj, mask, None, h, seed=3)
    assert len(hist.min_degree_margin) == 4
    for k, got in enumerate(hist.min_degree_margin, start=1):
        # the same seed and k outer iterations give the iterate after iteration k
        d, _ = run_dgd(adj, mask, None, h.replace(outer_iters=k), seed=3)
        want = min(reconstruct(d)[t, i].sum() - h.zeta for t in range(6) for i in range(6))
        assert type(got) is float
        assert np.isclose(got, want, rtol=1e-12, atol=1e-12)


def test_convergence_needs_three_small_steps():
    adj, mask = _small_problem(4)
    # every relative change beats this tolerance, so the run stops after the
    # first three measurable changes (iteration 0 has none)
    h = Hyperparams(delta=0.0, inner_iters=2, outer_iters=50, tol_outer=1e9)
    _, hist = run_dgd(adj, mask, None, h, seed=2)
    assert hist.status == "converged"
    assert len(hist.breakdowns) == 4


def test_zero_observation_slices_warn_but_run(capfd):
    adj, mask = _small_problem(5)
    mask = mask.copy()
    mask[0] = 0.0
    h = Hyperparams(delta=0.0, inner_iters=2, outer_iters=2)
    _, hist = run_dgd(adj, mask, None, h, seed=0)
    assert hist.zero_observation_steps == [0]
    assert "no observations" in capfd.readouterr().err


@pytest.mark.parametrize("mode", ["exact_mask", "count_weighted"])
def test_diagonal_only_step_counts_as_unobserved(capfd, mode):
    # a sampled mask always observes the diagonal, which carries no edge
    adj, mask = _small_problem(5, n=20)
    mask = mask.copy()
    mask[0] = np.eye(20)
    mask[1] = 0.0
    h = Hyperparams(delta=0.0, inner_iters=2, outer_iters=2, gradient_mode=mode)
    _, hist = run_dgd(adj, mask, None, h, seed=0)
    assert hist.zero_observation_steps == [0, 1]
    assert "2 time steps carry no observations" in capfd.readouterr().err


@pytest.mark.parametrize("mode", ["exact_mask", "count_weighted"])
def test_diagonal_only_mask_aborts_with_history(mode):
    adj, mask = _small_problem(6)
    diagonal = np.broadcast_to(np.eye(mask.shape[1]), mask.shape)
    with pytest.raises(NumericalAbort, match="off the diagonal") as excinfo:
        run_dgd(adj, diagonal, None, Hyperparams(delta=0.0, gradient_mode=mode), seed=0)
    assert excinfo.value.history.status == "aborted"
    assert excinfo.value.history.zero_observation_steps == list(range(len(mask)))


def test_all_unobserved_aborts_with_history():
    adj, mask = _small_problem(6)
    with pytest.raises(NumericalAbort) as excinfo:
        run_dgd(adj, np.zeros_like(mask), None, Hyperparams(delta=0.0), seed=0)
    assert excinfo.value.history.status == "aborted"
    assert excinfo.value.history.breakdowns == []


def test_nonfinite_data_aborts_with_partial_history():
    # finite, but its square overflows the signature step's curvature bound;
    # the abort is the only report, with no numpy overflow warning before it
    adj, mask = _small_problem(7)
    adj = adj.copy()
    adj[0, 0, 1] = adj[0, 1, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalAbort, match="curvature bound overflowed") as excinfo:
            run_dgd(adj, mask, None, Hyperparams(delta=0.0, outer_iters=3), seed=0)
    assert excinfo.value.history.status == "aborted"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_input_names_the_entry(bad):
    adj, mask = _small_problem(7)
    adj = adj.copy()
    adj[2, 3, 1] = adj[2, 1, 3] = bad
    with pytest.raises(ValueError, match=r"adjacency entry \(t, i, j\) = \(2, 1, 3\)"):
        run_dgd(adj, mask, None, Hyperparams(delta=0.0), seed=0)
    adj, mask = _small_problem(7)
    signals = np.zeros((6, 6, 2))
    signals[4, 0, 1] = bad
    with pytest.raises(ValueError, match=r"signal entry \(t, i, q\) = \(4, 0, 1\)"):
        run_dgd(adj, mask, signals, Hyperparams(delta=0.1), seed=0)


def test_delta_requires_signals():
    adj, mask = _small_problem(8)
    with pytest.raises(ValueError, match="signals"):
        run_dgd(adj, mask, None, Hyperparams(delta=0.1), seed=0)
    with pytest.raises(ValueError):
        run_dgd(adj, mask, np.zeros((2, 2, 2)), Hyperparams(delta=0.1), seed=0)


class _CountingStack:
    """A slice stack that counts the slices read from it."""

    def __init__(self, array):
        self.array, self.shape, self.reads = array, array.shape, 0

    def __getitem__(self, t):
        self.reads += 1
        return self.array[t]


@pytest.mark.parametrize("signals", [None, np.zeros((8, 4, 2)), np.zeros((7, 5, 2))])
def test_signals_are_checked_before_any_slice_is_read(signals):
    adj, mask = _small_problem(8, t=8, n=5)
    adj, mask = _CountingStack(adj), _CountingStack(mask)
    with pytest.raises(ValueError, match="signals"):
        run_dgd(adj, mask, signals, Hyperparams(delta=0.1), seed=0)
    assert (adj.reads, mask.reads) == (0, 0)


def test_input_shape_validation():
    with pytest.raises(ValueError):
        run_dgd(np.zeros((3, 4, 5)), np.zeros((3, 4, 5)), None, Hyperparams(delta=0.0), 0)
    with pytest.raises(ValueError):
        run_dgd(np.zeros((3, 4, 4)), np.zeros((2, 4, 4)), None, Hyperparams(delta=0.0), 0)
    with pytest.raises(ValueError, match="0 or 1"):
        run_dgd(np.zeros((2, 3, 3)), np.full((2, 3, 3), 0.5), None, Hyperparams(delta=0.0), 0)


def test_diverging_iterate_names_block_step_and_magnitude(monkeypatch):
    # a finite bound but a huge step: the first A step overshoots to
    # negative entries that S_A clips to 0, and the second leaves float64
    monkeypatch.setattr(admm_a, "default_step_a", lambda *args: 1e308)
    adj, mask = _small_problem(7)
    h = Hyperparams(delta=0.0, outer_iters=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalAbort) as excinfo:
            run_dgd(adj, mask, None, h, seed=0)
    msg = str(excinfo.value)
    found = re.fullmatch(
        r"latent 0: iterate went non-finite at inner step (\d+) of 20 "
        r"\(step 1\.000e\+308; last finite iterate max \|x\| = (\S+)\)",
        msg,
    )
    assert found, msg
    assert found.group(1) == "2"
    assert float(found.group(2)) == 0.0
    assert excinfo.value.history.status == "aborted"


@pytest.mark.parametrize("mode", ["exact_mask", "count_weighted"])
def test_outer_iteration_allocates_less_than_one_stack(mode):
    # numpy allocations are traced: after set-up, the statistics, the solves
    # and the objective of one pass hold O(R^2 N^2 + T N), not a (T, N, N) stack
    rng = np.random.default_rng(13)
    t, n = 40, 64
    mask = (rng.random((t, n, n)) < 0.6).astype(np.float64)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    h = Hyperparams(delta=0.01, inner_iters=3, gradient_mode=mode)
    fit = FitData.build(rng.random((t, n, n)), mask, h)
    cache = build_cache(rng.standard_normal((t, n, 4)))
    step_rng = np.random.default_rng(0)
    d = initialize(step_rng, n, t, h.n_latents)
    tracemalloc.start()
    try:
        outer_iteration(d, fit, cache, h, step_rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * t * n * n, peak
