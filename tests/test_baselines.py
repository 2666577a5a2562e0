"""Comparison methods: masked ALS, signal-free solver, CPD."""

import itertools
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from dgd import baselines
from dgd.baselines import (
    METHODS,
    cpd_als,
    cpd_rank_for,
    cpd_to_decomposition,
    nsdgd,
    unc_solve,
)
from dgd.datagen import SwDynSpec, sample_mask, swdyn
from dgd.driver import run_dgd
from dgd.io_dgt import DgtSlices, save_dgt
from dgd.model import Hyperparams, NumericalAbort, ObjectiveBreakdown, reconstruct

from helpers import planted_decomposition


def test_unc_exact_on_planted_full_mask():
    d = planted_decomposition(0, n=7, t=9, r=2)
    adj = reconstruct(d)
    mask = np.ones_like(adj)
    est, fits = unc_solve(adj, mask, n_latents=2, iters=50, seed=0)
    assert fits[-1] < 1e-8
    assert np.allclose(reconstruct(est), adj, atol=1e-4)


def test_unc_reads_an_array_mask_in_place(tmp_path):
    # every mask form is weighed by the one bool pattern unpacked from the
    # rows FitData.build checked, to the same fit. Beyond the target, the
    # packed and unpacked pattern and one stack-sized temporary (the fit
    # buffer, or the pattern cast to float in the latent Grams), unc holds no
    # copy of the mask
    adj, _, _ = swdyn(SwDynSpec(n_nodes=40, n_steps=30, n_signals=2))
    mask = sample_mask(40, 30, 0.5, 1)
    unc_solve(adj, mask, 2, iters=1)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        est, fits = unc_solve(adj, mask, 2, iters=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * adj.nbytes
    save_dgt(tmp_path / "a.dgt", adj, "adjacency")
    save_dgt(tmp_path / "m.dgt", mask, "mask")
    with DgtSlices(tmp_path / "a.dgt") as a, DgtSlices(tmp_path / "m.dgt") as m:
        forms = {"bool": (adj, mask.astype(bool)), "list": (adj, mask.tolist()), "reader": (a, m)}
        for name, (adj_form, mask_form) in forms.items():
            got, got_fits = unc_solve(adj_form, mask_form, 2, iters=5)
            assert got_fits == fits, name
            assert got.latents.tobytes() == est.latents.tobytes(), name
            assert got.signatures.tobytes() == est.signatures.tobytes(), name


def test_unc_starts_from_column_major_draw():
    # with no iterations the start comes back: column r of the (N^2, R) draw
    # holds A_r stacked column by column, then C is drawn
    adj = np.zeros((3, 4, 4))
    est, fits = unc_solve(adj, np.ones_like(adj), n_latents=2, iters=0, seed=7)
    rng = np.random.default_rng(7)
    draw = rng.random((16, 2))
    assert fits == []
    for r in range(2):
        assert np.array_equal(est.latents[r], draw[:, r].reshape(4, 4, order="F"))
    assert np.array_equal(est.signatures, rng.random((3, 2)))


def test_unc_fit_non_increasing_per_half_step():
    rng = np.random.default_rng(1)
    adj = rng.random((6, 5, 5))
    mask = np.ones_like(adj)
    _, fits = unc_solve(adj, mask, n_latents=2, iters=30, seed=1)
    assert len(fits) == 60
    diffs = np.diff(fits)
    assert np.all(diffs <= 1e-9 * np.maximum(np.abs(fits[:-1]), 1.0))


def test_unc_leaves_the_feasible_set_on_random_data():
    rng = np.random.default_rng(2)
    adj = rng.standard_normal((5, 6, 6))
    est, _ = unc_solve(adj, np.ones_like(adj), n_latents=2, iters=20, seed=2)
    assert est.latents.min() < 0.0


def test_unc_warns_and_ridges_degenerate_blocks():
    d = planted_decomposition(3, n=4, t=3, r=1)
    adj = reconstruct(d)
    mask = np.ones_like(adj)
    mask[0] = 0.0
    with pytest.warns(RuntimeWarning, match="near-singular"):
        _, fits = unc_solve(adj, mask, n_latents=1, iters=5, seed=3)
    assert np.all(np.isfinite(fits))


def test_nsdgd_is_delta_zero_run_bit_for_bit():
    spec = SwDynSpec(n_nodes=8, n_steps=6, n_signals=5, seed=4)
    adj, signals, _ = swdyn(spec)
    mask = sample_mask(8, 6, 0.8, seed=44)
    h = Hyperparams(inner_iters=3, outer_iters=4, delta=0.5)
    d1, h1 = nsdgd(adj, mask, signals, h, seed=5)
    d2, h2 = run_dgd(adj, mask, None, h.replace(delta=0.0), seed=5)
    assert np.array_equal(d1.latents, d2.latents)
    assert np.array_equal(d1.signatures, d2.signatures)
    assert h1.totals == h2.totals
    assert all(b.smoothness == 0.0 for b in h1.breakdowns)


def test_cpd_rank_matches_parameter_count():
    # F (2N + T) ~ R (N(N-1)/2 + T), rounded, floored at 1
    assert cpd_rank_for(40, 50, 2) == 13
    assert cpd_rank_for(8, 6, 1) == 2
    assert cpd_rank_for(3, 100, 1) == 1


def test_cpd_recovers_planted_rank_one():
    rng = np.random.default_rng(6)
    u = rng.random(5) + 0.5
    v = rng.random(7) + 0.5
    tensor = 2.0 * np.einsum("i,j,t->tij", u, u, v)
    _, fits = cpd_als(tensor, rank=1, iters=60, seed=0)
    assert np.sqrt(2.0 * fits[-1]) < 1e-6


def test_cpd_fit_non_increasing():
    rng = np.random.default_rng(7)
    tensor = rng.random((6, 5, 5))
    _, fits = cpd_als(tensor, rank=3, iters=40, seed=1)
    diffs = np.diff(fits)
    assert np.all(diffs <= 1e-9 * np.maximum(np.abs(fits[:-1]), 1.0))


@pytest.mark.parametrize("kw,name", [({"n_latents": 0}, "n_latents"), ({"n_latents": 1.5}, "n_latents"),
                                     ({"iters": -1}, "iters")])
def test_unc_names_a_bad_count(kw, name):
    adj = reconstruct(planted_decomposition(0, n=4, t=3, r=1))
    args = {"n_latents": 1, **kw}
    with pytest.raises(ValueError, match=name):
        unc_solve(adj, np.ones_like(adj), **args)


@pytest.mark.parametrize("kw,name", [({"rank": 0}, "rank"), ({"rank": True}, "rank"),
                                     ({"iters": -1}, "iters"), ({"iters": 2.0}, "iters")])
def test_cpd_names_a_bad_count(kw, name):
    with pytest.raises(ValueError, match=name):
        cpd_als(np.ones((3, 4, 4)), **{"rank": 1, **kw})


def test_cpd_aborts_after_one_restart_on_overflow():
    tensor = np.full((3, 4, 4), 1e300)
    with pytest.raises(NumericalAbort):
        cpd_als(tensor, rank=2, iters=10, seed=0)


def test_cpd_restarts_once_from_the_next_seed(monkeypatch):
    x = np.random.default_rng(4).random((5, 6, 6))
    want = cpd_als(x, 3, iters=10, seed=8)
    real, calls = baselines._mttkrp_time, []

    def dies_once(*args):
        calls.append(1)
        out = real(*args)
        return out * np.nan if len(calls) == 3 else out

    monkeypatch.setattr(baselines, "_mttkrp_time", dies_once)
    (u, v, w), fits = cpd_als(x, 3, iters=10, seed=7)
    assert len(calls) == 3 + 10
    assert all(np.array_equal(a, b) for a, b in zip((u, v, w), want[0]))
    assert fits == want[1]


def test_cpd_to_decomposition_symmetrizes():
    rng = np.random.default_rng(8)
    for (n, t, f), as_list in itertools.product(
        [(5, 4, 2), (1, 1, 1), (7, 3, 1), (4, 6, 5)], (False, True)
    ):
        u = rng.random((n, f))
        v = rng.random((n, f))
        w = rng.random((t, f))
        d = cpd_to_decomposition(*([x.tolist() for x in (u, v, w)] if as_list else (u, v, w)))
        assert np.array_equal(d.latents, d.latents.transpose(0, 2, 1))
        # the two-product formula, byte for byte: u_f v_f' transposed is v_f u_f'
        two = 0.5 * (np.einsum("if,jf->fij", u, v) + np.einsum("if,jf->fij", v, u))
        assert d.latents.tobytes() == two.tobytes(), (n, t, f, as_list)
        assert d.signatures.tobytes() == w.tobytes()
        raw = np.einsum("if,jf,tf->tij", u, v, w)
        sym = 0.5 * (raw + raw.transpose(0, 2, 1))
        assert np.allclose(reconstruct(d), sym)


def test_method_registry_adapters_return_tensors():
    assert set(METHODS) == {"dgd", "nsdgd", "unc", "cpd"}
    spec = SwDynSpec(n_nodes=8, n_steps=6, n_signals=5, seed=9)
    adj, signals, _ = swdyn(spec)
    mask = sample_mask(8, 6, 0.9, seed=10)
    h = Hyperparams(inner_iters=2, outer_iters=2)
    for name, fn in METHODS.items():
        with pytest.warns(RuntimeWarning, match="unc: ridged") if name == "unc" else nullcontext():
            d, breakdowns = fn(adj, mask, signals, h, 0)
        est = reconstruct(d)
        assert est.shape == adj.shape, name
        assert np.all(np.isfinite(est)), name
        assert breakdowns and all(isinstance(b, ObjectiveBreakdown) for b in breakdowns), name
