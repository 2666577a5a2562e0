"""Acceptance gate: eleven pinned criteria, one verdict line each.

Every criterion prints "criterion NN <name>: PASS|FAIL" before asserting, so
the log always carries a full scoreboard. Data, masks, solver settings and
seeds are frozen; the tolerances are part of the contract and must not be
loosened to make a failing criterion pass.
"""

import time

import numpy as np
import pytest

from dgd.admm_a import build_a_workspace, grad_a_lagrangian
from dgd.admm_c import build_c_workspace, grad_c_lagrangian
from dgd.baselines import METHODS, nsdgd, unc_solve
from dgd.datagen import SwDynSpec, sample_mask, swdyn
from dgd.driver import run_dgd
from dgd.evaluation import (
    UndefinedMetricError,
    complement_mask,
    component_analysis,
    default_edge_threshold,
    edge_scores,
    relative_error,
    sweep,
)
from dgd.io_dgt import load_dgt, save_dgt
from dgd.model import Hyperparams, project_sa, reconstruct

from helpers import (
    a_lagrangian_value,
    c_lagrangian_value,
    central_diff,
    corr_after_match,
    random_instance,
    rel_grad_error,
    set_cpus,
)


def _verdict(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _holdout_re(d, truth_tensor, mask):
    return relative_error(reconstruct(d), truth_tensor, complement_mask(mask))


def _swdyn_case(data_seed, frac, mask_seed, noise_sigma=0.0):
    adj, signals, truth = swdyn(SwDynSpec(seed=data_seed, noise_sigma=noise_sigma))
    mask = sample_mask(40, 50, frac, mask_seed)
    return adj, signals, reconstruct(truth), mask


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        mode = "exact_mask" if trial % 2 == 0 else "count_weighted"
        rng, d, fit, cache, h = random_instance(100 + trial, mode)
        r = trial % d.n_latents

        ws_a = build_a_workspace(d, r, h, rng=rng)
        a = rng.standard_normal((d.n_nodes, d.n_nodes))
        g_a = grad_a_lagrangian(a, ws_a, d, fit, cache, h)
        fd_a = central_diff(lambda x: a_lagrangian_value(x, ws_a, d, fit, cache, h), a)
        worst = max(worst, rel_grad_error(g_a, fd_a))

        ws_c = build_c_workspace(d.latents, d.n_steps, h, rng=rng)
        c = rng.standard_normal((d.n_steps, d.n_latents))
        g_c = grad_c_lagrangian(c, ws_c, d.latents, fit, cache, h)
        fd_c = central_diff(lambda x: c_lagrangian_value(x, ws_c, d.latents, fit, cache, h), c)
        worst = max(worst, rel_grad_error(g_c, fd_c))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    assert _verdict(1, f"gradient vs finite differences (worst {worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_02_hessian_structure():
    # count_weighted A-gradient is affine with an identity-scaled linear part;
    # the coupling is switched off by a vanishing penalty weight
    rng, d, fit, cache, h = random_instance(200, "count_weighted")
    h = h.replace(lambda_a=1e-12)
    ws = build_a_workspace(d, 0, h, rng=rng)
    coef = float(d.signatures[:, 0] ** 2 @ fit.slice_max) + h.eta
    a1 = rng.standard_normal((d.n_nodes, d.n_nodes))
    a2 = rng.standard_normal((d.n_nodes, d.n_nodes))
    diff_g = grad_a_lagrangian(a2, ws, d, fit, cache, h) - grad_a_lagrangian(
        a1, ws, d, fit, cache, h
    )
    identity_err = float(
        np.linalg.norm(diff_g - coef * (a2 - a1)) / max(np.linalg.norm(coef * (a2 - a1)), 1.0)
    )

    rng2, d2, fit2, cache2, h2 = random_instance(201, "exact_mask")
    ws_c = build_c_workspace(d2.latents, d2.n_steps, h2, rng=rng2)
    c = rng2.standard_normal((d2.n_steps, d2.n_latents))
    f0 = c_lagrangian_value(c, ws_c, d2.latents, fit2, cache2, h2)
    s = 1e-3
    min_quotient = np.inf
    for _ in range(50):
        v = rng2.standard_normal(c.shape)
        v /= np.linalg.norm(v)
        fp = c_lagrangian_value(c + s * v, ws_c, d2.latents, fit2, cache2, h2)
        fm = c_lagrangian_value(c - s * v, ws_c, d2.latents, fit2, cache2, h2)
        min_quotient = min(min_quotient, (fp + fm - 2.0 * f0) / s**2)
    ok = identity_err < 1e-10 and min_quotient >= h2.rho - 1e-8
    assert _verdict(
        2, f"hessian structure (identity err {identity_err:.1e}, rayleigh {min_quotient:.2f})", ok
    )


def test_criterion_03_projection_exactness():
    rng = np.random.default_rng(300)
    ok = True
    for _ in range(50):
        x = 4.0 * rng.standard_normal((6, 6))
        p = project_sa(x)
        if not np.array_equal(project_sa(p), p):
            ok = False
        dist = np.linalg.norm(x - p)
        for _ in range(100):
            y = project_sa(p + rng.standard_normal((6, 6)) * rng.choice([0.01, 0.1, 1.0, 5.0]))
            if dist > np.linalg.norm(x - y) + 1e-12:
                ok = False
    assert _verdict(3, "projection beats feasible competitors, idempotent", ok)


def test_criterion_04_monotone_convergence():
    t0 = time.perf_counter()
    adj, signals, _, mask = _swdyn_case(data_seed=11, frac=0.9, mask_seed=5)
    h = Hyperparams(gradient_mode="exact_mask", inner_iters=120, outer_iters=30, delta=1e-3)
    _, hist = run_dgd(adj, mask, signals, h, seed=0)
    totals = np.array(hist.totals)
    upticks = np.diff(totals) > 1e-6 * np.abs(totals[:-1])
    ratio = totals[-1] / totals[0]
    elapsed = time.perf_counter() - t0
    ok = not upticks.any() and ratio < 0.1 and elapsed < 120.0
    assert _verdict(
        4, f"monotone trace (upticks {int(upticks.sum())}, ratio {ratio:.3f}, {elapsed:.0f}s)", ok
    )


def test_criterion_05_planted_model_recovery():
    spec = SwDynSpec(n_nodes=20, n_steps=30, n_signals=60, seed=4)
    adj, signals, truth = swdyn(spec)
    mask = np.ones_like(adj)
    h = Hyperparams(
        gamma=1e-4, delta=1e-5, beta=1e-4, mu=1e-4, rho=1e-4, zeta=0.01,
        inner_iters=20, outer_iters=60, tol_outer=1e-8,
    )
    d, _ = run_dgd(adj, mask, signals, h, seed=1)
    recon = reconstruct(d)
    re_full = float(np.sum((recon - adj) ** 2) / np.sum(adj**2))
    cors = corr_after_match(d.signatures, truth.signatures)
    ok = re_full < 1e-2 and min(cors) > 0.95
    assert _verdict(
        5, f"planted recovery (RE {re_full:.1e}, correlations {[round(c, 3) for c in cors]})", ok
    )


def test_criterion_06_rank_sweep_shape():
    res = {1: [], 2: [], 3: []}
    for s in range(5):
        adj, signals, truth_tensor, mask = _swdyn_case(s, 0.9, 1000 + s)
        for r in (1, 2, 3):
            h = Hyperparams(
                n_latents=r, gradient_mode="exact_mask", inner_iters=20, outer_iters=50,
                delta=1e-3, beta=0.2, rho=0.05,
            )
            d, _ = run_dgd(adj, mask, signals, h, seed=s)
            res[r].append(_holdout_re(d, truth_tensor, mask))
    re1, re2, re3 = (float(np.mean(res[r])) for r in (1, 2, 3))
    ok = re2 < 0.5 * re1 and abs(re3 - re2) < 0.2 * re2
    assert _verdict(6, f"rank sweep shape (RE {re1:.3f} / {re2:.3f} / {re3:.3f})", ok)


def test_criterion_07_signal_benefit():
    means = {}
    for frac in (0.2, 0.9):
        dgd_res, ns_res = [], []
        for s in range(5):
            adj, signals, truth_tensor, mask = _swdyn_case(s, frac, 1000 + s)
            h = Hyperparams(
                gradient_mode="exact_mask", inner_iters=20, outer_iters=50, delta=1e-3
            )
            d, _ = run_dgd(adj, mask, signals, h, seed=s)
            dgd_res.append(_holdout_re(d, truth_tensor, mask))
            dn, _ = nsdgd(adj, mask, signals, h, seed=s)
            ns_res.append(_holdout_re(dn, truth_tensor, mask))
        means[frac] = (float(np.mean(dgd_res)), float(np.mean(ns_res)))
    low_ok = means[0.2][0] <= means[0.2][1]
    high_ok = abs(means[0.9][0] - means[0.9][1]) < 0.1 * means[0.9][1]
    ok = low_ok and high_ok
    assert _verdict(
        7,
        "signal benefit (20%: {:.4f} vs {:.4f}; 90%: {:.4f} vs {:.4f})".format(
            *means[0.2], *means[0.9]
        ),
        ok,
    )


def test_criterion_08_baseline_ordering():
    # noisy observations at 20% coverage: the unconstrained fit overfits what
    # it sees while the constrained solver stays near the planted model
    h = Hyperparams(gradient_mode="exact_mask", inner_iters=40, outer_iters=80, delta=1e-3)
    unc_worse, cpd_worse = [], []
    for s in range(5):
        adj, signals, truth_tensor, mask = _swdyn_case(s, 0.2, 1000 + s, noise_sigma=0.4)
        holdout = complement_mask(mask)
        d, _ = run_dgd(adj, mask, signals, h, seed=s)
        re_dgd = relative_error(reconstruct(d), truth_tensor, holdout)
        du, _ = unc_solve(adj, mask, n_latents=2, seed=s)
        re_unc = relative_error(reconstruct(du), truth_tensor, holdout)
        re_cpd = relative_error(
            reconstruct(METHODS["cpd"](adj, mask, signals, h, s)[0]), truth_tensor, holdout
        )
        unc_worse.append(re_unc > re_dgd)
        cpd_worse.append(re_cpd > re_dgd)
    ok = all(unc_worse) and all(cpd_worse)
    assert _verdict(
        8, f"baseline ordering (UNC worse {sum(unc_worse)}/5, CPD worse {sum(cpd_worse)}/5)", ok
    )


def test_criterion_09_component_analysis():
    adj, signals, truth_tensor, mask = _swdyn_case(7, 0.9, 1007)
    h = Hyperparams(n_latents=3)
    d, _ = run_dgd(adj, mask, signals, h, seed=7)
    report = component_analysis(d, truth_tensor, mask)
    ok = all(report.re < part for part in report.per_component_re)
    assert _verdict(
        9,
        "combined beats each component (RE {:.3f} vs {})".format(
            report.re, [round(p, 3) for p in report.per_component_re]
        ),
        ok,
    )


def test_criterion_10_metric_unit_suite():
    rng = np.random.default_rng(10)
    truth = np.abs(rng.standard_normal((3, 5, 5)))
    truth = 0.5 * (truth + truth.transpose(0, 2, 1))
    mask = (rng.random((3, 5, 5)) < 0.5).astype(float)
    mask = np.maximum(mask, mask.transpose(0, 2, 1))
    holdout = complement_mask(mask)
    checks = []
    checks.append(relative_error(truth, truth, holdout) == 0.0)
    checks.append(relative_error(np.zeros_like(truth), truth, holdout) == 1.0)
    checks.append(abs(relative_error(2 * truth, truth, holdout) - 1.0) < 1e-12)
    try:
        relative_error(truth, truth, np.zeros_like(truth))
        checks.append(False)
    except UndefinedMetricError:
        checks.append(True)
    checks.append(
        np.array_equal(complement_mask(complement_mask(mask)), mask)
        and not complement_mask(np.ones((1, 2, 2))).any()
    )
    flat_truth = np.zeros((1, 1, 4))
    flat_truth[0, 0, :2] = 1.0
    ones = np.ones_like(flat_truth)
    checks.append(edge_scores(flat_truth, flat_truth, ones, 0.5) == (1.0, 1.0, 1.0))
    checks.append(edge_scores(np.zeros_like(flat_truth), flat_truth, ones, 0.5) == (0.0, 0.0, 0.0))
    half = np.zeros_like(flat_truth)
    half[0, 0, 0] = half[0, 0, 2] = 1.0
    checks.append(edge_scores(half, flat_truth, ones, 0.5) == (0.5, 0.5, 0.5))
    obs_truth = np.zeros((1, 2, 2))
    obs_truth[0, 0, 1] = 1.0
    obs_truth[0, 1, 0] = 3.0
    checks.append(default_edge_threshold(obs_truth, np.ones_like(obs_truth)) == 1.0)
    ok = all(checks)
    assert _verdict(10, f"metric unit suite ({sum(checks)}/{len(checks)} exact)", ok)


def test_criterion_11_round_trip_and_determinism(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    ok = True
    for kind, shape in (
        ("adjacency", (4, 3, 3)),
        ("signals", (2, 3, 6)),
        ("signatures", (7, 2)),
    ):
        arr = rng.standard_normal(shape)
        save_dgt(tmp_path / f"{kind}.dgt", arr, kind)
        back, found = load_dgt(tmp_path / f"{kind}.dgt")
        ok = ok and found == kind and back.tobytes() == arr.tobytes()

    spec = SwDynSpec(n_nodes=8, n_steps=6, n_signals=4, seed=0)
    h = Hyperparams(inner_iters=2, outer_iters=2)
    # two sweeps through a pool of two workers, one with the cells in the caller
    with pytest.warns(RuntimeWarning, match="unc: ridged"):
        for name, cpus in (("s1.csv", {0, 1}), ("s2.csv", {0, 1}), ("s3.csv", {0})):
            set_cpus(monkeypatch, cpus)
            sweep("rank", [1, 2], spec, h, seed=3, repeats=2, out_path=tmp_path / name)
    sweeps = {(tmp_path / name).read_bytes() for name in ("s1.csv", "s2.csv", "s3.csv")}
    ok = ok and len(sweeps) == 1
    assert _verdict(11, "round trips bit-exact, sweeps byte-identical", ok)
