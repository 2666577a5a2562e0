"""Held-out metrics, component analysis, sweep harness."""

import math
import os
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from dgd.baselines import METHODS
from dgd.datagen import SwDynSpec
from dgd.evaluation import (
    SWEEP_HEADER,
    UndefinedMetricError,
    complement_mask,
    component_analysis,
    default_edge_threshold,
    edge_scores,
    evaluate,
    relative_error,
    sweep,
    write_sweep_csv,
)
from dgd.model import Decomposition, Hyperparams, reconstruct

from helpers import planted_decomposition, set_cpus, symmetric_binary_mask


def _toy_truth(seed=0, t=3, n=4):
    d = planted_decomposition(seed, n=n, t=t, r=2)
    truth = reconstruct(d)
    mask = symmetric_binary_mask(seed + 1, t, n, frac=0.6)
    return truth, mask


def test_complement_is_involution_and_symmetric():
    mask = symmetric_binary_mask(0, 3, 5)
    comp = complement_mask(mask)
    assert np.array_equal(complement_mask(comp), mask)
    assert np.array_equal(comp, comp.transpose(0, 2, 1))
    assert np.array_equal(complement_mask(np.ones((2, 2, 2))), np.zeros((2, 2, 2)))
    assert np.array_equal(
        complement_mask(np.array([[[1.0, 0.0], [0.0, 1.0]]])),
        np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )


def test_relative_error_boundaries():
    truth, mask = _toy_truth()
    holdout = complement_mask(mask)
    assert relative_error(truth, truth, holdout) == 0.0
    assert relative_error(np.zeros_like(truth), truth, holdout) == 1.0
    assert np.isclose(relative_error(2.0 * truth, truth, holdout), 1.0)


def test_relative_error_ignores_observed_positions():
    truth, mask = _toy_truth(2)
    holdout = complement_mask(mask)
    est = truth * 0.5
    re1 = relative_error(est, truth, holdout)
    re2 = relative_error(est + 50.0 * mask, truth, holdout)
    assert re1 == re2


def test_relative_error_never_reads_observed_entries():
    # held-out entries are selected, not weighted: 0 * NaN would be NaN
    truth, mask = _toy_truth(2)
    holdout = complement_mask(mask)
    est = truth * 0.5
    poisoned = np.where(mask > 0, np.nan, truth)
    re = relative_error(est, truth, holdout)
    assert relative_error(est, poisoned, holdout) == re
    assert relative_error(np.where(mask > 0, np.inf, est), truth, holdout) == re


def test_relative_error_undefined_without_heldout_mass():
    truth, _ = _toy_truth(3)
    with pytest.raises(UndefinedMetricError):
        relative_error(truth, truth, complement_mask(np.ones_like(truth)))


def test_default_threshold_is_half_mean_positive_observed():
    truth = np.zeros((1, 2, 2))
    truth[0, 0, 1] = 1.0
    truth[0, 1, 0] = 3.0
    mask = np.ones_like(truth)
    assert default_edge_threshold(truth, mask) == 1.0
    with pytest.raises(UndefinedMetricError):
        default_edge_threshold(np.zeros((1, 2, 2)), mask)


def test_edge_scores_formula_cases():
    truth = np.zeros((1, 1, 4))
    truth[0, 0, :2] = 1.0
    holdout = np.ones_like(truth)

    precision, recall, f1 = edge_scores(truth, truth, holdout, threshold=0.5)
    assert (precision, recall, f1) == (1.0, 1.0, 1.0)

    precision, recall, f1 = edge_scores(np.zeros_like(truth), truth, holdout, 0.5)
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)

    # 4 held-out entries, 2 true edges; predict one hit and one false alarm
    est = np.zeros_like(truth)
    est[0, 0, 0] = 1.0
    est[0, 0, 2] = 1.0
    precision, recall, f1 = edge_scores(est, truth, holdout, 0.5)
    assert (precision, recall, f1) == (0.5, 0.5, 0.5)

    with pytest.raises(UndefinedMetricError):
        edge_scores(est, np.zeros_like(truth), holdout, 0.5)
    with pytest.raises(ValueError):
        edge_scores(est, truth, holdout, 0.0)


def test_f1_invariant_to_threshold_preserving_rescale():
    truth, mask = _toy_truth(4)
    holdout = complement_mask(mask)
    rng = np.random.default_rng(5)
    est = truth + 0.3 * rng.standard_normal(truth.shape)
    base = edge_scores(est, truth, holdout, 0.4)
    scaled = edge_scores(2.0 * est, truth, holdout, 0.8)
    assert base == scaled


def test_evaluate_combines_metrics():
    truth, mask = _toy_truth(6)
    # a threshold below every positive truth value makes the self-prediction perfect
    report = evaluate(truth, truth, mask, threshold=1e-12)
    assert report.re == 0.0
    assert report.f1 == report.precision == report.recall == 1.0
    assert evaluate(truth, truth, mask).threshold == default_edge_threshold(truth, mask)
    custom = evaluate(truth, truth, mask, threshold=0.123)
    assert custom.threshold == 0.123


def test_component_analysis_single_latent_matches_combined():
    d = planted_decomposition(7, n=5, t=4, r=1)
    truth = reconstruct(d)
    mask = symmetric_binary_mask(8, 4, 5, frac=0.5)
    report = component_analysis(d, truth, mask)
    assert len(report.per_component_re) == 1
    assert np.isclose(report.per_component_re[0], report.re)
    assert np.isclose(report.per_component_f1[0], report.f1)


def test_component_analysis_time_localized_components():
    # c_1 lives on the first half of time, c_2 on the second; on early slices
    # component 1 must explain the truth better than component 2
    rng = np.random.default_rng(9)
    n, t = 6, 8
    from dgd.model import project_sa

    latents = np.stack([project_sa(rng.random((n, n)) + 0.2) for _ in range(2)])
    signatures = np.zeros((t, 2))
    signatures[: t // 2, 0] = 1.0
    signatures[t // 2 :, 1] = 1.0
    d = Decomposition(latents, signatures)
    truth = reconstruct(d)
    holdout = complement_mask(symmetric_binary_mask(10, t, n, frac=0.5))
    early = slice(0, t // 2)
    part = [
        np.einsum("t,ij->tij", d.signatures[:, r], d.latents[r]) for r in range(2)
    ]
    re_early_1 = relative_error(part[0][early], truth[early], holdout[early])
    re_early_2 = relative_error(part[1][early], truth[early], holdout[early])
    assert re_early_1 < re_early_2


def _tiny_sweep_args():
    spec = SwDynSpec(n_nodes=8, n_steps=6, n_signals=4, seed=0)
    h = Hyperparams(inner_iters=2, outer_iters=2)
    return spec, h


def test_sweep_rank_grid_shapes_and_determinism(tmp_path):
    spec, h = _tiny_sweep_args()
    kwargs = dict(repeats=2, methods=("unc", "cpd"), observed_frac=0.8)
    with pytest.warns(RuntimeWarning, match="unc: ridged"):
        rows1 = sweep("rank", [1, 2], spec, h, seed=3, out_path=tmp_path / "a.csv", **kwargs)
        rows2 = sweep("rank", [1, 2], spec, h, seed=3, out_path=tmp_path / "b.csv", **kwargs)
    assert len(rows1) == 2 * 2 * 2
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    first = (tmp_path / "a.csv").read_bytes().split(b"\n", 1)[0]
    assert first == SWEEP_HEADER.encode()
    params = sorted({row["param"] for row in rows1})
    assert params == [1, 2]
    assert all(row["seconds"] == 0.0 for row in rows1)


def test_sweep_full_observation_rows_are_nan():
    spec, h = _tiny_sweep_args()
    with pytest.warns(RuntimeWarning, match="unc: ridged"):
        rows = sweep("observed", [1.0, 0.6], spec, h, seed=1, repeats=1, methods=("unc",))
    by_param = {row["param"]: row for row in rows}
    assert math.isnan(by_param[1.0]["re"])
    assert math.isnan(by_param[1.0]["f1"])
    assert not math.isnan(by_param[0.6]["re"])


def test_sweep_rejects_bad_arguments():
    spec, h = _tiny_sweep_args()
    with pytest.raises(ValueError):
        sweep("bogus", [1], spec, h, seed=0)
    with pytest.raises(ValueError):
        sweep("rank", [1], spec, h, seed=0, methods=("nope",))
    with pytest.raises(ValueError):
        sweep("observed", [0.0], spec, h, seed=0, repeats=1, methods=("unc",))


def test_sweep_timing_records_wall_clock(monkeypatch):
    spec, h = _tiny_sweep_args()
    for cpus in ({0, 1}, {0}):
        set_cpus(monkeypatch, cpus)
        rows = sweep("rank", [1, 2], spec, h, seed=2, repeats=1, methods=("nsdgd", "cpd"), timing=True)
        assert len(rows) == 4
        assert all(row["seconds"] > 0.0 for row in rows)


def _sweep_both_kinds(tmp_path, tag):
    """Both sweep kinds with all four methods; the CSV bytes and the warnings emitted."""
    spec, h = _tiny_sweep_args()
    csvs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for kind, grid in (("rank", [1, 2]), ("observed", [0.6, 0.9])):
            path = tmp_path / f"{tag}_{kind}.csv"
            sweep(kind, grid, spec, h, seed=3, repeats=2, observed_frac=0.8, out_path=path)
            csvs.append(path.read_bytes())
    return csvs, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def test_sweep_csv_and_warnings_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    set_cpus(monkeypatch, {0, 1})
    pooled = _sweep_both_kinds(tmp_path, "pool")
    set_cpus(monkeypatch, {0})
    serial = _sweep_both_kinds(tmp_path, "one_cpu")
    assert pooled == serial
    assert any("unc: ridged" in w[0] for w in serial[1])
    for csv in serial[0]:
        methods = {line.split(b",")[0] for line in csv.splitlines()[1:]}
        assert methods == {b"dgd", b"nsdgd", b"unc", b"cpd"}


def test_sweep_cell_error_reaches_the_caller(monkeypatch):
    spec, h = _tiny_sweep_args()
    for cpus in ({0, 1}, {0}):
        set_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="^n_latents must be >= 1, got 0$"):
            sweep("rank", [1, 0], spec, h, seed=0, repeats=1, methods=("nsdgd", "cpd"))


def test_sweep_worker_that_dies_raises_instead_of_hanging(monkeypatch):
    set_cpus(monkeypatch, {0, 1})
    caller = os.getpid()

    def die(*args):
        if os.getpid() == caller:
            raise AssertionError("the cell ran in the caller, not in a worker")
        os._exit(3)

    monkeypatch.setitem(METHODS, "cpd", die)
    spec, h = _tiny_sweep_args()
    with pytest.raises(BrokenProcessPool):
        sweep("observed", [0.6, 0.9], spec, h, seed=0, repeats=1, methods=("cpd",))


def test_write_sweep_csv_uses_lf_only(tmp_path):
    rows = [
        {
            "method": "unc",
            "param": 2,
            "seed": 5,
            "re": 0.25,
            "f1": 1.0,
            "precision": 1.0,
            "recall": 1.0,
            "seconds": 0.0,
        }
    ]
    path = tmp_path / "rows.csv"
    write_sweep_csv(rows, path)
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[1] == "unc,2,5,0.25,1.0,1.0,1.0,0.0"
