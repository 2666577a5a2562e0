"""Held-out metrics, component analysis, sweep harness."""

import dataclasses
import math
import os
import re
import threading
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgd.baselines import METHODS
from dgd import datagen
from dgd.datagen import SwDynSpec, sample_mask, swdyn
from dgd.driver import run_dgd
from dgd.evaluation import (
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
from dgd.model import Decomposition, Hyperparams, NumericalAbort, reconstruct

from helpers import planted_decomposition, set_cpus, symmetric_binary_mask

# the file format, written out: evaluation derives its header from SWEEP_COLUMNS
SWEEP_LINE = "method,param,seed,re,f1,precision,recall,seconds"


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_held_out_scores_match_the_plain_formulas(data):
    shape = data.draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=4))
    values = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0)
    truth = data.draw(hnp.arrays(np.float64, shape, elements=values))
    est = data.draw(hnp.arrays(np.float64, shape, elements=values))
    held = data.draw(hnp.arrays(np.bool_, shape))
    if data.draw(st.booleans(), label="float holdout"):
        # any float above 0 holds an entry out, 0 or below keeps it observed
        holdout = np.where(held, data.draw(st.floats(0.25, 2.0)), data.draw(st.sampled_from([0.0, -1.0])))
    else:
        holdout = held
    mask = (~held).astype(np.float64)
    # whatever lies outside the holdout is never read
    poison = data.draw(hnp.arrays(np.float64, shape, elements=st.sampled_from([np.nan, np.inf, -np.inf])))
    truth[~held] = poison[~held]
    est[~held] = poison[::-1][~held]
    # thresholds equal to some entries, so that > and >= differ
    threshold = data.draw(st.sampled_from([0.5, 1.0]) | st.floats(0.1, 2.0))

    pairs = [(e, t) for e, t, h in zip(est.flat, truth.flat, held.flat) if h]
    norm = math.fsum(t * t for _, t in pairs)
    n_real = sum(t > 0 for _, t in pairs)
    n_pred = sum(e > threshold for e, _ in pairs)
    tp = sum(t > 0 and e > threshold for e, t in pairs)
    if norm == 0.0:
        match = "zero norm" if pairs else "nothing is held out"
        with pytest.raises(UndefinedMetricError, match=match):
            relative_error(est, truth, holdout)
    else:
        want = math.fsum((e - t) ** 2 for e, t in pairs) / norm
        assert math.isclose(relative_error(est, truth, holdout), want, rel_tol=1e-12)
    if n_real == 0:
        with pytest.raises(UndefinedMetricError, match="no truth edges"):
            edge_scores(est, truth, holdout, threshold)
        return
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_real
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    assert edge_scores(est, truth, holdout, threshold) == (precision, recall, f1)


def _outcome(score):
    """score()'s result, or the type and message of the ValueError it raised."""
    try:
        return score()
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_scores_the_complement_of_its_mask(data):
    # on a binary symmetric mask and a finite truth, evaluate scores what
    # relative_error and edge_scores score on the complement, undefined
    # metrics included; the estimate is read at held-out entries only
    t, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    values = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0)
    truth = data.draw(hnp.arrays(np.float64, (t, n, n), elements=values))
    est = data.draw(hnp.arrays(np.float64, (t, n, n), elements=values))
    upper = np.triu(data.draw(hnp.arrays(np.bool_, (t, n, n))))
    seen = upper | upper.transpose(0, 2, 1)
    mask = seen.astype(np.float64)
    est[seen] = np.nan
    holdout = complement_mask(mask)
    threshold = data.draw(st.none() | st.sampled_from([0.5, 1.0]) | st.floats(0.1, 2.0))

    def scores():
        thr = default_edge_threshold(truth, mask) if threshold is None else threshold
        re = relative_error(est, truth, holdout)
        precision, recall, f1 = edge_scores(est, truth, holdout, thr)
        return re, f1, precision, recall, thr

    got = _outcome(lambda: dataclasses.astuple(evaluate(est, truth, mask, threshold))[:5])
    assert got == _outcome(scores)


def test_estimate_of_another_shape_names_both_shapes():
    truth, mask = _toy_truth()
    holdout = complement_mask(mask)
    est = np.zeros((3, 4, 5))
    match = r"^estimate is \(3, 4, 5\) but truth is \(3, 4, 4\)$"
    with pytest.raises(ValueError, match=match):
        relative_error(est, truth, holdout)
    with pytest.raises(ValueError, match=match):
        edge_scores(est, truth, holdout, 0.5)
    with pytest.raises(ValueError, match=match):
        evaluate(est, truth, mask, threshold=0.5)


@pytest.mark.parametrize("score", ["relative_error", "edge_scores", "evaluate"])
@pytest.mark.parametrize(
    "truth_shape,holdout_shape", [((2, 3, 3), (2, 3, 4)), ((3, 3, 3), (3, 3))], ids=["wider", "2d"]
)
def test_holdout_of_another_shape_names_both_shapes(score, truth_shape, holdout_shape):
    # a (3, 3) holdout would otherwise select along the first two axes and score RE 1.0
    truth, holdout = np.ones(truth_shape), np.ones(holdout_shape)
    calls = {
        "relative_error": lambda: relative_error(truth, truth, holdout),
        "edge_scores": lambda: edge_scores(truth, truth, holdout, 0.5),
        "evaluate": lambda: evaluate(truth, truth, 1.0 - holdout, threshold=0.5),
    }
    # evaluate takes the mask, whose complement is the holdout
    noun = "mask" if score == "evaluate" else "holdout"
    match = rf"^{noun} is {re.escape(str(holdout_shape))} but truth is {re.escape(str(truth_shape))}$"
    with pytest.raises(ValueError, match=match):
        calls[score]()


def test_default_threshold_of_another_shape_names_both_shapes():
    # a (3, 3) mask would otherwise broadcast against the stack
    match = r"^mask is \(3, 3\) but truth is \(3, 3, 3\)$"
    with pytest.raises(ValueError, match=match):
        default_edge_threshold(np.ones((3, 3, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError, match=match):
        evaluate(np.ones((3, 3, 3)), np.ones((3, 3, 3)), np.zeros((3, 3)))


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
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="threshold must be"):
            edge_scores(est, truth, holdout, bad)


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


@pytest.mark.parametrize(
    "case,match",
    [
        ("half", r"^mask entries must be 0 or 1 \(slice 1\)$"),
        ("nan", r"^mask entries must be 0 or 1 \(slice 1\)$"),
        ("asymmetric", r"^mask slices must be symmetric \(slice 1\)$"),
        ("observed_truth_nan", r"^truth entry \(t, i, j\) = \(0, 0, 1\) is not finite: nan$"),
        ("flat", r"^truth must be \(T, N, N\), got \(4, 36\)$"),
    ],
    ids=["half", "nan", "asymmetric", "observed_truth_nan", "flat"],
)
def test_evaluate_checks_mask_and_truth_like_component_analysis(case, match):
    # a 0.5 entry used to count as observed for the default threshold and as
    # held out for the scores, and a NaN observed truth ended in "no positive
    # observed truth entries"; both functions now raise the same ValueError
    d = planted_decomposition(6, n=6, t=4, r=2)
    truth = reconstruct(d)
    mask = np.zeros_like(truth)
    mask[:, 0, 1] = mask[:, 1, 0] = 1.0
    if case == "half":
        mask[1, 2, 3] = mask[1, 3, 2] = 0.5
    elif case == "nan":
        mask[1, 2, 3] = mask[1, 3, 2] = np.nan
    elif case == "asymmetric":
        mask[1, 2, 3] = 1.0
    elif case == "observed_truth_nan":
        truth = np.where(mask > 0, np.nan, truth)
    else:
        truth, mask = truth.reshape(4, -1), mask.reshape(4, -1)
    for score in (lambda: evaluate(truth, truth, mask), lambda: component_analysis(d, truth, mask)):
        with pytest.raises(ValueError, match=match) as err:
            score()
        assert err.type is ValueError


def test_component_analysis_single_latent_matches_combined():
    d = planted_decomposition(7, n=5, t=4, r=1)
    truth = reconstruct(d)
    mask = symmetric_binary_mask(8, 4, 5, frac=0.5)
    report = component_analysis(d, truth, mask)
    assert len(report.per_component_re) == 1
    assert np.isclose(report.per_component_re[0], report.re)
    assert np.isclose(report.per_component_f1[0], report.f1)


def _plain_scores(est, truth, held, threshold):
    """(re, f1, precision, recall) of est on the boolean selection held."""
    x, y = est[held], truth[held]
    re = float(np.sum(np.square(x - y))) / float(np.sum(np.square(y)))
    pred, edges = x > threshold, y > 0
    tp, n_pred, n_real = int((pred & edges).sum()), int(pred.sum()), int(edges.sum())
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_real
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return re, f1, precision, recall


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_component_analysis_matches_the_plain_formula_bytes(data):
    t = data.draw(st.integers(1, 4), label="t")
    n = data.draw(st.integers(1, 5), label="n")
    r = data.draw(st.integers(1, 3), label="r")
    values = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0)
    latents = data.draw(hnp.arrays(np.float64, (r, n, n), elements=values))
    signatures = data.draw(hnp.arrays(np.float64, (t, r), elements=values))
    truth = data.draw(hnp.arrays(np.float64, (t, n, n), elements=values))
    upper = np.triu(data.draw(hnp.arrays(np.bool_, (t, n, n))))
    mask = (upper | upper.transpose(0, 2, 1)).astype(np.float64)
    kind = data.draw(st.sampled_from(["random", "observed slices", "full holdout"]))
    if kind == "observed slices":
        # slices with nothing held out leave empty runs between the others
        mask[data.draw(hnp.arrays(np.bool_, (t,)))] = 1.0
    elif kind == "full holdout":
        mask[:] = 0.0
    threshold = data.draw(st.sampled_from([0.5, 1.0]) | st.floats(0.1, 2.0))
    d = Decomposition(latents, signatures)

    held = mask < 1.0
    y = truth[held]
    if np.sum(np.square(y)) == 0.0 or not np.any(y > 0):
        # RE is checked first, then the edges
        match = "zero norm" if np.sum(np.square(y)) == 0.0 else "no truth edges"
        if y.size == 0:
            match = "nothing is held out"
        with pytest.raises(UndefinedMetricError, match=match):
            component_analysis(d, truth, mask, threshold)
        return
    re, f1, precision, recall = _plain_scores(np.einsum("tr,rij->tij", signatures, latents),
                                              truth, held, threshold)
    parts = [_plain_scores(np.einsum("t,ij->tij", signatures[:, k], latents[k]), truth, held, threshold)
             for k in range(r)]
    want = {
        "re": re, "f1": f1, "precision": precision, "recall": recall, "threshold": threshold,
        "per_component_re": [p[0] for p in parts], "per_component_f1": [p[1] for p in parts],
    }
    got = dataclasses.asdict(component_analysis(d, truth, mask, threshold))
    assert repr(got) == repr(want)


def test_component_analysis_holds_no_component_stack():
    # about half the entries held out. Beyond the inputs, the combined
    # reconstruction (one stack), the held-out positions (int32) and a few
    # vectors of the held-out entries (truth, estimate, difference) come to
    # 2.8 stacks; a full (T, N, N) tensor per component beside them reaches 3.7
    t, n = 10, 80
    d = planted_decomposition(3, n=n, t=t, r=2)
    truth = reconstruct(d) + 0.01
    mask = symmetric_binary_mask(4, t, n, frac=0.3)
    component_analysis(d, truth, mask)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        component_analysis(d, truth, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * truth.nbytes


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
    assert first == SWEEP_LINE.encode()
    params = sorted({row["param"] for row in rows1})
    assert params == [1, 2]
    assert all(row["seconds"] == 0.0 for row in rows1)


def test_sweep_full_observation_rows_are_nan():
    spec, h = _tiny_sweep_args()
    with pytest.warns(RuntimeWarning, match="unc: ridged"), \
            pytest.warns(UserWarning, match="^sweep cell 1.0, seed 1: no method scored: "
                                            "nothing is held out"):
        rows = sweep("observed", [1.0, 0.6], spec, h, seed=1, repeats=1, methods=("unc",))
    by_param = {row["param"]: row for row in rows}
    assert math.isnan(by_param[1.0]["re"])
    assert math.isnan(by_param[1.0]["f1"])
    assert not math.isnan(by_param[0.6]["re"])


def test_sweep_fits_nothing_in_a_cell_that_cannot_be_scored(monkeypatch):
    # at full observation nothing is held out: the 1.0 cell warns before any
    # fit, and only the 0.6 cell calls the method
    set_cpus(monkeypatch, {0})
    calls, fit = [], METHODS["unc"]

    def counted(*args):
        calls.append(args[-1])
        return fit(*args)

    monkeypatch.setitem(METHODS, "unc", counted)
    spec, h = _tiny_sweep_args()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = sweep("observed", [1.0, 0.6], spec, h, seed=1, repeats=1, methods=("unc",))
    assert len(calls) == 1
    assert [str(w.message) for w in caught if w.category is UserWarning] == [
        "sweep cell 1.0, seed 1: no method scored: nothing is held out; RE is undefined"
    ]
    assert math.isnan(rows[0]["re"]) and not math.isnan(rows[1]["re"])


def test_sweep_cell_without_a_threshold_keeps_nan_rows():
    # at 0.01 the mask observes no positive truth entry, so the cell has no
    # default edge threshold; its row is NaN, it says why, and the sweep goes on
    spec, h = SwDynSpec(n_nodes=8, n_steps=3, n_signals=4), Hyperparams(outer_iters=2)
    with pytest.warns(UserWarning) as record:
        rows = sweep("observed", [0.01, 0.9], spec, h, 0, repeats=1, methods=("cpd",))
    assert [str(w.message) for w in record] == [
        "sweep cell 0.01, seed 0: no method scored: "
        "no positive observed truth entries to set a threshold",
        # at 0.9 every held-out truth entry is zero
        "sweep cell 0.9, seed 0: no method scored: "
        "held-out truth has zero norm; RE is undefined",
    ]
    assert [row["param"] for row in rows] == [0.01, 0.9]
    for metric in ("re", "f1", "precision", "recall"):
        assert math.isnan(rows[0][metric])
    # a later cell with a threshold is still scored
    with pytest.warns(UserWarning, match=r"^sweep cell 0\.01, seed 0: no method scored"):
        rows = sweep("observed", [0.01, 0.5], spec, h, 0, repeats=1, methods=("cpd",))
    assert math.isnan(rows[0]["re"]) and not math.isnan(rows[1]["re"])


def test_sweep_cell_whose_method_fails_warns_why(monkeypatch):
    def boom(*args):
        raise NumericalAbort("boom")

    monkeypatch.setitem(METHODS, "cpd", boom)
    spec, h = _tiny_sweep_args()
    want = [f"sweep cell {frac}, seed {s}: cpd failed: NumericalAbort: boom"
            for frac in (0.6, 0.9) for s in (0, 1)]
    for cpus in ({0, 1}, {0}):
        set_cpus(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = sweep("observed", [0.6, 0.9], spec, h, seed=0, repeats=2, methods=("unc", "cpd"))
        failed = [w for w in caught if "failed" in str(w.message)]
        assert [str(w.message) for w in failed] == want, cpus
        assert {w.category for w in failed} == {UserWarning}
        # the row of the failed method is NaN; the other method is still scored
        assert all(math.isnan(row["re"]) == (row["method"] == "cpd") for row in rows)


def test_run_dgd_and_a_one_cpu_sweep_write_nothing_to_the_console(capfd, monkeypatch):
    # the library reports through return values and warnings, never by printing
    set_cpus(monkeypatch, {0})
    spec, h = _tiny_sweep_args()
    adj, signals, _ = swdyn(spec)
    mask = sample_mask(spec.n_nodes, spec.n_steps, 0.8, 0)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        run_dgd(adj, mask, signals, h, seed=0)
        sweep("observed", [0.6], spec, h, seed=0, repeats=1)
    assert capfd.readouterr() == ("", "")


def test_sweep_rejects_bad_arguments():
    spec, h = _tiny_sweep_args()
    with pytest.raises(ValueError):
        sweep("bogus", [1], spec, h, seed=0)
    with pytest.raises(ValueError):
        sweep("rank", [1], spec, h, seed=0, methods=("nope",))
    with pytest.raises(ValueError):
        sweep("observed", [0.0], spec, h, seed=0, repeats=1, methods=("unc",))


def test_sweep_without_methods_or_grid_raises_before_any_cell(monkeypatch):
    def cell_ran(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr("dgd.evaluation.swdyn", cell_ran)
    spec, h = _tiny_sweep_args()
    with pytest.raises(ValueError, match="^methods names no method"):
        sweep("observed", [0.5, 0.9], spec, h, seed=0, repeats=2, methods=())
    with pytest.raises(ValueError, match="^methods must be a sequence .* 'cpd'$"):
        sweep("observed", [0.5, 0.9], spec, h, seed=0, repeats=2, methods="cpd")
    for kind in ("rank", "observed"):
        with pytest.raises(ValueError, match="^grid holds no value$"):
            sweep(kind, [], spec, h, seed=0, repeats=2, methods=("cpd",))


def test_sweep_csv_writes_a_numpy_grid_as_plain_numbers(tmp_path):
    spec, h = _tiny_sweep_args()
    kw = dict(seed=0, repeats=1, methods=("cpd",))
    sweep("observed", np.array([0.5, 0.9]), spec, h, out_path=tmp_path / "np.csv", **kw)
    sweep("observed", [0.5, 0.9], spec, h, out_path=tmp_path / "list.csv", **kw)
    assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_sweep_checks_the_seed_before_any_cell(monkeypatch):
    def cell_ran(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr("dgd.evaluation.swdyn", cell_ran)
    spec, h = _tiny_sweep_args()
    for bad, match in ((-1, "^seed must be >= 0, got -1$"), (0.5, "^seed must be an integer")):
        with pytest.raises(ValueError, match=match):
            sweep("rank", [1], spec, h, seed=bad, repeats=2, methods=("cpd",))


def test_sweep_observed_frac_sets_rank_sweeps_only(monkeypatch):
    spec, h = _tiny_sweep_args()
    kw = dict(seed=0, repeats=1, methods=("cpd",))
    assert sweep("rank", [1], spec, h, **kw) == sweep("rank", [1], spec, h, observed_frac=0.9, **kw)

    def cell_ran(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr("dgd.evaluation.swdyn", cell_ran)
    # an observed sweep takes its fractions from grid, so observed_frac would be ignored
    for frac in (0.1, 0.9):
        with pytest.raises(ValueError, match="^observed_frac sets the fraction of a rank sweep"):
            sweep("observed", [0.5], spec, h, observed_frac=frac, **kw)


def test_sweep_checks_every_rank_before_any_cell(monkeypatch):
    spec, h = _tiny_sweep_args()
    kw = dict(seed=0, repeats=1, methods=("cpd",))
    # a rank the grid cannot fit as given is never rounded to one it can
    assert sweep("rank", [np.int64(1)], spec, h, **kw) == sweep("rank", [1], spec, h, **kw)

    def cell_ran(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr("dgd.evaluation.swdyn", cell_ran)
    for bad, match in ((1.5, "^n_latents must be an integer, got 1.5$"),
                       (True, "^n_latents must be an integer, got True$"),
                       (2.0, "^n_latents must be an integer, got 2.0$"),
                       (0, "^n_latents must be >= 1, got 0$")):
        with pytest.raises(ValueError, match=match):
            sweep("rank", [1, bad], spec, h, **kw)


def test_sweep_error_raised_in_a_cell_reaches_the_caller(monkeypatch):
    # every rank passes the checks, so the error comes from the cell itself
    def fail(*args):
        raise ValueError("cell failed")

    monkeypatch.setitem(METHODS, "cpd", fail)
    spec, h = _tiny_sweep_args()
    for cpus in ({0, 1}, {0}):
        set_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="^cell failed$"):
            sweep("rank", [1, 2], spec, h, seed=0, repeats=1, methods=("cpd",))


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
            frac = 0.8 if kind == "rank" else None
            sweep(kind, grid, spec, h, seed=3, repeats=2, observed_frac=frac, out_path=path)
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


@pytest.mark.parametrize(
    "cpus, grid", [(range(4), [0.6, 0.9]), ({0, 1}, [0.6])], ids=["four_cpus", "two_cpus_one_cell"]
)
def test_sweep_cell_filters_on_its_main_thread(monkeypatch, cpus, grid):
    # one level of parallelism: the cells run in forked worker processes, or
    # here when there is one cell, and each generates its data on its
    # process's main thread, with no filter threads of its own
    set_cpus(monkeypatch, cpus)
    low_pass = datagen._low_pass
    calls = []

    def main_thread_only(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"_low_pass ran on thread {threading.current_thread().name}")
        calls.append(os.getpid())
        return low_pass(*args)

    monkeypatch.setattr(datagen, "_low_pass", main_thread_only)
    spec, h = _tiny_sweep_args()
    rows = sweep("observed", grid, spec, h, seed=0, repeats=1, methods=("cpd",))
    assert [row["param"] for row in rows] == grid
    if len(grid) == 1:
        assert calls == [os.getpid()] * spec.n_steps


@pytest.mark.parametrize(
    "cpus, methods",
    [({0}, tuple(METHODS)), ({0, 1}, tuple(METHODS)), ({0}, ("nsdgd", "unc", "cpd"))],
    ids=["one_cpu", "two_cpus", "no_dgd"],
)
def test_sweep_cell_holds_no_signal_stack(monkeypatch, cpus, methods):
    # Q >> N: a cell keeps each step's signals only as its distance row, so it
    # peaks far below the (T, N, Q) stack; with two CPUs and one cell, the cell
    # runs here and generates its data one step after another
    set_cpus(monkeypatch, cpus)
    spec = SwDynSpec(n_nodes=8, n_steps=30, n_signals=2000)
    h = Hyperparams(inner_iters=2, outer_iters=2)

    def run():
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            return sweep("observed", [0.7], spec, h, seed=0, repeats=1, methods=methods)

    run()  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        rows = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = spec.n_steps * spec.n_nodes * spec.n_signals * 8
    assert peak < stack / 2, (peak, stack)
    assert [row["method"] for row in rows] == list(methods)
    assert all(math.isfinite(row["re"]) for row in rows)


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
    assert lines[0] == SWEEP_LINE
    assert lines[1] == "unc,2,5,0.25,1.0,1.0,1.0,0.0"
