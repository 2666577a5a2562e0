"""Held-out evaluation of recovered dynamic graphs.

All metrics score the estimate only on entries the solver never saw: the
holdout is the complement of the observation mask, so a full mask leaves
nothing to score and the metrics are reported as undefined rather than 0/0.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace as dc_replace
from functools import cached_property
from time import perf_counter

import numpy as np

from .baselines import METHODS
from .datagen import mask_seed, sample_mask, swdyn
from .model import NumericalAbort, reconstruct
from .tensors import check_finite, check_mask


class UndefinedMetricError(ValueError):
    """A metric's denominator is empty (no held-out mass or no truth edges)."""


@dataclass
class EvalReport:
    re: float
    f1: float
    precision: float
    recall: float
    threshold: float
    per_component_re: list = field(default_factory=list)
    per_component_f1: list = field(default_factory=list)

    def to_dict(self):
        return {
            "re": self.re,
            "f1": self.f1,
            "precision": self.precision,
            "recall": self.recall,
            "threshold": self.threshold,
            "per_component_re": list(self.per_component_re),
            "per_component_f1": list(self.per_component_f1),
        }


def complement_mask(mask):
    """Flip a binary mask: held-out entries are the unobserved ones."""
    mask = np.asarray(mask, dtype=np.float64)
    return 1.0 - mask


def relative_error(est, truth, holdout):
    """Squared relative error on held-out entries, those where holdout > 0.

    ||est - truth||_F^2 / ||truth||_F^2 over the held-out entries. They are
    selected, not weighted, so whatever the other entries hold (NaN
    included) never reaches the score. Raises UndefinedMetricError when the
    holdout carries no truth mass.
    """
    return _HeldOut(truth, holdout).relative_error(est)


def default_edge_threshold(truth, mask):
    """Half the mean of the positive observed truth entries."""
    truth = np.asarray(truth, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    vals = truth[(mask > 0) & (truth > 0)]
    if vals.size == 0:
        raise UndefinedMetricError("no positive observed truth entries to set a threshold")
    return 0.5 * float(vals.mean())


def edge_scores(est, truth, holdout, threshold):
    """Precision, recall and F1 for edge detection on held-out entries.

    Predicted edges are est > threshold; truth edges are strictly positive
    entries. Empty predictions give precision 0; no held-out truth edges
    raises UndefinedMetricError (recall has no denominator).
    """
    return _HeldOut(truth, holdout).edge_scores(est, threshold)


class _HeldOut:
    """The held-out entries of one truth tensor, those where holdout > 0.

    Scores any number of estimates against the same truth and holdout; the
    truth's share of the scores, its held-out norm and edges, is computed
    once, on first use.
    """

    def __init__(self, truth, holdout):
        self.truth = np.asarray(truth, dtype=np.float64)
        sel = np.asarray(holdout)
        self.sel = sel if sel.dtype == np.bool_ else sel > 0

    @cached_property
    def norm(self):
        return _held_out_sq(self.truth, self.sel)

    @cached_property
    def edges(self):
        return self.truth[self.sel] > 0

    def relative_error(self, est):
        if self.norm == 0.0:
            raise UndefinedMetricError("held-out truth has zero norm; RE is undefined")
        return _held_out_sq(np.asarray(est, dtype=np.float64) - self.truth, self.sel) / self.norm

    def edge_scores(self, est, threshold):
        if not threshold > 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        pred = np.asarray(est, dtype=np.float64)[self.sel] > threshold
        n_real = int(self.edges.sum())
        if n_real == 0:
            raise UndefinedMetricError("holdout contains no truth edges; recall is undefined")
        n_pred = int(pred.sum())
        tp = int((pred & self.edges).sum())
        precision = tp / n_pred if n_pred > 0 else 0.0
        recall = tp / n_real
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        return precision, recall, f1


def _held_out_sq(x, sel):
    """Sum of x^2 over the selected entries, summed in the layout of x in one buffer."""
    buf = np.where(sel, x, 0.0)
    np.square(buf, out=buf)
    return float(np.sum(buf))


def evaluate(est, truth, mask, threshold=None):
    """Score an estimated tensor against the truth on unobserved entries."""
    if threshold is None:
        threshold = default_edge_threshold(truth, mask)
    return _report(est, _HeldOut(truth, complement_mask(mask)), threshold)


def _report(est, held, threshold):
    re = held.relative_error(est)
    precision, recall, f1 = held.edge_scores(est, threshold)
    return EvalReport(re=re, f1=f1, precision=precision, recall=recall, threshold=threshold)


def component_analysis(d, truth, mask, threshold=None):
    """Score the combined reconstruction and each rank-one component alone.

    Component r is scored as the tensor outer(C[:, r], A_r) against the full
    truth, so the per-component errors show how much each latent explains.
    The mask must be binary and symmetric, and the truth and the
    reconstruction finite everywhere (ValueError naming the (t, i, j)
    otherwise), so every score is a finite number.
    """
    truth = np.asarray(truth, dtype=np.float64)
    check_mask(mask)
    check_finite(truth, "truth", "t, i, j")
    est = reconstruct(d)
    check_finite(est, "estimate", "t, i, j")
    if threshold is None:
        threshold = default_edge_threshold(truth, mask)
    held = _HeldOut(truth, complement_mask(mask))
    report = _report(est, held, threshold)
    for r in range(d.n_latents):
        part = np.einsum("t,ij->tij", d.signatures[:, r], d.latents[r])
        report.per_component_re.append(held.relative_error(part))
        _, _, f1 = held.edge_scores(part, threshold)
        report.per_component_f1.append(f1)
    return report


SWEEP_HEADER = "method,param,seed,re,f1,precision,recall,seconds"


def sweep(
    kind,
    grid,
    spec,
    h,
    seed,
    repeats=5,
    methods=("dgd", "nsdgd", "unc", "cpd"),
    observed_frac=0.9,
    out_path=None,
    timing=False,
):
    """Grid evaluation over ranks or observation fractions.

    kind "rank" varies h.n_latents over grid at a fixed observed fraction;
    kind "observed" varies the observation fraction at fixed h. Each cell, one
    grid value and one seed (seed, seed+1, ...), regenerates its data, fits
    every method and scores on the held-out entries. Failed cells keep their
    row with NaN metrics. When timing is False the seconds column is 0.0 so
    repeated runs are byte-identical.

    No cell reads another's output, so the cells run in a pool of forked
    worker processes, one per CPU this process may run on (os.sched_getaffinity),
    at most one per cell; with one worker they run here, one after another.
    The rows come back in cell order either way, grid-major and seed-minor, so
    the CSV does not depend on the worker count. An error a cell does not turn
    into NaN reaches the caller with its type and message, and the warnings a
    cell raised are emitted again here, in cell order. Peak memory is about
    the worker count times that of one cell.
    """
    if kind not in ("rank", "observed"):
        raise ValueError(f"sweep kind must be 'rank' or 'observed', got {kind!r}")
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}")
    cells = []
    for param in grid:
        if kind == "rank":
            h_cell = h.replace(n_latents=int(param))
            frac = float(observed_frac)
        else:
            h_cell = h
            frac = float(param)
            if not 0.0 < frac <= 1.0:
                raise ValueError(f"observed fraction must lie in (0, 1], got {frac}")
        for rep in range(repeats):
            cells.append((spec, h_cell, frac, param, int(seed) + rep, methods, timing))
    rows = []
    registry = {}
    for cell_rows, caught in _map_cells(cells):
        rows.extend(cell_rows)
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    if out_path is not None:
        write_sweep_csv(rows, out_path)
    return rows


def _map_cells(cells):
    """_sweep_cell over cells, in order; a fork pool when more than one CPU and cell."""
    try:
        workers = min(len(os.sched_getaffinity(0)), len(cells))
    except AttributeError:  # no CPU affinity on this platform
        workers = 1
    if workers <= 1:
        return list(map(_sweep_cell, cells))
    # fork, not spawn: a spawned worker imports numpy and dgd again (~0.1 s each);
    # a pool worker that dies raises BrokenProcessPool here instead of hanging
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_sweep_cell, cells))


def _sweep_cell(cell):
    """The rows of one sweep cell and the warnings raised while computing them.

    Generates the cell's data, mask and edge threshold once, then fits and
    scores each method in order. Returns (rows, [(message, category, filename,
    lineno), ...]). Warnings meet the filters in force before they are
    recorded, so a warning an "error" filter turns into an exception is
    raised inside the cell, as it would be without the recording.
    """
    spec, h, frac, param, s, methods, timing = cell
    rows = []
    with warnings.catch_warnings(record=True) as caught:
        adj, signals, truth = swdyn(dc_replace(spec, seed=s))
        truth_tensor = reconstruct(truth)
        mask = sample_mask(spec.n_nodes, spec.n_steps, frac, mask_seed(s, frac))
        threshold = default_edge_threshold(truth_tensor, mask)
        for name in methods:
            t0 = perf_counter()
            try:
                est = reconstruct(METHODS[name](adj, mask, signals, h, s)[0])
                report = evaluate(est, truth_tensor, mask, threshold=threshold)
                metrics = (report.re, report.f1, report.precision, report.recall)
            except (NumericalAbort, UndefinedMetricError, np.linalg.LinAlgError):
                metrics = (float("nan"),) * 4
            elapsed = perf_counter() - t0
            rows.append(
                {
                    "method": name,
                    "param": param,
                    "seed": s,
                    "re": metrics[0],
                    "f1": metrics[1],
                    "precision": metrics[2],
                    "recall": metrics[3],
                    "seconds": float(elapsed) if timing else 0.0,
                }
            )
    return rows, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _fmt_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_sweep_csv(rows, path):
    """Write sweep rows with a fixed header, UTF-8 and LF line endings."""
    cols = SWEEP_HEADER.split(",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row[c]) for c in cols) + "\n")
