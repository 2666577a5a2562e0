"""Held-out evaluation of recovered dynamic graphs.

All metrics score the estimate only on entries the solver never saw: the
holdout is the complement of the observation mask, so a full mask leaves
nothing to score and the metrics are reported as undefined rather than 0/0.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from .baselines import METHODS
from .datagen import mask_seed, observed_fraction, sample_mask, swdyn
from .io_dgt import write_csv
from .model import NumericalAbort, check_number, reconstruct
from .priors import distance_row
from .tensors import SliceEntries, check_finite, check_mask, triangle


class UndefinedMetricError(ValueError):
    """A metric's denominator is empty (no held-out mass or no truth edges)."""


@dataclass
class EvalReport:
    """Held-out scores; `dgd evaluate` prints dataclasses.asdict of it as JSON."""

    re: float
    f1: float
    precision: float
    recall: float
    threshold: float
    per_component_re: list = field(default_factory=list)
    per_component_f1: list = field(default_factory=list)


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
    held = _HeldOut(truth, holdout)
    return held.relative_error(held.gather(est))


def default_edge_threshold(truth, mask):
    """Half the mean of the positive observed truth entries."""
    truth = np.asarray(truth, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != truth.shape:
        raise ValueError(f"mask is {mask.shape} but truth is {truth.shape}")
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
    held = _HeldOut(truth, holdout)
    return held.edge_scores(held.gather(est), threshold)


class _HeldOut:
    """The held-out entries of one truth stack, those where holdout > 0.

    The selection is a :class:`tensors.SliceEntries`. The truth is gathered
    once into a vector, with its squared norm and its edges. An estimate is
    gathered by the same positions, one slice at a time, and a rank-one
    component is formed at those positions only (:meth:`component`). Every
    score reads one such vector, so whatever the other entries hold (NaN
    included) is never read. Squares are summed by numpy's own summation, so
    no score depends on the BLAS thread count.
    """

    def __init__(self, truth, holdout):
        truth = np.asarray(truth, dtype=np.float64)
        sel = np.asarray(holdout)
        if sel.shape != truth.shape:
            raise ValueError(f"holdout is {sel.shape} but truth is {truth.shape}")
        self.shape = truth.shape
        sel = (sel if sel.dtype == np.bool_ else sel > 0).reshape(len(sel), -1)
        self.entries = SliceEntries.build([np.flatnonzero(s) for s in sel], sel.shape[1])
        self.truth = self.gather(truth)
        self.norm = float(np.sum(np.square(self.truth)))
        self.edges = self.truth > 0
        self.n_edges = int(np.count_nonzero(self.edges))

    def gather(self, est):
        est = np.asarray(est, dtype=np.float64)
        if est.shape != self.shape:
            raise ValueError(f"estimate is {est.shape} but truth is {self.shape}")
        x = np.empty(self.entries.positions.size)
        for t, at, span in self.entries.slices():
            # every position lies within its slice, so no bounds check is
            # needed; the checking mode would buffer each run before writing it
            np.take(est[t], at, out=x[span], mode="clip")
        return x

    def component(self, signature, latent):
        """The held-out entries of the rank-one stack signature[t] latent:
        latent at every held-out position, each slice's run scaled by its
        signature entry."""
        x = np.take(latent, self.entries.positions)
        for t, _, span in self.entries.slices():
            x[span] *= signature[t]
        return x

    def relative_error(self, x):
        if self.entries.positions.size == 0:
            raise UndefinedMetricError("nothing is held out; RE is undefined")
        if self.norm == 0.0:
            raise UndefinedMetricError("held-out truth has zero norm; RE is undefined")
        diff = x - self.truth
        return float(np.sum(np.square(diff, out=diff))) / self.norm

    def edge_scores(self, x, threshold):
        check_number("threshold", threshold, low=0, strict=True)
        pred = x > threshold
        if self.n_edges == 0:
            raise UndefinedMetricError("holdout contains no truth edges; recall is undefined")
        n_pred = int(np.count_nonzero(pred))
        tp = int(np.count_nonzero(pred & self.edges))
        precision = tp / n_pred if n_pred > 0 else 0.0
        recall = tp / self.n_edges
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        return precision, recall, f1

    def report(self, x, threshold):
        """EvalReport of the gathered held-out entries x."""
        re = self.relative_error(x)
        precision, recall, f1 = self.edge_scores(x, threshold)
        return EvalReport(re=re, f1=f1, precision=precision, recall=recall, threshold=threshold)


def _held_out(truth, mask, threshold):
    """The held-out entries of truth, those where the mask is 0, and the edge
    threshold (the default one for None). ValueError naming the shape, the
    slice or the (t, i, j) unless truth is a finite (T, N, N) stack and mask a
    binary, symmetric stack of its shape. UndefinedMetricError when no
    estimate could be scored: no positive observed truth entry to set the
    threshold, nothing held out, or held-out truth with zero norm or no
    edge; the truth is scored against itself, so any later report raises no
    such error."""
    truth = np.asarray(truth, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if truth.ndim != 3 or truth.shape[1] != truth.shape[2]:
        raise ValueError(f"truth must be (T, N, N), got {truth.shape}")
    if mask.shape != truth.shape:
        raise ValueError(f"mask is {mask.shape} but truth is {truth.shape}")
    check_mask(mask)
    check_finite(truth, "truth", "t, i, j")
    if threshold is None:
        threshold = default_edge_threshold(truth, mask)
    held = _HeldOut(truth, mask < 1.0)
    held.report(held.truth, threshold)
    return held, threshold


def evaluate(est, truth, mask, threshold=None):
    """Score an estimated tensor against the truth on unobserved entries, with
    truth and mask checked as :func:`component_analysis` checks them."""
    held, threshold = _held_out(truth, mask, threshold)
    return held.report(held.gather(est), threshold)


def component_analysis(d, truth, mask, threshold=None):
    """Score the combined reconstruction and each rank-one component alone.

    Component r is scored as the tensor outer(C[:, r], A_r) against the full
    truth, so the per-component errors show how much each latent explains;
    it is formed at the held-out entries only. The truth and mask are
    checked as :func:`evaluate` checks them, and the reconstruction must be
    finite everywhere too (ValueError naming the (t, i, j) otherwise), so
    every score is a finite number.
    """
    held, threshold = _held_out(truth, mask, threshold)
    est = reconstruct(d)
    check_finite(est, "estimate", "t, i, j")
    report = held.report(held.gather(est), threshold)
    for r in range(d.n_latents):
        part = held.report(held.component(d.signatures[:, r], d.latents[r]), threshold)
        report.per_component_re.append(part.re)
        report.per_component_f1.append(part.f1)
    return report


SWEEP_COLUMNS = ("method", "param", "seed", "re", "f1", "precision", "recall", "seconds")


def sweep(
    kind,
    grid,
    spec,
    h,
    seed,
    repeats=5,
    methods=tuple(METHODS),
    observed_frac=None,
    out_path=None,
    timing=False,
):
    """Grid evaluation over ranks or observation fractions.

    kind "rank" varies h.n_latents over grid at observed fraction observed_frac
    (0.9 when None); kind "observed" varies the fraction over grid at fixed h,
    and observed_frac must be None. Each cell, one grid value and one seed
    (seed, seed+1, ...), regenerates its data, fits every method and scores on
    the held-out entries. A method whose fit fails in a cell (NumericalAbort
    or LinAlgError) keeps its row with NaN metrics, and so does every method
    of a cell that cannot be scored, which fits none: its mask observes no
    positive truth entry (no edge threshold), or its held-out truth has zero
    norm or no edge. Each such cell warns why (UserWarning naming the grid
    value, seed and method). When timing is False the seconds column is
    0.0 so repeated runs are byte-identical. seed must be an integer >= 0,
    repeats one >= 1, every rank an integer >= 1 (named n_latents) and every
    observed fraction lie in (0, 1], methods must be a sequence of names (not a
    string), methods and grid must not be empty, and out_path, when given, must
    name a file in an existing directory; all are checked before any cell runs
    (ValueError naming the argument), and spec and h were checked when built.

    No cell reads another's output, so the cells run in a pool of forked
    worker processes, one per CPU this process may run on (os.sched_getaffinity),
    at most one per cell; with one worker they run here, one after another.
    The rows come back in cell order either way, grid-major and seed-minor, so
    the CSV does not depend on the worker count. An error a cell does not turn
    into NaN reaches the caller with its type and message, and the warnings a
    cell raised are emitted again here, in cell order. Peak memory is about
    the worker count times that of one cell, which holds no (T, N, Q) signal
    stack (:func:`_sweep_cell`) and so does not grow with the signal count.
    A cell generates its data serially, on its process's main thread, so the
    cells are the one level of parallelism.
    """
    if kind not in ("rank", "observed"):
        raise ValueError(f"sweep kind must be 'rank' or 'observed', got {kind!r}")
    if isinstance(methods, str):
        raise ValueError(f"methods must be a sequence of method names, got the string {methods!r}")
    if not methods:
        raise ValueError(f"methods names no method; give some of {tuple(METHODS)}")
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}")
    check_number("seed", seed, integer=True, low=0)
    check_number("repeats", repeats, integer=True, low=1)
    if out_path is not None and (Path(out_path).is_dir() or not Path(out_path).parent.is_dir()):
        raise ValueError(f"out_path {out_path} must name a file in an existing directory")
    if kind == "rank":
        frac = observed_fraction(0.9 if observed_frac is None else observed_frac, "observed_frac")
    elif observed_frac is not None:
        raise ValueError(f"observed_frac sets the fraction of a rank sweep only, got "
                         f"{observed_frac!r}; an observed sweep sweeps the fractions in grid")
    cells = []
    for param in grid:
        if kind == "rank":
            check_number("n_latents", param, integer=True, low=1)
            h_cell = h.replace(n_latents=int(param))
        else:
            h_cell = h
            frac = observed_fraction(param, "grid")
        for rep in range(repeats):
            cells.append((spec, h_cell, frac, param, int(seed) + rep, methods, timing))
    if not cells:
        raise ValueError("grid holds no value")
    rows = []
    registry = {}
    for cell_rows, caught in _map_cells(cells):
        rows.extend(cell_rows)
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    if out_path is not None:
        write_sweep_csv(rows, out_path)
    return rows


def worker_count(n_tasks):
    """Worker processes for n_tasks sweep cells: one per CPU this process may
    run on (os.sched_getaffinity, one where the platform has no CPU affinity),
    and at most n_tasks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = 1
    return min(cpus, n_tasks)


def _map_cells(cells):
    """_sweep_cell over cells, in order; a fork pool when more than one CPU and
    cell, one worker process per CPU and at most one per cell (worker_count),
    each running its cells on its main thread."""
    workers = worker_count(len(cells))
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

    Generates the cell's data, mask, held-out entries and edge threshold once,
    then fits and scores each method in order. Of the signals the cell keeps
    only what dgd reads, the packed distance row of each step, which the
    generator forms as soon as the step is filtered, one step after another
    on the calling thread (datagen.swdyn's reduce); it keeps nothing of them
    when no method reads them (no dgd, or delta 0: nsdgd runs at delta 0, and
    unc and cpd never read them). So no (T, N, Q) stack is formed, and the
    rows go to every method in place of the signals (driver.run_dgd takes
    either). A cell that cannot be scored (:func:`_held_out` raises
    UndefinedMetricError) fits none. A method whose fit fails, and a cell
    that cannot be scored, warn why and keep NaN metrics. Returns (rows,
    [(message, category, filename, lineno), ...]). Warnings meet the filters
    in force before they are recorded, so a warning an "error" filter turns
    into an exception is raised inside the cell, as it would be without the
    recording.
    """
    spec, h, frac, param, s, methods, timing = cell
    rows = []
    with warnings.catch_warnings(record=True) as caught:
        smooth = h.delta != 0.0 and "dgd" in methods
        reduce = partial(distance_row, at=triangle(spec.n_nodes)[0]) if smooth else _nothing
        adj, signals, truth = swdyn(dc_replace(spec, seed=s), reduce)
        signals = signals if smooth else None
        mask = sample_mask(spec.n_nodes, spec.n_steps, frac, mask_seed(s, frac))
        try:
            held, threshold = _held_out(reconstruct(truth), mask, None)
        except UndefinedMetricError as err:
            held = None
            warnings.warn(f"sweep cell {param}, seed {s}: no method scored: {err}")
        for name in methods:
            t0 = perf_counter()
            metrics = (float("nan"),) * 4
            if held is not None:
                try:
                    est = reconstruct(METHODS[name](adj, mask, signals, h, s)[0])
                    report = held.report(held.gather(est), threshold)
                    metrics = (report.re, report.f1, report.precision, report.recall)
                except (NumericalAbort, np.linalg.LinAlgError) as err:
                    warnings.warn(f"sweep cell {param}, seed {s}: {name} failed: "
                                  f"{type(err).__name__}: {err}")
            elapsed = perf_counter() - t0
            seconds = float(elapsed) if timing else 0.0
            rows.append(dict(zip(SWEEP_COLUMNS, (name, param, s, *metrics, seconds))))
    return rows, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _nothing(k, x):
    """A sweep cell's reducer when no method reads the signals: an empty row."""
    return np.empty(0)


def write_sweep_csv(rows, path):
    """Write sweep rows (mappings keyed by SWEEP_COLUMNS) to path, one line
    each under the SWEEP_COLUMNS header, by :func:`io_dgt.write_csv`."""
    write_csv(path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))
