"""Held-out evaluation of recovered dynamic graphs.

All metrics score the estimate only on entries the solver never saw: the
holdout is the complement of the observation mask, so a full mask leaves
nothing to score and the metrics are reported as undefined rather than 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from time import perf_counter

import numpy as np

from .datagen import mask_seed, sample_mask, swdyn
from .model import NumericalAbort, reconstruct


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
    """Squared relative error on held-out entries.

    ||holdout * (est - truth)||_F^2 / ||holdout * truth||_F^2; raises
    UndefinedMetricError when the holdout carries no truth mass.
    """
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    holdout = np.asarray(holdout, dtype=np.float64)
    den = float(np.sum((holdout * truth) ** 2))
    if den == 0.0:
        raise UndefinedMetricError("held-out truth has zero norm; RE is undefined")
    num = float(np.sum((holdout * (est - truth)) ** 2))
    return num / den


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
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    sel = np.asarray(holdout, dtype=np.float64) > 0
    pred = est[sel] > threshold
    real = truth[sel] > 0
    n_real = int(real.sum())
    if n_real == 0:
        raise UndefinedMetricError("holdout contains no truth edges; recall is undefined")
    n_pred = int(pred.sum())
    tp = int((pred & real).sum())
    precision = tp / n_pred if n_pred > 0 else 0.0
    recall = tp / n_real
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def evaluate(est, truth, mask, threshold=None):
    """Score an estimated tensor against the truth on unobserved entries."""
    holdout = complement_mask(mask)
    if threshold is None:
        threshold = default_edge_threshold(truth, mask)
    re = relative_error(est, truth, holdout)
    precision, recall, f1 = edge_scores(est, truth, holdout, threshold)
    return EvalReport(re=re, f1=f1, precision=precision, recall=recall, threshold=threshold)


def component_analysis(d, truth, mask, threshold=None):
    """Score the combined reconstruction and each rank-one component alone.

    Component r is scored as the tensor outer(C[:, r], A_r) against the full
    truth, so the per-component errors show how much each latent explains.
    """
    report = evaluate(reconstruct(d), truth, mask, threshold=threshold)
    holdout = complement_mask(mask)
    for r in range(d.n_latents):
        part = np.einsum("t,ij->tij", d.signatures[:, r], d.latents[r])
        report.per_component_re.append(relative_error(part, truth, holdout))
        _, _, f1 = edge_scores(part, truth, holdout, report.threshold)
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
    kind "observed" varies the observation fraction at fixed h. Each cell
    regenerates data per seed (seed, seed+1, ...), fits every method and
    scores on the held-out entries. Failed cells keep their row with NaN
    metrics. When timing is False the seconds column is 0.0 so repeated runs
    are byte-identical.
    """
    from .baselines import METHODS

    if kind not in ("rank", "observed"):
        raise ValueError(f"sweep kind must be 'rank' or 'observed', got {kind!r}")
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}")
    rows = []
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
            s = int(seed) + rep
            adj, signals, truth = swdyn(dc_replace(spec, seed=s))
            truth_tensor = reconstruct(truth)
            mask = sample_mask(spec.n_nodes, spec.n_steps, frac, mask_seed(s, frac))
            threshold = default_edge_threshold(truth_tensor, mask)
            for name in methods:
                t0 = perf_counter()
                try:
                    est = reconstruct(METHODS[name](adj, mask, signals, h_cell, s)[0])
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
    if out_path is not None:
        write_sweep_csv(rows, out_path)
    return rows


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
