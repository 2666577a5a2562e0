"""Dynamic graph decomposition: recover a few latent graphs and their
temporal signatures from partially observed dynamic network snapshots."""

from .baselines import (
    METHODS,
    cpd_als,
    cpd_rank_for,
    cpd_to_decomposition,
    nsdgd,
    unc_solve,
)
from .datagen import SwDynSpec, sample_mask, sbm_graph, smooth_signals, swdyn
from .driver import RunHistory, initialize, positive_fit_curvature, run_dgd
from .evaluation import (
    EvalReport,
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
from .io_dgt import DgtError, DgtSlices, load_dgt, save_dgt
from .model import (
    Decomposition,
    Hyperparams,
    NumericalAbort,
    ObjectiveBreakdown,
    degree_margin,
    in_sa,
    objective,
    project_sa,
    project_sc,
    reconstruct,
)

__all__ = [
    "Decomposition",
    "DgtError",
    "DgtSlices",
    "EvalReport",
    "Hyperparams",
    "METHODS",
    "NumericalAbort",
    "ObjectiveBreakdown",
    "RunHistory",
    "SwDynSpec",
    "UndefinedMetricError",
    "complement_mask",
    "component_analysis",
    "cpd_als",
    "cpd_rank_for",
    "cpd_to_decomposition",
    "default_edge_threshold",
    "degree_margin",
    "edge_scores",
    "evaluate",
    "in_sa",
    "initialize",
    "load_dgt",
    "nsdgd",
    "objective",
    "positive_fit_curvature",
    "project_sa",
    "project_sc",
    "reconstruct",
    "relative_error",
    "run_dgd",
    "sample_mask",
    "save_dgt",
    "sbm_graph",
    "smooth_signals",
    "swdyn",
    "sweep",
    "unc_solve",
    "write_sweep_csv",
]

__version__ = "0.1.0"
