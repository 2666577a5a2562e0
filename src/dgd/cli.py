"""Command line entry points.

Subcommands: generate (synthetic dataset to a directory of .dgt files),
decompose (fit a method to adjacency/mask/signals files), evaluate (score an
estimate against truth on held-out entries), sweep (grid comparison to CSV).
Exit codes: 0 success, 1 usage or input errors, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path

from .baselines import METHODS
from .datagen import SwDynSpec, mask_seed, sample_mask, swdyn
from .evaluation import (
    UndefinedMetricError,
    component_analysis,
    sweep as run_sweep,
)
from .io_dgt import DgtSlices, load_dgt, save_dgt
from .model import Decomposition, Hyperparams, NumericalAbort

HISTORY_HEADER = "iter,total,fit,sparsity,smoothness,temporal,overlap,ridge_c"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_history_csv(path, breakdowns):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HISTORY_HEADER + "\n")
        for i, b in enumerate(breakdowns):
            terms = (b.total, b.fit, b.sparsity, b.smoothness, b.temporal, b.overlap, b.ridge_c)
            fh.write(",".join([str(i), *(repr(float(v)) for v in terms)]) + "\n")


def _cmd_generate(args):
    cfg = _load_json(args.spec) if args.spec else {}
    observed_frac = float(cfg.pop("observed_frac", 1.0))
    if not 0.0 < observed_frac <= 1.0:
        raise ValueError(f"observed_frac must lie in (0, 1], got {observed_frac}")
    cfg.pop("seed", None)
    cfg["seed"] = args.seed
    spec = SwDynSpec.from_dict(cfg)
    adj, signals, truth = swdyn(spec)
    mask = sample_mask(spec.n_nodes, spec.n_steps, observed_frac, mask_seed(args.seed, observed_frac))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, arr, kind in (
        ("adjacency.dgt", adj, "adjacency"),
        ("mask.dgt", mask, "mask"),
        ("signals.dgt", signals, "signals"),
        ("truth_latents.dgt", truth.latents, "latents"),
        ("truth_signatures.dgt", truth.signatures, "signatures"),
    ):
        save_dgt(out / name, arr, kind)
        print(f"wrote {out / name}")
    return 0


def _cmd_decompose(args):
    # adjacency and signals are read one slice at a time by the method's set-up;
    # the mask, the fit weight, is the one input held whole
    with ExitStack() as files:
        adj = files.enter_context(DgtSlices(args.adj, "adjacency"))
        mask = load_dgt(args.mask, "mask")[0]
        signals = files.enter_context(DgtSlices(args.signals, "signals")) if args.signals else None
        h = Hyperparams.from_dict(_load_json(args.config) if args.config else {})
        d, breakdowns = METHODS[args.method](adj, mask, signals, h, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dgt(out / "latents.dgt", d.latents, "latents")
    save_dgt(out / "signatures.dgt", d.signatures, "signatures")
    _write_history_csv(out / "history.csv", breakdowns)
    for name in ("latents.dgt", "signatures.dgt", "history.csv"):
        print(f"wrote {out / name}")
    return 0


def _cmd_evaluate(args):
    est_dir = Path(args.est_dir)
    latents_path, signatures_path = est_dir / "latents.dgt", est_dir / "signatures.dgt"
    latents = load_dgt(latents_path, "latents")[0]
    signatures = load_dgt(signatures_path, "signatures")[0]
    if signatures.shape[1] != latents.shape[0]:
        raise ValueError(
            f"{signatures_path} holds {signatures.shape[1]} signatures but "
            f"{latents_path} holds {latents.shape[0]} latents"
        )
    d = Decomposition(latents, signatures)
    truth = load_dgt(args.truth, "adjacency")[0]
    mask = load_dgt(args.mask, "mask")[0]
    for name, shape in ((args.mask, mask.shape), (est_dir, (d.n_steps, d.n_nodes, d.n_nodes))):
        if shape != truth.shape:
            raise ValueError(
                f"{name} holds a {shape} stack but truth {args.truth} holds {truth.shape}"
            )
    report = component_analysis(d, truth, mask, threshold=args.threshold)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False))
    return 0


def _parse_grid(text, kind):
    cells = [c for c in (p.strip() for p in text.split(",")) if c]
    if not cells:
        raise ValueError("empty sweep grid")
    if kind == "rank":
        vals = []
        for c in cells:
            f = float(c)
            if f != int(f):
                raise ValueError(f"rank grid values must be integers, got {c!r}")
            vals.append(int(f))
        return vals
    return [float(c) for c in cells]


def _cmd_sweep(args):
    spec_cfg = _load_json(args.spec) if args.spec else {}
    spec_cfg.pop("observed_frac", None)
    spec_cfg.pop("seed", None)
    spec = SwDynSpec.from_dict(spec_cfg)
    h = Hyperparams.from_dict(_load_json(args.config) if args.config else {})
    grid = _parse_grid(args.grid, args.kind)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    rows = run_sweep(
        args.kind,
        grid,
        spec,
        h,
        args.seed,
        repeats=args.repeats,
        methods=methods,
        observed_frac=args.observed_frac,
        out_path=args.out,
        timing=args.timing,
    )
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def build_parser():
    parser = _Parser(prog="dgd", description="Dynamic graph decomposition tools")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--spec", help="generator settings JSON (optional)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("decompose", help="fit a method to observed data")
    p.add_argument("--adj", required=True, help="adjacency .dgt file")
    p.add_argument("--mask", required=True, help="mask .dgt file")
    p.add_argument("--signals", help="signals .dgt file (needed when delta > 0)")
    p.add_argument("--config", help="hyperparameter JSON (optional)")
    p.add_argument("--method", choices=sorted(METHODS), default="dgd")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("evaluate", help="score an estimate on held-out entries")
    p.add_argument("--est-dir", required=True, help="directory with latents.dgt and signatures.dgt")
    p.add_argument("--truth", required=True, help="truth adjacency .dgt file")
    p.add_argument("--mask", required=True, help="observation mask .dgt file")
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="grid comparison across methods")
    p.add_argument("--kind", choices=("rank", "observed"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--spec", help="generator settings JSON (optional)")
    p.add_argument("--config", help="hyperparameter JSON (optional)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--methods", default="dgd,nsdgd,unc,cpd")
    p.add_argument("--observed-frac", type=float, default=0.9, help="fraction for rank sweeps")
    p.add_argument("--timing", action="store_true", help="record wall-clock seconds per cell")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalAbort as err:
        print(f"dgd: numerical failure: {err}", file=sys.stderr)
        return 2
    except UndefinedMetricError as err:
        print(f"dgd: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"dgd: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
