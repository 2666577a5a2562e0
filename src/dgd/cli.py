"""Command line entry points.

Subcommands: generate (synthetic dataset to a directory of .dgt files),
decompose (fit a method to adjacency/mask/signals files), evaluate (score an
estimate against truth on held-out entries), sweep (grid comparison to CSV).
Exit codes: 0 success, 1 usage or input errors, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .baselines import METHODS
from .datagen import SwDynSpec, mask_seed, observed_fraction, sample_mask, swdyn
from .evaluation import (
    UndefinedMetricError,
    component_analysis,
    sweep as run_sweep,
)
from .io_dgt import DgtSlices, dgt_header, dgt_payload, load_dgt, save_dgt, write_csv
from .model import OBJECTIVE_TERMS, Decomposition, Hyperparams, NumericalAbort, check_number


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# the JSON type that json.load decodes to each Python type
_JSON_TYPES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _load_json(path, flag):
    """The JSON object in the file at path; ValueError naming flag, the path and
    the JSON type found when the file holds anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{flag} {path} must hold a JSON object, found {_JSON_TYPES[type(cfg)]}")
    return cfg


def _write_history_csv(path, breakdowns):
    """One row per breakdown: the iteration, its total, then each of its OBJECTIVE_TERMS."""
    columns = ("total", *OBJECTIVE_TERMS)
    write_csv(path, ("iter", *columns),
              ((i, *(getattr(b, c) for c in columns)) for i, b in enumerate(breakdowns)))


def _read_spec(args):
    """The SwDynSpec of the --spec file (the defaults without one) seeded by
    --seed, and the file's observed_frac (None when it holds none).

    A --seed below 0, or a seed in the file, is an error naming --seed, the
    one place that sets it.
    """
    check_number("--seed", args.seed, integer=True, low=0)
    cfg = _load_json(args.spec, "--spec") if args.spec else {}
    if "seed" in cfg:
        raise ValueError(f"--spec {args.spec} sets seed; give the seed as --seed")
    frac = cfg.pop("observed_frac", None)
    if frac is not None:
        frac = observed_fraction(frac, "observed_frac")
    return SwDynSpec.from_dict({**cfg, "seed": args.seed}), frac


def _out_dir(path):
    """Path(path); ValueError naming --out-dir, creating nothing, when it or its
    nearest parent that exists is no directory, so mkdir cannot fail after the work."""
    out = Path(path)
    held = next((p for p in (out, *out.parents) if p.exists()), None)
    if held is not None and not held.is_dir():
        raise ValueError(f"--out-dir {out}: {held} is not a directory")
    return out


def _cmd_generate(args):
    spec, observed_frac = _read_spec(args)
    out = _out_dir(args.out_dir)
    observed_frac = 1.0 if observed_frac is None else observed_frac
    out.mkdir(parents=True, exist_ok=True)
    # each step's signals go to the file as soon as they are filtered, so no
    # (T, N, Q) stack is held; a failed step leaves a file that reads as truncated
    with open(out / "signals.dgt", "wb") as fh:
        fh.write(dgt_header("signals", (spec.n_steps, spec.n_nodes, spec.n_signals)))

        def append(k, x):
            fh.write(dgt_payload(x))
            return np.empty(0)

        adj, _, truth = swdyn(spec, append)
    mask = sample_mask(spec.n_nodes, spec.n_steps, observed_frac, mask_seed(args.seed, observed_frac))
    for name, arr, kind in (
        ("adjacency.dgt", adj, "adjacency"),
        ("mask.dgt", mask, "mask"),
        ("signals.dgt", None, "signals"),
        ("truth_latents.dgt", truth.latents, "latents"),
        ("truth_signatures.dgt", truth.signatures, "signatures"),
    ):
        if arr is not None:
            save_dgt(out / name, arr, kind)
        print(f"wrote {out / name}")
    return 0


def _cmd_decompose(args):
    check_number("--seed", args.seed, integer=True, low=0)
    out = _out_dir(args.out_dir)
    # every input is read one slice at a time by the method's set-up
    with ExitStack() as files:
        adj = files.enter_context(DgtSlices(args.adj, "adjacency"))
        mask = files.enter_context(DgtSlices(args.mask, "mask"))
        signals = files.enter_context(DgtSlices(args.signals, "signals")) if args.signals else None
        h = Hyperparams.from_dict(_load_json(args.config, "--config") if args.config else {})
        if args.method == "dgd" and signals is None and h.delta != 0.0:
            raise ValueError(f"--method dgd needs --signals at delta = {h.delta}; "
                             "give --signals, or set delta to 0 in --config")
        d, breakdowns = METHODS[args.method](adj, mask, signals, h, args.seed)
    out.mkdir(parents=True, exist_ok=True)
    save_dgt(out / "latents.dgt", d.latents, "latents")
    save_dgt(out / "signatures.dgt", d.signatures, "signatures")
    _write_history_csv(out / "history.csv", breakdowns)
    for name in ("latents.dgt", "signatures.dgt", "history.csv"):
        print(f"wrote {out / name}")
    return 0


def _cmd_evaluate(args):
    if args.threshold is not None:
        check_number("--threshold", args.threshold, low=0, strict=True)
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
    print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True, allow_nan=False))
    return 0


def _parse_grid(text, kind):
    """The comma-separated --grid values: rank integers >= 1, or observed fractions in (0, 1]."""
    cells = [c for c in (p.strip() for p in text.split(",")) if c]
    if not cells:
        raise ValueError("--grid is empty")
    sweep, want = (("a rank sweep", "integers >= 1") if kind == "rank"
                   else ("an observed sweep", "finite numbers"))
    vals = []
    for c in cells:
        try:
            f = float(c)
        except ValueError:
            f = math.nan
        if not math.isfinite(f) or (kind == "rank" and (f != int(f) or f < 1)):
            raise ValueError(f"--grid values of {sweep} must be {want}, got {c!r}")
        vals.append(int(f) if kind == "rank" else observed_fraction(f, "--grid"))
    return vals


def _cmd_sweep(args):
    spec, spec_frac = _read_spec(args)
    h = Hyperparams.from_dict(_load_json(args.config, "--config") if args.config else {})
    grid = _parse_grid(args.grid, args.kind)
    check_number("--repeats", args.repeats, integer=True, low=1)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        raise ValueError(f"--methods names no method; give some of {','.join(METHODS)}")
    if args.kind == "observed" and spec_frac is not None:
        raise ValueError(f"observed_frac in --spec {args.spec} sets the fraction of --kind rank "
                         "only; --kind observed sweeps the fractions in --grid")
    rows = run_sweep(
        args.kind,
        grid,
        spec,
        h,
        args.seed,
        repeats=args.repeats,
        methods=methods,
        out_path=args.out,
        observed_frac=spec_frac,
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
    p.add_argument("--signals", help="signals .dgt file (read by --method dgd when delta > 0)")
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
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--timing", action="store_true", help="record wall-clock seconds per cell")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # a library warning shows as the command's errors do: no source path or line
    shown = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"dgd: warning: {message}\n"
    # numpy.random imports hashlib and hmac only to seed from OS entropy, which
    # maps OpenSSL (about 3.4 MB of RSS); dgd seeds every Generator and hashes
    # nothing, so the command and its forked workers take CPython's own digests
    blocked = "_hashlib" not in sys.modules
    if blocked:
        sys.modules["_hashlib"] = None
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
    finally:
        warnings.formatwarning = shown
        if blocked:
            sys.modules.pop("_hashlib", None)


if __name__ == "__main__":
    sys.exit(main())
