#!/usr/bin/env python3
"""Benchmark of the dgd command line on three workloads.

Usage:
    python3 bench/run.py --workload {fit,sweep,ingest} --seed N --seconds S --trace {0,1}
                         [--report PATH]

Run from the root of a source checkout. The benchmark runs the `dgd` CLI as a
user would (`python -m dgd.cli` with PYTHONPATH=src), one child process per
command, and repeats the workload's pass for --seconds (at least twice). It
times each child from outside, records each child's own peak RSS through
os.wait4, and checks every child's outputs.

--trace 0 prints the end-to-end metrics (medians over passes).
--trace 1 runs the same commands in one interpreter through bench/traced.py,
alternating untraced and traced passes, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is the full report: the
stamp (code version, interpreter, BLAS, threads, seed), every sample, every
check and, for --trace 1, every layer. --report PATH also writes that report.

The benchmark measures only its own child processes. It drops no caches and
pins no CPUs. Every child runs with THREADS BLAS/OpenMP threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread: the plain single-threaded baseline. OpenBLAS's default on a
# small box is as many threads as cores, which makes child times spread widely.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RUN_LIMIT_S = 170.0  # a run, children included, ends within this
SETUP_SAMPLES = 9  # set-up children per run, at least

# Why each workload exists is recorded in BENCHMARK.json. Sizes keep one run
# of each workload within the time the benchmark is given.
WORKLOADS = {
    # Inner ADMM loop on a mid-size dense stack; tol_outer 0 fixes the work.
    "fit": {
        "spec": {"n_nodes": 120, "n_steps": 100, "n_signals": 200, "observed_frac": 0.8},
        "config": {"n_latents": 2, "inner_iters": 20, "outer_iters": 4, "tol_outer": 0},
    },
    # Many small fits plus the baselines, per-cell data generation and scoring.
    "sweep": {
        "spec": {"n_nodes": 40, "n_steps": 50, "n_signals": 200},
        "config": {"n_latents": 2, "outer_iters": 20, "tol_outer": 0},
        "grid": "0.5,0.9",
        "repeats": 1,
        "methods": "dgd,nsdgd,unc,cpd",
    },
    # Large sparse-observed stack, one outer pass: set-up, I/O and memory.
    "ingest": {
        "spec": {"n_nodes": 240, "n_steps": 40, "n_signals": 1000, "observed_frac": 0.3},
        "config": {"n_latents": 2, "inner_iters": 20, "outer_iters": 1, "tol_outer": 0},
    },
}

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# metric name -> (layer, field, unit); field "step_ms" is self time per inner step
PER_LAYER = {
    "admm_a.self_s": ("admm_a", "self_s", "s"),
    "admm_a.calls": ("admm_a", "calls", "count"),
    "admm_a.inner_steps": ("admm_a", "inner_steps", "count"),
    "admm_a.step_ms": ("admm_a", "step_ms", "ms"),
    "admm_c.self_s": ("admm_c", "self_s", "s"),
    "admm_c.calls": ("admm_c", "calls", "count"),
    "admm_c.inner_steps": ("admm_c", "inner_steps", "count"),
    "admm_c.step_ms": ("admm_c", "step_ms", "ms"),
    "model.objective_s": ("model.objective", "self_s", "s"),
    "model.objective_calls": ("model.objective", "calls", "count"),
    "driver.self_s": ("driver", "self_s", "s"),
    "driver.outer_iters": ("driver", "outer_iters", "count"),
    "priors.build_cache_s": ("priors.build_cache", "self_s", "s"),
    "priors.cache_bytes": ("priors.*", "bytes", "bytes"),
    "tensors.build_flattenings_s": ("tensors.build_flattenings", "self_s", "s"),
    "tensors.flat_bytes": ("tensors.build_flattenings", "bytes", "bytes"),
    "io_dgt.load_bytes": ("io_dgt.load", "bytes", "bytes"),
    "io_dgt.save_bytes": ("io_dgt.save", "bytes", "bytes"),
    "datagen.swdyn_s": ("datagen.swdyn", "self_s", "s"),
    "datagen.sample_mask_s": ("datagen.sample_mask", "self_s", "s"),
    "baselines.unc_calls": ("baselines.unc", "calls", "count"),
    "baselines.cpd_calls": ("baselines.cpd", "calls", "count"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "self_s", "s"),
    "evaluation.cells": ("evaluation.*", "cells", "count"),
    "evaluation.failed_cells": ("evaluation.*", "failed_cells", "count"),
    "evaluation.errors": ("evaluation.*", "errors", "count"),
    "cli.startup_s": (None, None, "s"),
}

# Layer times that are zero on some workloads (no DGT I/O in a sweep, no
# baselines in a single fit). They are printed in the report, not in the
# result line, because a time that is always zero on a workload tells nothing.
REPORT_ONLY = {
    "io_dgt.load_s": ("io_dgt.load", "self_s", "s"),
    "io_dgt.save_s": ("io_dgt.save", "self_s", "s"),
    "baselines.unc_s": ("baselines.unc", "self_s", "s"),
    "baselines.cpd_s": ("baselines.cpd", "self_s", "s"),
    "evaluation.component_analysis_s": ("evaluation.component_analysis", "self_s", "s"),
    "evaluation.sweep_s": ("evaluation.sweep", "self_s", "s"),
    "priors.zero_cache_s": ("priors.zero_cache", "self_s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
}

# Held-out quality may not fall below the reference of bench/reference.json by
# more than these margins (relative for RE, absolute for F1).
RE_MARGIN = 0.05
F1_MARGIN = 0.02


class Checks:
    """Output checks and child exits of one run, counted as operations.

    A failed operation that is not fatal (a baseline's sweep cell that came
    out NaN) counts in `failed` but leaves the run correct.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.fatal = 0

    def add(self, name, ok, detail="", fatal=True):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
            self.fatal += fatal
            print(f"check failed: {name} {detail}", file=sys.stderr)
        return ok


class Child:
    def __init__(self, rc, wall_s, rss_mb, stdout):
        self.rc, self.wall_s, self.rss_mb, self.stdout = rc, wall_s, rss_mb, stdout


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def run_child(argv, log_dir, deadline, checks):
    """Run one child to completion; wall time from spawn to reap, own peak RSS."""
    out_path = log_dir / "child.out"
    err_path = log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    if not checks.add(f"exit 0: {' '.join(argv[1:4])}", proc.returncode == 0, f"rc={proc.returncode}"):
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(tail, file=sys.stderr)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout)


def flush_dir(path):
    """fsync the files a child wrote, so their writeback does not overlap the next timed child."""
    for entry in Path(path).iterdir():
        if entry.is_file():
            fd = os.open(entry, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def remove_work(work):
    """Delete a run's work directory, and .bench_work itself once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass


def dgd(*args):
    return [sys.executable, "-m", "dgd.cli", *map(str, args)]


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def read_dgt(path):
    """Read a DGT file without the package: JSON header line, float64 payload."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        data = np.frombuffer(fh.read(), dtype="<f8")
    dims = header["dims"]
    if len(dims) == 3:
        return data.reshape(dims[2], dims[0], dims[1])
    return data.reshape(dims)


class Workload:
    """Command lines of one workload and the checks on their outputs."""

    def __init__(self, name, seed, work):
        self.name = name
        self.seed = seed
        self.cfg = WORKLOADS[name]
        self.is_sweep = "grid" in self.cfg
        self.spec = write_json(work / "spec.json", self.cfg["spec"])
        self.config = write_json(work / "config.json", self.cfg["config"])
        self.setup_config = write_json(work / "setup.json", {**self.cfg["config"], "outer_iters": 0})

    def steps(self, base):
        """Ordered (name, cli args) of one pass writing under base."""
        if self.is_sweep:
            c = self.cfg
            return [("sweep", self._sweep_args(base / "sweep.csv", self.config, c["methods"]))]
        data, fit = base / "data", base / "fit"
        return [
            ("generate", ["generate", "--spec", self.spec, "--out-dir", data, "--seed", self.seed]),
            ("decompose", self._decompose_args(data, fit, self.config)),
            ("evaluate", ["evaluate", "--est-dir", fit, "--truth", data / "adjacency.dgt",
                          "--mask", data / "mask.dgt"]),
        ]

    def setup_step(self, base):
        """The solve command with zero outer iterations; sweeps keep only the dgd methods."""
        if self.is_sweep:
            return self._sweep_args(base / "setup.csv", self.setup_config, "dgd,nsdgd")
        return self._decompose_args(base / "data", base / "setup", self.setup_config)

    def _decompose_args(self, data, out, config):
        return ["decompose", "--adj", data / "adjacency.dgt", "--mask", data / "mask.dgt",
                "--signals", data / "signals.dgt", "--config", config, "--method", "dgd",
                "--out-dir", out, "--seed", self.seed]

    def _sweep_args(self, out, config, methods):
        c = self.cfg
        return ["sweep", "--kind", "observed", "--grid", c["grid"], "--repeats", c["repeats"],
                "--methods", methods, "--spec", self.spec, "--config", config,
                "--out", out, "--seed", self.seed]

    def outputs(self, base, stdouts, checks):
        """Check one pass's outputs; returns (held-out quality, digest of the solver outputs)."""
        try:
            if self.is_sweep:
                return self._check_sweep(base / "sweep.csv", checks)
            return self._check_fit(base / "fit", stdouts["evaluate"], checks)
        except (OSError, ValueError, KeyError, IndexError) as err:
            checks.add("outputs readable", False, repr(err))
            return {"heldout_re": math.nan, "heldout_f1": math.nan}, None

    def check(self, base, stdouts, checks, reference):
        """outputs(), plus held-out quality against bench/reference.json."""
        quality, digest = self.outputs(base, stdouts, checks)
        ref = reference.get(self.name, {})
        seeded = ref.get("seeds", {}).get(str(self.seed))
        re_ref = seeded["heldout_re"] if seeded else ref.get("re_max", math.nan)
        f1_ref = seeded["heldout_f1"] if seeded else ref.get("f1_min", math.nan)
        re, f1 = quality["heldout_re"], quality["heldout_f1"]
        checks.add("heldout_re within reference", re <= re_ref * (1 + RE_MARGIN),
                   f"{re!r} vs reference {re_ref!r}")
        checks.add("heldout_f1 within reference", f1 >= f1_ref - F1_MARGIN,
                   f"{f1!r} vs reference {f1_ref!r}")
        return quality, digest

    def _check_fit(self, fit, evaluate_stdout, checks):
        latents = read_dgt(fit / "latents.dgt")
        signatures = read_dgt(fit / "signatures.dgt")
        checks.add(
            "latents in S_A",
            bool(np.array_equal(latents, latents.transpose(0, 2, 1)) and np.all(latents >= 0)
                 and not np.any(np.diagonal(latents, axis1=1, axis2=2))),
            "latents are not symmetric, nonnegative and hollow",
        )
        checks.add("signatures nonnegative and finite",
                   bool(np.all(np.isfinite(signatures)) and np.all(signatures >= 0)))
        rows = (fit / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
        values = [float(v) for row in rows for v in row.split(",")]
        want = self.cfg["config"]["outer_iters"]
        checks.add("history.csv has outer_iters finite rows",
                   len(rows) == want and all(map(math.isfinite, values)), f"{len(rows)} rows")
        report = json.loads(evaluate_stdout)
        digest = hashlib.sha256(
            (fit / "latents.dgt").read_bytes() + (fit / "signatures.dgt").read_bytes()
        ).hexdigest()
        return {"heldout_re": float(report["re"]), "heldout_f1": float(report["f1"])}, digest

    def _check_sweep(self, path, checks):
        lines = path.read_text(encoding="utf-8").splitlines()
        header, rows = lines[0].split(","), [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        c = self.cfg
        want = len(c["methods"].split(",")) * len(c["grid"].split(",")) * c["repeats"]
        checks.add("sweep.csv has methods x grid x repeats rows",
                   header[0] == "method" and len(rows) == want, f"{len(rows)} rows, want {want}")
        for row in rows:
            nan = any(math.isnan(float(row[k])) for k in ("re", "f1", "precision", "recall"))
            checks.add(f"sweep row {row['method']} {row['param']} {row['seed']} is a number",
                       not nan, fatal=row["method"] in ("dgd", "nsdgd"))
        dgd_rows = [r for r in rows if r["method"] == "dgd"]
        quality = {
            "heldout_re": statistics.fmean(float(r["re"]) for r in dgd_rows),
            "heldout_f1": statistics.fmean(float(r["f1"]) for r in dgd_rows),
        }
        return quality, hashlib.sha256(path.read_bytes()).hexdigest()


def run_passes(seconds, deadline, one_pass, min_passes=2):
    """Repeat one_pass for `seconds`: start a pass while it should end in time.

    min_passes run regardless, so same-seed outputs can be compared.
    """
    t0 = time.monotonic()
    samples = []
    while True:
        typical = statistics.median(s["_wall"] for s in samples) if samples else 0.0
        now = time.monotonic()
        if now + typical > deadline:
            break
        if len(samples) >= min_passes and now - t0 + typical > seconds:
            break
        start = time.monotonic()
        sample = one_pass(len(samples))
        sample["_wall"] = time.monotonic() - start
        samples.append(sample)
        print(f"pass {len(samples)}: " + ", ".join(
            f"{k}={v:.4g}" for k, v in sample.items() if isinstance(v, float)), file=sys.stderr)
    return samples


def median_of(samples, key):
    values = [s[key] for s in samples if key in s and not math.isnan(s[key])]
    return (statistics.median(values) if values else math.nan), len(values)


def fresh_dir(path):
    """An empty directory, so a failed command cannot leave the last pass's outputs behind."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def end_to_end(w, work, seconds, deadline, checks, reference):
    base = work / "run"
    setup_times = []
    digests = []

    def setup_once():
        child = run_child(dgd(*w.setup_step(base)), work, deadline, checks)
        setup_times.append(child.wall_s)

    def one_pass(i):
        fresh_dir(base)
        sample = {}
        stdouts = {}
        pipeline = 0.0
        for name, args in w.steps(base):
            child = run_child(dgd(*args), work, deadline, checks)
            stdouts[name] = child.stdout
            sample[f"{name}_s"] = child.wall_s
            pipeline += child.wall_s
            if name in ("decompose", "sweep"):
                sample["solve_s"] = child.wall_s
                sample["peak_rss_mb"] = child.rss_mb
            if name == "generate":
                flush_dir(base / "data")
                setup_once()
        if w.is_sweep:
            setup_once()
        sample["pipeline_s"] = pipeline
        quality, digest = w.check(base, stdouts, checks, reference)
        sample.update(quality)
        digests.append(digest)
        return sample

    samples = run_passes(seconds, deadline, one_pass)
    while len(setup_times) < SETUP_SAMPLES and time.monotonic() < deadline - 10:
        setup_once()
    checks.add("same-seed reruns byte-identical", len(set(digests)) == 1, f"{len(set(digests))} digests")
    metrics = {}
    counts = {}
    for key in END_TO_END:
        if key == "setup_s":
            metrics[key], counts[key] = statistics.median(setup_times), len(setup_times)
        else:
            metrics[key], counts[key] = median_of(samples, key)
    extra = {}
    for key in ("generate_s", "evaluate_s", "heldout_re", "heldout_f1"):
        if key in samples[0]:
            extra[key], counts[key] = median_of(samples, key)
    return metrics, {"medians": {**metrics, **extra}, "samples": counts,
                     "passes": samples, "setup_s_samples": setup_times}


def startup_time(work, deadline, checks, repeats=5):
    """Median wall time of a fresh interpreter importing dgd."""
    times = [run_child([sys.executable, "-c", "import dgd"], work, deadline, checks).wall_s
             for _ in range(repeats)]
    return statistics.median(times)


def layer_value(layers, spec):
    layer, field, _ = spec
    if layer.endswith(".*"):
        prefix = layer[:-1]
        return sum(v.get(field, 0) for k, v in layers.items() if k.startswith(prefix))
    if field == "step_ms":
        agg = layers.get(layer, {})
        steps = agg.get("inner_steps", 0)
        return 1000.0 * agg.get("self_s", 0.0) / steps if steps else 0.0
    return layers.get(layer, {}).get(field, 0)


def per_layer(w, work, seconds, deadline, checks, reference):
    digests = []

    def in_process(trace):
        base = fresh_dir(work / ("on" if trace else "off"))
        steps = w.steps(base)
        plan = write_json(base / "plan.json", {"trace": trace,
                                               "steps": [[str(a) for a in args] for _, args in steps]})
        out = base / "traced.json"
        child = run_child([sys.executable, str(BENCH / "traced.py"), str(plan), str(out)],
                          work, deadline, checks)
        if child.rc == 0:
            result = json.loads(out.read_text(encoding="utf-8"))
        else:
            result = {"steps": [], "layers": {}, "absent": []}
        stdouts = {}
        for (name, _), step in zip(steps, result["steps"]):
            checks.add(f"in-process {name} returns 0", step["rc"] == 0, f"rc={step['rc']}")
            stdouts[name] = step["stdout"]
        _, digest = w.check(base, stdouts, checks, reference)
        digests.append(digest)
        return result

    startup = startup_time(work, deadline, checks)

    def one_pass(i):
        # alternate which side goes first, so drift does not favour one side
        order = (False, True) if i % 2 == 0 else (True, False)
        results = {trace: in_process(trace) for trace in order}
        traced, plain = results[True], results[False]
        sample = {"pipeline_traced_s": sum(s["wall_s"] for s in traced["steps"]),
                  "pipeline_untraced_s": sum(s["wall_s"] for s in plain["steps"])}
        sample["trace_overhead_s"] = sample["pipeline_traced_s"] - sample["pipeline_untraced_s"]
        sample["_layers"] = traced["layers"]
        sample["_absent"] = traced["absent"]
        return sample

    samples = run_passes(seconds, deadline, one_pass, min_passes=1)
    checks.add("traced and untraced outputs byte-identical", len(set(digests)) == 1,
               f"{len(set(digests))} digests")
    absent = samples[-1]["_absent"]
    table = {}
    for name, spec in {**PER_LAYER, **REPORT_ONLY}.items():
        if spec[0] is None:
            table[name] = startup
        else:
            table[name] = statistics.median(layer_value(s["_layers"], spec) for s in samples)
    metrics = {name: table[name] for name in PER_LAYER}
    overhead, _ = median_of(samples, "trace_overhead_s")
    return metrics, {
        "layers": {name: {"value": v, "unit": {**PER_LAYER, **REPORT_ONLY}[name][2]} for name, v in table.items()},
        "absent": absent,
        "trace_overhead_s": overhead,
        "passes": [{k: v for k, v in s.items() if k != "_absent"} for s in samples],
    }


def stamp(seed):
    sha = "unknown"  # the checkout need not be a git repository
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: v for k, v in blas.items() if k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {var: str(THREADS) for var in THREAD_VARS},
        "seed": seed,
        "scope": "times and RSS of the benchmark's own child processes only; "
                 "no page-cache dropping, no CPU pinning",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, help="also write the full report here")
    args = parser.parse_args(argv)

    if not (SRC / "dgd" / "cli.py").is_file():
        print(f"error: no dgd sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    ref_path = BENCH / "reference.json"
    reference = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.is_file() else {}

    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    checks = Checks()
    try:
        w = Workload(args.workload, args.seed, work)
        # fill the bytecode cache before timing, as an installed package has one
        run_child([sys.executable, "-c", "import dgd"], work, deadline, checks)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(w, work, args.seconds, deadline, checks, reference)
    finally:
        remove_work(work)

    units = {**END_TO_END, **{k: v[2] for k, v in PER_LAYER.items()}}
    failed = len(checks.failures)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": stamp(args.seed),
        "failed_frac": failed / checks.attempted,
        "failures": checks.failures,
        **detail,
    }
    text = json.dumps(report, default=str)
    if args.report:
        args.report.write_text(text + "\n", encoding="utf-8")
    print(text)
    result = {
        "correct": checks.fatal == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
