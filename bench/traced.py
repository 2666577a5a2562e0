"""Run dgd CLI commands in one interpreter and time the calls into each layer.

Usage: python3 bench/traced.py PLAN.json OUT.json

PLAN.json holds {"trace": bool, "steps": [[cli args...], ...]}. Each step is
passed to dgd.cli.main as if typed after `dgd`. With "trace" true, every layer
function in LAYERS is replaced, wherever a dgd module holds a reference to it,
by a wrapper that records a span (layer, parent span, start, end) and the
layer's counters. OUT.json receives each step's exit code, wall time and
standard output, plus per-layer calls, inclusive and self seconds, counters,
and the layers whose function no longer exists ("absent").

The wrappers sit at the lookup sites, so this file needs no change inside the
package, and a renamed or deleted function is reported instead of crashing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
from time import perf_counter


def _arrays_nbytes(obj):
    """Computed bytes of the arrays an object holds (one level of nesting)."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_arrays_nbytes(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(int(v.nbytes) for v in vars(obj).values() if hasattr(v, "nbytes"))
    return 0


# Counters take (args, kwargs, result) and run only when the call returned.
def _inner_steps(args, kwargs, result):
    return {"inner_steps": len(result[2])}


def _outer_iters(args, kwargs, result):
    return {"outer_iters": len(getattr(result[1], "breakdowns", ()))}


def _result_bytes(args, kwargs, result):
    return {"bytes": _arrays_nbytes(result)}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": _arrays_nbytes(result[0])}


def _saved_bytes(args, kwargs, result):
    arr = args[1] if len(args) > 1 else kwargs.get("arr")
    return {"bytes": _arrays_nbytes(arr)}


def _one_cell(args, kwargs, result):
    return {"cells": 1}


def _sweep_rows(args, kwargs, result):
    nan_rows = sum(1 for row in result if row["re"] != row["re"])
    return {"cells": len(result), "failed_cells": nan_rows}


# (layer name, defining module, function name, counters). A call that raises
# counts in the layer's "errors".
LAYERS = [
    ("admm_a", "dgd.admm_a", "solve_a_subproblem", _inner_steps),
    ("admm_c", "dgd.admm_c", "solve_c_subproblem", _inner_steps),
    ("model.objective", "dgd.model", "objective", None),
    ("driver", "dgd.driver", "run_dgd", _outer_iters),
    ("priors.build_cache", "dgd.priors", "build_cache", _result_bytes),
    ("priors.zero_cache", "dgd.priors", "zero_cache", _result_bytes),
    ("tensors.build_flattenings", "dgd.tensors", "build_flattenings", _result_bytes),
    ("io_dgt.load", "dgd.io_dgt", "load_dgt", _loaded_bytes),
    ("io_dgt.save", "dgd.io_dgt", "save_dgt", _saved_bytes),
    ("datagen.swdyn", "dgd.datagen", "swdyn", None),
    ("datagen.sample_mask", "dgd.datagen", "sample_mask", None),
    ("baselines.unc", "dgd.baselines", "unc_solve", None),
    ("baselines.cpd", "dgd.baselines", "cpd_als", None),
    ("evaluation.evaluate", "dgd.evaluation", "evaluate", None),
    ("evaluation.component_analysis", "dgd.evaluation", "component_analysis", _one_cell),
    ("evaluation.sweep", "dgd.evaluation", "sweep", _sweep_rows),
]


class Tracer:
    """Spans kept in memory: [layer, parent index, start, end, counters]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, layer, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [layer, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}]
            self.spans.append(span)
            self._stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4]["errors"] = 1
                raise
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span[4].update(counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Patch every reference a dgd module holds to a layer function.

        Returns the names of layers whose function does not exist.
        """
        importlib.import_module("dgd.cli")
        modules = [m for name, m in sys.modules.items() if name == "dgd" or name.startswith("dgd.")]
        absent = []
        for layer, home, name, counter in LAYERS:
            try:
                original = getattr(importlib.import_module(home), name)
            except (ImportError, AttributeError):
                absent.append(layer)
                continue
            wrapper = self.wrap(layer, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return absent

    def summary(self):
        """Per-layer calls, inclusive seconds, self seconds and summed counters."""
        child_s = [0.0] * len(self.spans)
        for layer, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers = {}
        for i, (layer, _, start, end, counters) in enumerate(self.spans):
            agg = layers.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s[i]
            for key, value in counters.items():
                agg[key] = agg.get(key, 0) + value
        return layers


def run(plan):
    tracer = Tracer()
    absent = tracer.install() if plan["trace"] else []
    from dgd import cli

    main = tracer.wrap("cli", cli.main) if plan["trace"] else cli.main
    steps = []
    for argv in plan["steps"]:
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                rc = main(argv)
            except SystemExit as err:
                rc = err.code if isinstance(err.code, int) else 1
        steps.append({"argv": argv, "rc": rc, "wall_s": perf_counter() - t0, "stdout": out.getvalue()})
    return {"steps": steps, "layers": tracer.summary(), "absent": absent, "spans": len(tracer.spans)}


def main(argv):
    if len(argv) != 2:
        print("usage: traced.py PLAN.json OUT.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
