"""The benchmark's traced layers name functions that exist in the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"
# layers whose function was deleted before the benchmark's layer list was
# last refreshed; the benchmark reports them as absent
KNOWN_ABSENT = {"priors.zero_cache", "tensors.build_flattenings"}


def _layers():
    """bench/traced.py's LAYERS, loaded by path; nothing is patched."""
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_layers_resolve_to_functions():
    # a renamed or deleted function would turn its layer's metrics into "absent"
    absent = set()
    for layer, home, name, counter in _layers():
        fn = getattr(importlib.import_module(home), name, None)
        if fn is None:
            absent.add(layer)
            continue
        assert inspect.isfunction(fn), layer
        assert counter is None or callable(counter), layer
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
