"""The package's run-time dependencies, as pyproject declares them."""

import os
import subprocess
import sys
from pathlib import Path

import dgd


def test_import_loads_numpy_and_the_standard_library_only():
    # a fresh interpreter, so that no module a test loaded counts; the command
    # line's module too, which every dgd process loads
    code = (
        "import sys; before = set(sys.modules); import dgd, dgd.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(dgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    loaded = {name.partition(".")[0] for name in out.split()}
    assert "dgd" in loaded and "numpy" in loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"dgd", "numpy"}) == []
    # the worker pools import these only when they start (about 0.8 MB of RSS
    # for concurrent.futures alone), so a process that starts none loads none
    assert sorted(loaded & {"concurrent", "multiprocessing", "logging"}) == []
