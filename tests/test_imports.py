"""The package's run-time dependencies, as pyproject declares them, and the
names each of its modules imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# runs one dgd command, given as its arguments, in a fresh interpreter with
# two CPUs, and prints what the command's process loaded and, for a sweep,
# what each cell's forked worker loaded, which the cell reports as a warning
# that the sweep emits again in the command's process
_COMMAND_PROCESS = """
import json, os, sys, warnings
from dgd import cli, evaluation

def loaded():
    return {"pid": os.getpid(), "numpy.random": "numpy.random" in sys.modules,
            "_hashlib": sys.modules.get("_hashlib") is not None}

cell = evaluation._sweep_cell

def reporting_cell(args):
    rows, caught = cell(args)
    return rows, [*caught, (json.dumps(loaded()), UserWarning, "cell", 0)]

evaluation._sweep_cell = reporting_cell
os.sched_getaffinity = lambda pid: {0, 1}
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "command": loaded(),
                  "workers": [json.loads(str(w.message)) for w in caught if w.filename == "cell"]}))
"""


def _run_command(*args):
    src = str(Path(dgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _COMMAND_PROCESS, *args], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_commands_and_sweep_workers_load_no_openssl(tmp_path):
    # numpy.random imports hashlib and hmac, whose OpenSSL backend (_hashlib)
    # maps libcrypto, about 3.4 MB of RSS; main blocks it, so hashlib falls
    # back to CPython's own digests in the command and in its forked workers
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_nodes": 8, "n_steps": 6, "n_signals": 4, "observed_frac": 0.7}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inner_iters": 2, "outer_iters": 1}))
    data = tmp_path / "data"
    commands = [["generate", "--spec", str(spec), "--out-dir", str(data), "--seed", "0"]]
    commands += [["decompose", "--adj", str(data / "adjacency.dgt"), "--mask", str(data / "mask.dgt"),
                  "--signals", str(data / "signals.dgt"), "--config", str(cfg), "--method", method,
                  "--out-dir", str(tmp_path / method), "--seed", "0"]
                 for method in ("dgd", "nsdgd", "unc", "cpd")]
    for args in commands:
        run = _run_command(*args)
        assert run["code"] == 0, args[:1]
        assert run["command"]["numpy.random"] and not run["command"]["_hashlib"], args[:1]
        assert run["workers"] == []
    run = _run_command("sweep", "--kind", "rank", "--grid", "1,2", "--repeats", "1",
                       "--spec", str(spec), "--config", str(cfg), "--seed", "0",
                       "--out", str(tmp_path / "sweep.csv"))
    assert run["code"] == 0
    assert not run["command"]["_hashlib"]
    workers = run["workers"]
    assert len(workers) == 2 and all(w["pid"] != run["command"]["pid"] for w in workers)
    assert all(w["numpy.random"] and not w["_hashlib"] for w in workers)


def test_main_leaves_the_openssl_module_entry_as_it_found_it(tmp_path, monkeypatch, capsys):
    # main blocks _hashlib only while it runs and only when nothing loaded it:
    # an absent entry stays absent, after a success and after an input error,
    # and a loaded one stays the same module
    from dgd.cli import main

    openssl = pytest.importorskip("_hashlib")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_nodes": 8, "n_steps": 3, "n_signals": 2}))
    generate = ["generate", "--spec", str(spec), "--out-dir", str(tmp_path / "data"), "--seed", "0"]
    failing = ["generate", "--spec", str(tmp_path / "absent.json"), "--out-dir",
               str(tmp_path / "none"), "--seed", "0"]
    assert sys.modules["_hashlib"] is openssl
    assert main(generate) == 0
    assert sys.modules["_hashlib"] is openssl
    monkeypatch.delitem(sys.modules, "_hashlib")
    assert main(generate) == 0
    assert "_hashlib" not in sys.modules
    assert main(failing) == 1
    assert "_hashlib" not in sys.modules
    capsys.readouterr()


# modules that reach OpenSSL: no dgd module may import one, so the command
# line can block OpenSSL without losing anything dgd computes
OPENSSL_MODULES = {"hashlib", "hmac", "secrets", "ssl", "_hashlib"}


def test_no_module_imports_a_hash_or_ssl_module():
    found = []
    for path in sorted(Path(dgd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] in OPENSSL_MODULES]
    assert found == []



def test_parallelism_lives_in_evaluation_alone():
    # the sweep's process pool is the package's one pool: no other module
    # starts workers, and none starts threads, which would compete with a
    # threaded BLAS for the same cores
    found = []
    for path in sorted(Path(dgd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top == "threading" or (top in ("concurrent", "multiprocessing")
                                           and path.name != "evaluation.py"):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []

# names a module imports for its importers alone; dgd/__init__.py lists its own in __all__
RE_EXPORTS = {"model.py": {"project_sa"}}


def _imported_names(tree):
    """{bound name: line} of every import in a module, __future__ aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_every_imported_name_is_used_or_re_exported():
    # a deletion that leaves an import behind fails here
    unused = []
    for path in sorted(Path(dgd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        listed = set(RE_EXPORTS.get(path.name, ()))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                listed |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree).items()
                   if name not in read | listed]
    assert unused == []


def _console_writes(tree):
    """Lines of a module that call print or name sys.stdout or sys.stderr."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "sys" and node.attr in ("stdout", "stderr")):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(alias.name in ("stdout", "stderr") for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_the_command_line_writes_to_the_console():
    # the library reports through its return values and Python warnings,
    # which a caller can filter; the command line alone prints
    writes = []
    for path in sorted(Path(dgd.__file__).parent.glob("*.py")):
        if path.name != "cli.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            writes += [f"{path.name}:{line}" for line in _console_writes(tree)]
    assert writes == []


def _settings_records(tree):
    """{class name: frozen} of the classes of a module that call check_fields."""
    records = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(n, ast.Call) and getattr(n.func, "id", None) == "check_fields"
                for n in ast.walk(node)):
            records[node.name] = any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                        for k in d.keywords)
                for d in node.decorator_list)
    return records


def test_settings_records_are_frozen_and_need_no_validate_call():
    # a settings record checks its fields when built and cannot change after,
    # so no caller has to remember to check it, and none can skip the check
    records, faults = {}, []
    for path in sorted(Path(dgd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = _settings_records(tree)
        records.update(found)
        faults += [f"{path.name}: {name} is not frozen" for name, frozen in found.items()
                   if not frozen]
        faults += [f"{path.name}:{n.lineno} validate" for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and n.attr == "validate"
                   or isinstance(n, ast.FunctionDef) and n.name == "validate"]
    assert {"Hyperparams", "SwDynSpec"} <= set(records)
    assert faults == []


# the prior weights applied even at zero; delta alone may be tested, as its
# term needs the signals' smoothness rows
UNCONDITIONAL_WEIGHTS = {"gamma", "beta", "mu", "rho", "eta"}


def test_no_branch_tests_an_unconditional_weight():
    # a zero weight adds its zero term, so no if or conditional expression
    # decides on one: a special case there is a second code path per term
    tested = []
    for path in sorted(Path(dgd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.IfExp)):
                tested += [f"{path.name}:{n.lineno} h.{n.attr}" for n in ast.walk(node.test)
                           if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                           and n.value.id == "h" and n.attr in UNCONDITIONAL_WEIGHTS]
    assert tested == []


def test_no_module_holds_a_global_statement():
    # per-process state kept in a module global reaches every caller of the
    # module, forked pool workers included; a value a call needs is passed in
    found = []
    for path in sorted(Path(dgd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Global)]
    assert found == []
