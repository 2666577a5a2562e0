"""The package's run-time dependencies, as pyproject declares them, and the
names each of its modules imports."""

import ast
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
