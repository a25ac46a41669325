"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import confsens
from confsens.cli import main

SOURCES = sorted(Path(confsens.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so invariant checks must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"assert statements in {found}"


def _imports(path):
    """(module, names) for each import statement in one source file;
    `module` is the dotted target, with a leading "." for a relative one."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield ("." * node.level + (node.module or ""),
                   tuple(alias.name for alias in node.names))


def test_only_dataset_imports_csv():
    # the CSV format is decided in one module
    found = sorted(path.name for path in SOURCES
                   for module, _ in _imports(path) if module == "csv")
    assert found == ["dataset.py"], f"csv imported in {found}"


def _files_calling(name):
    """The source files that call a function or method named `name`."""
    return sorted({path.name for path in SOURCES
                   for node in ast.walk(ast.parse(
                       path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id",
                               getattr(node.func, "attr", None)) == name})


def test_only_dataset_calls_permutation():
    # the data is halved by one rule, `dataset.split`
    found = _files_calling("permutation")
    assert found == ["dataset.py"], f"permutation called in {found}"


def test_only_cssa_builds_intervals():
    # one target's interval is assembled in one place
    found = _files_calling("PredictiveInterval")
    assert found == ["cssa.py"], f"PredictiveInterval built in {found}"


# the threshold stage, whose modules share their private helpers
THRESHOLD_STAGE = {"conformal", "csa", "cssa"}


def _private_imports(target=None):
    """`file: module.name` for each `_`-prefixed name one package module
    imports from another outside the threshold stage; with `target`,
    only the names imported from that module."""
    return [f"{path.name}: {module}.{name}"
            for path in SOURCES
            for module, names in _imports(path)
            if module.startswith((".", "confsens."))
            and not {path.stem, module.split(".")[-1]} <= THRESHOLD_STAGE
            and target in (None, module.split(".")[-1])
            for name in names
            if name.startswith("_") and not name.endswith("__")]


def test_no_private_imports():
    # a `_`-prefixed name stays in its module, so the k-NN models, the
    # dataset checks and the CSSA probes are each built in one place
    found = _private_imports()
    assert not found, f"private names imported: {found}"


def test_no_private_dataset_imports():
    found = _private_imports("dataset")
    assert not found, f"private dataset names imported: {found}"


def test_no_private_predictors_imports():
    # the k-NN models and their neighbour search are built in one module
    found = _private_imports("predictors")
    assert not found, f"private predictors names imported: {found}"


def _span_targets():
    """(module, attribute) of each `TARGETS` entry in the benchmark's
    tracer, read from its source without importing it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no TARGETS in bench/spans.py")


def test_bench_span_targets_resolve():
    # a traced benchmark run patches these names; a dotted entry patches
    # the method in its class's own __dict__
    targets = _span_targets()
    missing = []
    for module, attr in targets:
        names = vars(importlib.import_module(f"confsens.{module}"))
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            names = vars(names[cls_name]) if cls_name in names else {}
        if name not in names:
            missing.append(f"{module}.{attr}")
    assert len(targets) > 20 and not missing, f"unresolved: {missing}"


def _scipy_modules_after(code):
    """The `scipy` modules loaded by running `code` in a fresh interpreter
    (this one has loaded SciPy already) that imports this copy of the
    package."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(confsens.__file__).parents[1]),
                   os.environ.get("PYTHONPATH")])))
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    # each SciPy module is imported by the function that calls it
    assert _scipy_modules_after("import confsens, confsens.cli") == []


def test_per_target_commands_load_no_scipy(tmp_path):
    data, target = tmp_path / "data.csv", tmp_path / "target.csv"
    for path, n, seed in ((data, 200, 1), (target, 5, 2)):
        assert main(["generate", "--n", str(n), "--dim", "3", "--seed",
                     str(seed), "--out", str(path)]) == 0
    io = ["--data", str(data), "--target", str(target), "--gamma", "2"]
    commands = [["interval", *io, "--method", "cssa"],
                ["interval", *io, "--score", "cqr"],
                ["ite", *io, "--method", "nested"],
                ["ite", *io, "--method", "bonferroni"],
                ["calibrate", "--data", str(data)]]
    commands = [[*c, "--out", str(tmp_path / f"out{i}.csv")]
                for i, c in enumerate(commands)]
    code = ("from confsens.cli import main\n"
            f"for args in {commands!r}:\n"
            f"    if main(args):\n"
            f"        raise SystemExit(args)\n")
    assert _scipy_modules_after(code) == []
