"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import confsens

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


def _private_imports(target):
    """`file: name` for each `_`-prefixed name another module imports from
    module `target` of the package."""
    return [f"{path.name}: {name}"
            for path in SOURCES
            for module, names in _imports(path)
            if module in (f".{target}", f"confsens.{target}")
            for name in names if name.startswith("_")]


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
