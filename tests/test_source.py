"""Checks on the package source itself."""

import ast
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


def test_no_private_dataset_imports():
    found = [f"{path.name}: {name}"
             for path in SOURCES
             for module, names in _imports(path)
             if module in (".dataset", "confsens.dataset")
             for name in names if name.startswith("_")]
    assert not found, f"private dataset names imported: {found}"
