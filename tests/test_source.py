"""Static checks on the library's source: every name a module imports is
used in it, so an import left behind by a deletion fails here."""

import ast
from pathlib import Path

import pytest

import succinct

MODULES = sorted(Path(succinct.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of source that nothing reads.
    A name listed in ``__all__`` counts as read: a re-export."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom re import compile, escape as esc\n__all__ = ['compile']\n"
    assert unused_imports(source) == ["line 1: os", "line 2: esc"]
