"""Static checks on the library's source: every name a module imports is
used in it, every module-level name is read somewhere in the package
(public names of ``spec`` and ``oracle`` aside), and a module's
``__all__`` lists exactly its public names, so an import, helper or
export left behind by a deletion, or one only the tests call, fails here; no
dataclass is both frozen and ``slots=True``; and only one decorator
switches the cyclic collector off and on."""

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


def defined_names(node: ast.stmt) -> list[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


# modules whose public names are the specifications and references tests read
READ_BY_TESTS = {"spec", "oracle"}


def unread_names(sources: dict[str, str]) -> list[str]:
    """The module-level names of the package's modules, keyed by module
    name, that no module reads outside the statement defining them: the
    private ones (``_name``, not dunder) of every module, and the public
    ones of every module but those in ``READ_BY_TESTS``.  ``from .module
    import name`` counts as a read; a listing in ``__all__`` does not."""
    defined, read = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = defined_names(stmt)
            for name in own:
                checked = name.startswith("_") or module not in READ_BY_TESTS
                if checked and not name.startswith("__"):
                    defined[module, name] = stmt.lineno
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id not in own:
                    read.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    read |= {(node.module, alias.name) for alias in node.names}
    return [f"{module} line {line}: {name}"
            for (module, name), line in defined.items() if (module, name) not in read]


def test_every_private_name_is_read():
    # public names too: a builder only the tests call is dead in the library
    assert unread_names({path.stem: path.read_text(encoding="utf-8")
                         for path in MODULES}) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a": "def _used(): pass\ndef _own(n): return _own(n)\n_X, _Y = 1, 2\n"
             "class _Dead: pass\n__version__ = '1'\n__all__ = ['Used', 'dead']\n"
             "class Used: pass\ndef dead(): pass\n",
        "b": "from .a import _used, _X, Used\n_used()\n",
        "spec": "def reference(): pass\n",
    }
    assert unread_names(sources) == [
        "a line 2: _own", "a line 3: _Y", "a line 4: _Dead", "a line 8: dead"]


def frozen_slots_dataclasses(source: str) -> list[str]:
    """The classes of source decorated ``@dataclass(..., frozen=True,
    slots=True, ...)``.  For such a class dataclass builds a new class, and
    the frozen ``__setattr__``/``__delattr__`` it keeps call ``super()``
    with the old one, so setting or deleting any name that is not a field
    raises TypeError instead of FrozenInstanceError (CPython 3.11); declare
    ``__slots__`` in the class body instead."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                flags = {kw.arg for kw in getattr(deco, "keywords", ())
                         if isinstance(kw.value, ast.Constant) and kw.value.value is True}
                if {"frozen", "slots"} <= flags:
                    found.append(f"line {node.lineno}: {node.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_dataclass_is_both_frozen_and_slots(path):
    assert frozen_slots_dataclasses(path.read_text(encoding="utf-8")) == []


def test_a_frozen_slots_dataclass_is_found():
    source = ("@dataclass(frozen=True)\nclass A: pass\n"
              "@dataclass(slots=True, frozen=True, eq=False)\nclass B: pass\n"
              "@dataclasses.dataclass(frozen=True, slots=True)\nclass C: pass\n"
              "@dataclass(frozen=True, slots=False)\nclass D:\n    __slots__ = ()\n")
    assert frozen_slots_dataclasses(source) == ["line 4: B", "line 6: C"]


def all_mismatches(source: str) -> list[str]:
    """For a module that assigns ``__all__``: the entries naming nothing
    the module defines or imports at top level, then the public top-level
    defs, classes and assignments the list leaves out."""
    listed, imported, public = None, set(), []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in stmt.names}
        elif "__all__" in (own := defined_names(stmt)):
            listed = ast.literal_eval(stmt.value)
        else:
            public += [name for name in own if not name.startswith("_")]
    if listed is None:
        return []
    return ([f"stale: {name}" for name in listed if name not in imported | {*public}]
            + [f"unlisted: {name}" for name in public if name not in listed])


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_all_lists_exactly_the_public_names(path):
    assert all_mismatches(path.read_text(encoding="utf-8")) == []


def test_an_all_mismatch_is_found():
    source = ("from os import path\nimport re as regex\n__all__ = ['path', 'regex', 'Gone', 'f']\n"
              "def f(): pass\nclass C: pass\nX, _y = 1, 2\n_Z: int = 3\n__version__ = '1'\n")
    assert all_mismatches(source) == ["stale: Gone", "unlisted: C", "unlisted: X"]
    assert all_mismatches("def f(): pass\n") == []


GC_SWITCHES = {"disable", "enable"}


def gc_switch_sites(source: str) -> list[str]:
    """Each place source names ``gc.disable`` or ``gc.enable``, through
    ``gc`` or an alias of it or by ``from gc import``, as the top-level
    def or class holding it ("module" outside any) and the line."""
    tree = ast.parse(source)
    gc_names = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name == "gc"}
    sites = []
    for stmt in tree.body:
        holder = getattr(stmt, "name", "module")
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in gc_names:
                names = [node.attr]
            else:
                continue
            sites += [f"{holder} line {node.lineno}" for name in names if name in GC_SWITCHES]
    return sites


def test_only_one_decorator_switches_the_collector():
    # the policy of pausing the collector lives in one place: louds._gc_paused
    holders = {f"{path.stem}.{site.split()[0]}"
               for path in MODULES for site in gc_switch_sites(path.read_text(encoding="utf-8"))}
    assert holders == {"louds._gc_paused"}


def test_a_stray_gc_switch_is_found():
    source = ("import gc\nimport gc as collector\nfrom gc import disable, collect\n"
              "def paused(f):\n    def run():\n        gc.disable()\n        gc.enable()\n    return run\n"
              "def build():\n    collector.enable()\n    gc.collect()\n    gc.isenabled()\n"
              "class C:\n    switch = gc.disable\n")
    assert gc_switch_sites(source) == [
        "module line 3", "paused line 6", "paused line 7", "build line 10", "C line 14"]
