"""Static checks on the package's names, read with ``ast``: a module
imports nothing it does not use, and ``heawood_udg.__all__`` lists exactly
the names the package imports, each of which resolves and is imported
from the root by a demo or the README unless it is an exception.  A
change that deletes code and leaves an import or an export behind fails
here."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import heawood_udg

PACKAGE = Path(heawood_udg.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(heawood_udg.__all__) == sorted(_imported_names(tree))
    assert len(set(heawood_udg.__all__)) == len(heawood_udg.__all__)
    for name in heawood_udg.__all__:
        assert getattr(heawood_udg, name) is not None, name


def _root_imports(source: str) -> set:
    """The names ``source`` imports from the package root."""
    return {
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "heawood_udg"
        for a in node.names
    }


def test_root_exports_only_what_demos_and_readme_import():
    # the root is the surface the demos and the README's python blocks use,
    # plus the exceptions their functions raise
    root = Path(__file__).resolve().parents[1]
    sources = [p.read_text() for p in sorted((root / "demos").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    imported = set().union(*map(_root_imports, sources))
    exported = {name: getattr(heawood_udg, name) for name in heawood_udg.__all__}
    unread = [
        name
        for name, obj in exported.items()
        if name not in imported and not (isinstance(obj, type) and issubclass(obj, Exception))
    ]
    assert unread == []


def _top_level_definitions(tree: ast.Module):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Every name read in ``tree``, bare or as an attribute, outside ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_top_level_name_is_used(path):
    # a definition that nothing else in the package reads is dead code, or
    # code that only the tests run; imports in __init__ do not count
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    elsewhere = set().union(*(_references(t) for p, t in trees.items() if p != path))
    unused = [
        name
        for name, node in _top_level_definitions(trees[path])
        if name not in elsewhere | _references(trees[path], skip=node)
    ]
    assert unused == []
