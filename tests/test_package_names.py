"""Static checks on the package's names, read with ``ast``: a module
imports nothing it does not use, and ``heawood_udg.__all__`` lists exactly
the names the package imports, each of which resolves.  A change that
deletes code and leaves an import or an export behind fails here."""

from __future__ import annotations

import ast
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
