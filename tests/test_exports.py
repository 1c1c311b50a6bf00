"""Every name a ``strata`` module exports in ``__all__`` resolves, so a
deleted function cannot leave a stale export behind, and every module-level
import is used or exported, so a deleted caller cannot leave a stale import."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import strata

MODULES = sorted(m.name for m in pkgutil.iter_modules(strata.__path__))
SOURCES = sorted(pathlib.Path(strata.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"strata.{name}")
    exported = getattr(module, "__all__", ())  # the CLI module has none
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in node.names]
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [n for n in imported if n not in used | exported] == []
