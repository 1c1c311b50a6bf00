"""Every name a ``strata`` module exports in ``__all__`` resolves, so a
deleted function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import strata

MODULES = sorted(m.name for m in pkgutil.iter_modules(strata.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"strata.{name}")
    exported = getattr(module, "__all__", ())  # the CLI module has none
    assert [n for n in exported if not hasattr(module, n)] == []
