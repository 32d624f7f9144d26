"""Module exports: every name in a module's ``__all__`` exists there, and
no name is listed twice."""

import importlib
import pkgutil

import pytest

import vmlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(vmlab.__path__))


def test_modules_found():
    assert {"maxwell", "pic", "retarded"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    mod = importlib.import_module(f"vmlab.{name}")
    names = getattr(mod, "__all__", [])
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(mod, n)] == []
