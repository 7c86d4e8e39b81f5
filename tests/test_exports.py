"""Every name that lv3 and its modules export in __all__ resolves, so a
star import never meets a name that was removed or renamed."""

import importlib
import pkgutil

import pytest

import lv3

MODULES = ["lv3", *(f"lv3.{info.name}" for info in pkgutil.iter_modules(lv3.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []

