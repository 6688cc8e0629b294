"""Every exported name resolves. The package exports its names lazily, so a
stale entry in ``otcpki.__all__`` or in a submodule's ``__all__`` would
otherwise fail only when someone first uses it."""

import importlib
import pkgutil

import pytest

import otcpki

MODULES = ["otcpki", *(f"otcpki.{info.name}" for info in pkgutil.iter_modules(otcpki.__path__)
                       if info.name != "__main__")]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
