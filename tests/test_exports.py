"""Every exported name resolves, and every private name is used. The package
exports its names lazily, so a stale entry in ``otcpki.__all__`` or in a
submodule's ``__all__`` would otherwise fail only when someone first uses
it; a private helper that nothing reads is dead code."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import otcpki

MODULES = ["otcpki", *(f"otcpki.{info.name}" for info in pkgutil.iter_modules(otcpki.__path__)
                       if info.name != "__main__")]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(body) -> list:
    """The names a module or class body binds directly."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(target.id for target in targets if isinstance(target, ast.Name))
    return names


def test_every_private_name_is_read():
    """Each private name (a leading ``_``, not a dunder) defined at module
    or class level in ``src/otcpki/`` is read somewhere in the package:
    as a name, an attribute or an import."""
    defined, read = [], set()
    for path in sorted(Path(otcpki.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bodies = [tree.body, *(node.body for node in ast.walk(tree)
                               if isinstance(node, ast.ClassDef))]
        defined += [(path.name, name) for body in bodies for name in _defined(body)
                    if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined
    assert [(module, name) for module, name in defined if name not in read] == []
