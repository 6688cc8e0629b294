"""Every exported name resolves, every private name is used, and every
public name is used outside the unit tests. The package exports its names
lazily, so a stale entry in ``otcpki.__all__`` or in a submodule's
``__all__`` would otherwise fail only when someone first uses it; a private
helper that nothing reads is dead code, and a public one that only unit
tests read is a second way to do a job."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import otcpki

PACKAGE = Path(otcpki.__file__).parent
ROOT = PACKAGE.parent.parent
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
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bodies = [tree.body, *(node.body for node in ast.walk(tree)
                               if isinstance(node, ast.ClassDef))]
        defined += [(path.name, name) for body in bodies for name in _defined(body)
                    if _private(name)]
    read = _read_in(PACKAGE.glob("*.py"))
    assert defined
    assert [(module, name) for module, name in defined if name not in read] == []


def _read_in(paths) -> set:
    """The names that Python files read: as a name, an attribute or an
    import."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _functions_and_classes(body) -> list:
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_name_is_read_outside_the_tests():
    """Each public function, class, method and property defined at module
    level or in a public class of ``src/otcpki/`` is read in the package,
    in ``perfbench/`` or in the acceptance criteria, or is written as code
    in ``README.md``."""
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _functions_and_classes(ast.parse(path.read_text()).body):
            defined.append((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{member.name}", member.name)
                            for member in _functions_and_classes(node.body)
                            if not isinstance(member, ast.ClassDef)]
    read = _read_in([*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                     ROOT / "tests" / "test_acceptance.py"])
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        read.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span))
    assert defined
    assert [(module, qualified) for module, qualified, name in defined if name not in read] == []


def _imported(tree) -> dict:
    """The names a module's import statements bind, by line, ``from
    __future__`` imports aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(((alias.asname or alias.name).partition(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    """Each name a module under ``src/otcpki/`` imports is read in that
    module, as a name or through ``__all__``; no linter runs here, so an
    import left behind by a deleted use would otherwise stay."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant))
    assert {name: line for name, line in _imported(tree).items() if name not in read} == {}
