"""The benchmark's hooks into otcpki resolve.

``perfbench/tracer.py`` wraps otcpki functions by owner and attribute name,
and ``perfbench/run.py`` imports otcpki names inside its workloads. A rename
in otcpki breaks either one only when that code runs; these tests make it
fail here instead.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("targets", ["server_targets", "client_targets"])
def test_tracer_targets_resolve(targets):
    for owner, attribute, _ in getattr(load_tracer(), targets)():
        inspect.getattr_static(owner, attribute)  # AttributeError names a rename


def otcpki_imports(path: Path) -> list:
    """``(module, name)`` for each name that a file imports from otcpki;
    ``name`` is None for ``import otcpki...``. Modules imported by name are
    followed by the attributes the file reads from them."""
    tree = ast.parse(path.read_text())
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("otcpki"):
            for alias in node.names:
                found.append((node.module, alias.name))
                if node.module == "otcpki":
                    modules[alias.asname or alias.name] = f"otcpki.{alias.name}"
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names
                         if alias.name.startswith("otcpki"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and importlib.util.find_spec(modules[node.value.id]) is not None):
            found.append((modules[node.value.id], node.attr))
    return found


def test_run_imports_resolve():
    imports = otcpki_imports(PERFBENCH / "run.py")
    assert imports, "run.py imports nothing from otcpki"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")  # a submodule
