"""Public names: every name a module lists in __all__, and every name the
package __init__ imports, resolves to an object of that module."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import steinbounds

MODULES = sorted(info.name for info in pkgutil.iter_modules(steinbounds.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"steinbounds.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve():
    tree = ast.parse(Path(steinbounds.__file__).read_text())
    exports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(exports) > 40
    for module, name in exports:
        assert getattr(steinbounds, name) is getattr(importlib.import_module(f"steinbounds.{module}"), name)
