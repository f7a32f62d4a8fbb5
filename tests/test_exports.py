"""Public names: every name a module lists in __all__, and every name the
package __init__ imports, resolves to an object of that module.  The
number of parameters with a default in the package is ROADMAP aim 2's,
and special.py is the one module that imports scipy."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import steinbounds

MODULES = sorted(info.name for info in pkgutil.iter_modules(steinbounds.__path__))
DEFAULTED_PARAMETERS = 13  # ROADMAP aim 2: a parameter with one value in use is a constant


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


def test_defaulted_parameter_count():
    count = 0
    for path in sorted(Path(steinbounds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arguments):
                count += len(node.defaults) + sum(default is not None for default in node.kw_defaults)
    assert count == DEFAULTED_PARAMETERS, (
        f"src/steinbounds has {count} parameters with a default, not {DEFAULTED_PARAMETERS}:"
        " update ROADMAP aim 2's count and DEFAULTED_PARAMETERS"
    )


def test_special_is_the_one_importer_of_scipy():
    # scipy.special's package __init__ costs about 0.19 s of a 0.3 s
    # import; special.py takes the ufuncs without it, and a stray
    # `from scipy.special import ...` elsewhere would bring it back
    importers = set()
    for path in sorted(Path(steinbounds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                importers.add(path.name)
    assert importers == {"special.py"}
