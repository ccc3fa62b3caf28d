"""Every name a package module imports is used there or re-exported by it, and
the package exports exactly the names its modules declare in `__all__`."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import mopareto

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mopareto"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported_names(tree)
    return sorted(
        (name, line)
        for name, line in _imported_names(tree).items()
        if name not in used and name not in exported
    )


def test_the_package_modules_are_found():
    assert {p.stem for p in MODULES} >= {"cli", "constructors", "dominance", "oracles"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_plain_aliased_and_reexported_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from fractions import Fraction\n"
        "from typing import Callable\n"
        "from .model import Instance\n"
        "__all__ = ['Instance']\n"
        "def f(x: Callable) -> None:\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(source) == [("Fraction", 4), ("j", 3)]


def test_the_package_exports_exactly_its_modules_all():
    modules = [importlib.import_module(f"mopareto.{path.stem}") for path in MODULES]
    declared = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    exported = {
        name
        for name, value in vars(mopareto).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == {name for _, name in declared}
    # a name two modules declare (GapQuery) is one object, so import order cannot shadow it
    assert all(getattr(mopareto, name) is getattr(module, name) for module, name in declared)
