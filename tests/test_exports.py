"""Every name schedmech exports resolves.

A deletion that leaves a stale ``__all__`` entry behind imports cleanly and
fails only on ``from schedmech.x import *``; these tests fail on it at once.
"""

import ast
import importlib
from pathlib import Path

import pytest

import schedmech

PACKAGE = Path(schedmech.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def package_imports() -> dict[str, list[str]]:
    """The names ``schedmech/__init__.py`` imports, by source module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"schedmech.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", sorted(package_imports()))
def test_every_package_reexport_resolves_to_a_public_name(module):
    mod = importlib.import_module(f"schedmech.{module}")
    for name in package_imports()[module]:
        assert name in mod.__all__
        assert getattr(schedmech, name) is getattr(mod, name)
