"""Import direction between schedmech's modules, read from their sources.

The layers import downward only: ``distributions`` needs no other schedmech
module, and ``assignment`` works on plain runtime matrices, so it needs
nothing of the layers that build or consume instances.  ``optbounds`` holds
the estimator helpers that ``checks`` and ``campaign`` share, so it sits
just above ``distributions``, and ``checks`` stays below the campaign and
the CLI.
"""

import ast
from pathlib import Path

import pytest

import schedmech

PACKAGE = Path(schedmech.__file__).parent


def schedmech_imports(module: str) -> set[str]:
    """The schedmech names that ``module``'s source imports: a submodule
    for ``from .x import ...`` or ``import schedmech.x``, and each imported
    name for ``from . import ...`` or ``from schedmech import ...``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                path = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "schedmech":
                path = node.module.split(".")[1:]
            else:
                continue
            found.update(path[:1] or (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "schedmech":
                    found.add(path[1] if len(path) > 1 else "schedmech")
    return found


def test_the_parser_sees_relative_and_absolute_imports():
    assert schedmech_imports("instances") == {"distributions"}
    assert {"assignment", "distributions", "instances"} <= schedmech_imports("mechanisms")
    assert "__version__" in schedmech_imports("campaign")


def test_distributions_imports_no_other_schedmech_module():
    assert schedmech_imports("distributions") == set()


@pytest.mark.parametrize("upper", ["instances", "mechanisms", "campaign", "checks", "cli"])
def test_assignment_imports_no_layer_above_it(upper):
    assert upper not in schedmech_imports("assignment")


def test_optbounds_imports_only_distributions():
    assert schedmech_imports("optbounds") <= {"distributions"}


@pytest.mark.parametrize("upper", ["campaign", "cli"])
def test_checks_imports_no_layer_above_it(upper):
    assert upper not in schedmech_imports("checks")


def called_names(module: str) -> set[str]:
    """The names ``module``'s source calls, as ``f(...)`` or ``x.f(...)``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                found.add(func.id)
            elif isinstance(func, ast.Attribute):
                found.add(func.attr)
    return found


def test_the_call_parser_sees_plain_and_attribute_calls():
    assert {"greedy_makespans", "bincount"} <= called_names("campaign")


# ``mechanisms.place`` is the one engine that runs a mechanism's stages;
# the campaign and the checks schedule through it, not around it.
@pytest.mark.parametrize("module", ["campaign", "checks"])
def test_campaign_and_checks_schedule_only_through_place(module):
    bypasses = {"argmin_assignment", "run_mechanism", "run_sieve", "sample_instance", "Instance"}
    assert called_names(module) & bypasses == set()
