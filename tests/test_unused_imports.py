"""No halc module imports a name it does not use, so a refactor that
leaves an import behind fails here. A name counts as used when the module
reads it anywhere, lists it in `__all__`, or imports it in a statement
marked `# noqa: F401`, the marker linters read for an intended re-export.
"""

import ast
from pathlib import Path

import pytest

import halc

SOURCES = sorted(Path(halc.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """The names a module's import statements bind, with their line, less
    those of `__future__` imports and of statements marked noqa F401."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the strings of its `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = used_names(tree)
    bound = imported_names(tree, source.splitlines())
    return sorted((name, line) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_catches_an_import_left_behind():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .errors import InvalidInputError, InvalidParameterError as Bad\n"
        "from .world import Scene  # noqa: F401\n"
        "__all__ = ['InvalidInputError']\n"
        "def f():\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(source) == [("Bad", 4), ("math", 2)]
