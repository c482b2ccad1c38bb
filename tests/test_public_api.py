"""Every public module-level function and class of the package has a caller
besides its own unit tests: the package itself, an acceptance criterion or
the benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biphoton"
OUTSIDE_CALLERS = [ROOT / "tests" / "test_acceptance.py",
                   *sorted((ROOT / "perfbench").glob("*.py"))]

# name -> why it stays public without such a caller
ALLOWED = {
    "pump_polar_angle": "the pump angle of the exact phase matching that the planned "
    "exact-ring solver needs; its unit tests pin it until then",
}


def _loaded_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names the tree loads, bare or as an attribute, outside the subtree skip."""
    skipped = set() if skip is None else {id(node) for node in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _traced_names(tree: ast.AST) -> set[str]:
    """The strings of a TRACED table: perfbench's span tracer looks these
    functions up by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


@pytest.fixture(scope="module")
def uncalled() -> set[str]:
    outside = set()
    for path in OUTSIDE_CALLERS:
        tree = ast.parse(path.read_text())
        outside |= _loaded_names(tree) | _traced_names(tree)
    package = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    names = set()
    for def_path, def_tree in package.items():
        for node in def_tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # the package's re-exports in __init__ are imports, not loads
            inside = any(node.name in _loaded_names(tree, node if path == def_path else None)
                         for path, tree in package.items())
            if not (inside or node.name in outside):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller(uncalled):
    assert sorted(uncalled - ALLOWED.keys()) == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_exceptions_are_still_uncalled(uncalled, name):
    # an exception that has found a caller leaves the list
    assert name in uncalled
