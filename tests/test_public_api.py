"""Every exported name has a reader in the library, the scripts or perfbench."""

import ast
import inspect
from pathlib import Path

import pytest

import toeplitz_bounds

PACKAGE = Path(toeplitz_bounds.__file__).parent
ROOT = PACKAGE.parents[1]
# __init__ only re-exports; tests do not count as readers.
READERS = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)
# name: why it stays without a reader
EXEMPT = {}


def read_names(source: str) -> set:
    """Names read in a module: loaded names, attribute names, and strings that
    equal a name (patch-point tables). A top-level def or class reading its
    own name in its body does not count."""
    names = set()

    def visit(node, owner):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != owner:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != owner:
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value != owner:
            names.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in ast.parse(source).body:
        defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        visit(node, node.name if defines else None)
    return names


def names_read_by_readers() -> set:
    return set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))


def test_every_export_has_a_reader():
    unread = set(toeplitz_bounds.__all__) - names_read_by_readers() - set(EXEMPT)
    assert sorted(unread) == []


def test_exemptions_are_exports_without_readers():
    assert set(EXEMPT) <= set(toeplitz_bounds.__all__)
    assert set(EXEMPT).isdisjoint(names_read_by_readers())


def test_the_check_ignores_a_definition_reading_itself():
    source = "def f(x):\n    return f(x - 1)\n\nclass C:\n    def g(self):\n        return C\n\nh = f\n"
    assert read_names(source) == {"f", "x"}


def test_lambda_at_rotation_is_not_exported():
    from toeplitz_bounds import circle_quad

    assert "lambda_at_rotation" not in toeplitz_bounds.__all__
    assert not hasattr(toeplitz_bounds, "lambda_at_rotation")
    assert not hasattr(circle_quad, "lambda_at_rotation")


@pytest.mark.parametrize(
    "name", ["lambda_functional", "lemma1_upper_bound", "bracket_norm", "omega_convergence_study"]
)
def test_the_rotation_grid_is_not_a_parameter(name):
    # the grid is circle_quad.ROTATIONS; a caller cannot pass another size
    assert "rotation_grid" not in inspect.signature(getattr(toeplitz_bounds, name)).parameters
