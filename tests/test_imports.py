"""Every name a library module or a script imports is used in that file."""

import ast
from pathlib import Path

import pytest

import toeplitz_bounds

PACKAGE = Path(toeplitz_bounds.__file__).parent
# __init__ imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name never read as an ast.Name; an
    attribute chain such as np.linalg.svd reads its root np as a Name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nfrom os import path, sep\nnp.pi\nsep\n"
    assert unused_imports(source) == [(2, "math"), (4, "path")]
