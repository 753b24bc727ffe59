"""Every private module-level name of the library has a reader in the
library, and every public module-level constant one in the library, the
scripts or perfbench."""

import ast

from test_public_api import PACKAGE, names_read_by_readers, read_names

# name: why it stays without a reader
EXEMPT: dict = {}


def assigned_names(source: str) -> set:
    """Names a module-level assignment binds."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def private_names(source: str) -> set:
    """Module-level functions, classes and constants whose names start with
    one underscore."""
    names = assigned_names(source)
    names.update(node.name for node in ast.parse(source).body if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def public_constants(source: str) -> set:
    """Module-level UPPER_CASE constants that do not start with an underscore."""
    return {name for name in assigned_names(source) if name.isupper() and not name.startswith("_")}


def library_sources() -> list:
    return [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]


def library_names() -> tuple:
    """(private names defined, names read) over the package's modules."""
    sources = library_sources()
    defined = set().union(*(private_names(src) for src in sources))
    return defined, set().union(*(read_names(src) for src in sources))


def test_every_private_name_has_a_library_reader():
    defined, read = library_names()
    assert sorted(defined - read - set(EXEMPT)) == []


def test_exemptions_are_private_names_without_readers():
    defined, read = library_names()
    assert set(EXEMPT) <= defined
    assert set(EXEMPT).isdisjoint(read)


def test_the_scan_finds_private_functions_classes_and_constants():
    source = "_A = 1\n_b: int = 2\n__all__ = []\ndef _f():\n    return _A\n\nclass _C:\n    pass\n\ndef g():\n    pass\n"
    assert private_names(source) == {"_A", "_b", "_f", "_C"}
    assert {"_f", "_C", "_b"}.isdisjoint(read_names(source))


def test_every_public_constant_has_a_reader():
    # a reader in the library, the scripts or perfbench; the assignment
    # itself does not read its name
    defined = set().union(*(public_constants(src) for src in library_sources()))
    assert sorted(defined - names_read_by_readers()) == []


def test_the_scan_finds_public_constants():
    source = "A = 1\nB_2: int = 2\n_C = 3\n__all__ = []\nd = 4\ndef E():\n    return A\n"
    assert public_constants(source) == {"A", "B_2"}
    assert "B_2" not in read_names(source)
