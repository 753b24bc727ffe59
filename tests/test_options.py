"""Every defaulted parameter of the library is passed somewhere in the library,
the scripts or perfbench.

A parameter with a default that no caller passes is a knob nobody turns: it
belongs in a module constant, or nowhere. Call sites are matched to
definitions by name (a call of C(...) passes the parameters of C.__init__),
so a name shared by two definitions counts its calls for both. A parameter
is passed by keyword, or by position when the call has enough positional
arguments; a call that forwards *args or **kwargs passes every parameter.
A field of a dataclass with a default is a defaulted parameter of its
class's constructor, at its place among the class's fields.
"""

import ast

from test_public_api import PACKAGE, READERS

# module.qualname.parameter: why it stays without a caller that passes it
EXEMPT = {
    "cli.main.argv": "the command line passes sys.argv; tests pass argument lists",
}


def is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated with @dataclass or @dataclass(...)."""
    names = (getattr(d.func if isinstance(d, ast.Call) else d, "id", None) for d in node.decorator_list)
    return "dataclass" in names


def defaulted_parameters(source: str, module: str) -> dict:
    """{module.qualname.parameter: (callable name, positional index or None)}
    for every parameter with a default of every def in the source, nested
    ones included, and every field with a default of every dataclass. The
    callable name of __init__ and of a field is its class's name; the index
    counts positional parameters after self or cls, or a field's place among
    its class's fields, and is None for a keyword-only parameter."""
    found = {}

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if is_dataclass(child):
                    fields = [f for f in child.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                    for index, f in enumerate(fields):
                        if f.value is not None:
                            found[".".join([module] + scope + [child.name, f.target.id])] = (child.name, index)
                visit(child, scope + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {d.id for d in child.decorator_list if isinstance(d, ast.Name)}
                bound = in_class and "staticmethod" not in decorators
                args = child.args
                positional = (args.posonlyargs + args.args)[1 if bound else 0 :]
                name = scope[-1] if bound and child.name == "__init__" else child.name
                prefix = ".".join([module] + scope + [child.name])
                for index, arg in enumerate(positional[len(positional) - len(args.defaults) :]):
                    found[f"{prefix}.{arg.arg}"] = (name, len(positional) - len(args.defaults) + index)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{prefix}.{arg.arg}"] = (name, None)
                visit(child, scope + [child.name], False)
            else:
                visit(child, scope, in_class)

    visit(ast.parse(source), [], False)
    return found


def passed_parameters(source: str) -> set:
    """(callable name, keyword) and (callable name, positional index) of
    every argument passed at a call site, and (callable name, "*") for a
    call that forwards *args or **kwargs."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            passed.add((name, "*"))
        passed.update((name, index) for index in range(len(node.args)))
        passed.update((name, k.arg) for k in node.keywords if k.arg is not None)
    return passed


def unpassed(defined: dict, passed: set) -> set:
    out = set()
    for key, (name, index) in defined.items():
        parameter = key.rsplit(".", 1)[1]
        if not {(name, "*"), (name, parameter), (name, index)} & passed:
            out.add(key)
    return out


def library_defaults() -> dict:
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defined.update(defaulted_parameters(path.read_text(encoding="utf-8"), path.stem))
    return defined


def callers_passed() -> set:
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    sources += [p.read_text(encoding="utf-8") for p in READERS if p.parent != PACKAGE]
    return set().union(*(passed_parameters(src) for src in sources))


def test_every_defaulted_parameter_is_passed_by_a_caller():
    assert sorted(unpassed(library_defaults(), callers_passed()) - set(EXEMPT)) == []


def test_exemptions_are_defaulted_parameters_nobody_passes():
    defined = library_defaults()
    assert set(EXEMPT) <= set(defined)
    assert set(EXEMPT) <= unpassed(defined, callers_passed())


def test_the_check_matches_keywords_positions_forwarding_and_constructors():
    source = (
        "def f(a, b=1, *, c=2):\n    pass\n\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n\n"
        "    def m(self, y=1, z=2):\n        pass\n\n"
        "    @staticmethod\n    def s(w=3):\n        pass\n"
    )
    defined = defaulted_parameters(source, "mod")
    assert defined == {
        "mod.f.b": ("f", 1),
        "mod.f.c": ("f", None),
        "mod.K.__init__.x": ("K", 0),
        "mod.K.m.y": ("m", 0),
        "mod.K.m.z": ("m", 1),
        "mod.K.s.w": ("s", 0),
    }
    calls = "f(0, 5)\nK()\nobj.m(z=4)\ng(*args)\ns(**kw)\n"
    assert unpassed(defined, passed_parameters(calls)) == {"mod.f.c", "mod.K.__init__.x", "mod.K.m.y"}


def test_the_check_covers_dataclass_fields_with_defaults():
    source = (
        "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 1\n    c: tuple = field(default=())\n\n"
        "@dataclass\nclass E:\n    x: float = 0.0\n\n"
        "class P:\n    y: int = 2\n"
    )
    defined = defaulted_parameters(source, "mod")
    assert defined == {"mod.D.b": ("D", 1), "mod.D.c": ("D", 2), "mod.E.x": ("E", 0)}
    calls = "D(0, 5)\nE()\n"
    assert unpassed(defined, passed_parameters(calls)) == {"mod.D.c", "mod.E.x"}
