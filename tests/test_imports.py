"""Every import in the package is used where it binds its name, and a call
graph from the package's entry points reaches every function and method."""

import ast
from pathlib import Path

import pytest

import shiftedschur

MODULES = sorted(Path(shiftedschur.__file__).parent.glob("*.py"))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unused_imports(tree: ast.Module) -> list[str]:
    """The imports whose names are not read in their scope: the module for a
    module-level import, the function (nested defs included) for one inside
    a function, such as a verb's import of the engine it runs."""
    unused = []
    for scope in (tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))):
        bound = {}
        for node in tree.body if scope is tree else ast.walk(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        # A quoted annotation such as "YSpec" names what it uses in a string.
        quoted = [
            ast.parse(a.value, mode="eval")
            for n in ast.walk(scope)
            for a in (getattr(n, "annotation", None), getattr(n, "returns", None))
            if isinstance(a, ast.Constant) and isinstance(a.value, str)
        ]
        used = {n.id for t in (scope, *quoted) for n in ast.walk(t) if isinstance(n, ast.Name)}
        unused += [f"line {line}: {name}" for name, line in bound.items() if name not in used]
    return unused


def test_unused_imports_are_found_in_functions_too():
    source = (
        "import os\n"
        "def verb():\n"
        "    from .engine import run, stale\n"
        "    import json\n"
        "    return run()\n"
    )
    assert _unused_imports(ast.parse(source)) == [
        "line 1: os", "line 3: stale", "line 4: json"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


# Called only from outside the package's own source, each for a reason.
UNCALLED = {
    "cli.py: _Parser.error": "argparse calls it on a malformed command line",
    "structconst.py: SchurExpansion.reconstruct": "the reference check of the tests' expansions",
}


def _uses(nodes) -> tuple[set, set]:
    """The names and attributes that nodes read as they run.  A nested def
    keeps its body to itself but runs its decorators and defaults here; a
    class body runs where the class is defined."""
    names, attributes = set(), set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS):
            args = node.args
            stack += [*node.decorator_list, *args.defaults, *filter(None, args.kw_defaults)]
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        stack += ast.iter_child_nodes(node)
    return names, attributes


def _unreached(trees: dict[str, ast.Module], roots=()) -> list[str]:
    """Functions and methods that a name-based call graph of the package does
    not reach.  The walk starts from cli.run, cli.main, module-level code, the
    exports, module-level dunders and roots.  A reached body reaches every
    function it names, every method it reads as an attribute and every class
    it names, and a reached class reaches its dunders."""
    defs = []  # (qualified name, name, owning class or None, body)

    def collect(module, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                collect(module, child, child.name)
            elif isinstance(child, _FUNCTIONS):
                qualified = f"{owner}.{child.name}" if owner else child.name
                defs.append((f"{module}: {qualified}", child.name, owner, child.body))
                collect(module, child, None)
            else:
                collect(module, child, owner)

    for module, tree in trees.items():
        collect(module, tree, None)
    names, attributes = _uses(stmt for tree in trees.values() for stmt in tree.body)
    names |= set(shiftedschur.__all__)
    roots = {"cli.py: run", "cli.py: main", *roots}
    unreached = defs
    while True:
        left = []
        for qualified, name, owner, body in unreached:
            dunder = name.startswith("__") and name.endswith("__")
            if (
                qualified in roots
                or name in (attributes if owner else names)
                or dunder and (owner is None or owner in names)
            ):
                more_names, more_attributes = _uses(body)
                names |= more_names
                attributes |= more_attributes
            else:
                left.append((qualified, name, owner, body))
        if len(left) == len(unreached):
            return sorted(qualified for qualified, *_ in left)
        unreached = left


def test_every_definition_is_used_in_the_package():
    # The walk reaches every function and method; each exception is still
    # defined, and still needed.
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert _unreached(trees, UNCALLED) == []
    assert set(UNCALLED) <= set(_unreached(trees))
