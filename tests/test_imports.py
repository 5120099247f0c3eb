"""Every module-level import in the package is used in its module."""

import ast
from pathlib import Path

import pytest

import shiftedschur

MODULES = sorted(Path(shiftedschur.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    # A quoted annotation such as "YSpec" names what it uses in a string.
    quoted = [
        ast.parse(a.value, mode="eval")
        for n in ast.walk(tree)
        for a in (getattr(n, "annotation", None), getattr(n, "returns", None))
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    used = {n.id for t in (tree, *quoted) for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


# Called only from outside the package's own source, each for a reason.
UNCALLED = {
    "cli.py: _Parser.error": "argparse calls it on a malformed command line",
    "structconst.py: SchurExpansion.reconstruct": "the reference check of the tests' expansions",
}


def _unused_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Functions and methods that nothing in the package names: a method must
    be read as an attribute, a function as a name or an import."""
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    exported = set(shiftedschur.__all__)
    unused = []
    for module, tree in trees.items():
        scopes = [(None, tree)]
        while scopes:
            owner, scope = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node.name, node))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scopes.append((None, node))
                    name = node.name
                    qualified = f"{owner}.{name}" if owner else name
                    if (
                        name.startswith("__") and name.endswith("__")
                        or (owner is None and name in exported)
                        or name in (attributes if owner else names)
                    ):
                        continue
                    unused.append(f"{module}: {qualified}")
    return sorted(unused)


def test_every_definition_is_used_in_the_package():
    # Each exception is still defined, and still needed.
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert _unused_definitions(trees) == sorted(UNCALLED)
