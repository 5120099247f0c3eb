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
