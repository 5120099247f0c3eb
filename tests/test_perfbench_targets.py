"""The benchmark tracer's layer-boundary names must exist in the package.

The tracer (perfbench/tracer.py) looks its TARGETS up only when a traced
benchmark run starts, so a renamed function would otherwise surface there
first.  The table is read from the file without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets() -> dict:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS table in perfbench/tracer.py")


def test_tracer_targets_resolve():
    targets = _targets()
    assert targets
    for module_name, names in targets.items():
        module = importlib.import_module(f"shiftedschur.{module_name}")
        for name in names:
            if "." in name:
                # The tracer wraps the class's own attribute, not an inherited one.
                cls_name, attr = name.split(".")
                assert attr in vars(getattr(module, cls_name)), f"{module_name}.{name}"
            else:
                assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_the_division_targets_see_the_divisions(monkeypatch):
    # The divide_exact and divide_linear spans measure the division only
    # while localize and the determinant ratio still reach them by name.
    from shiftedschur import SYMBOLIC, compute_expansion, double_schur, schur, structconst

    calls = {"divide_exact": 0, "divide_linear": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(structconst, "divide_exact")
    counted(schur, "divide_linear")
    exp = compute_expansion((2, 1), (1,), 5, SYMBOLIC, method="localize")
    assert exp == compute_expansion((2, 1), (1,), 5, SYMBOLIC, method="expand")
    assert calls["divide_exact"] > 0
    assert double_schur((2, 1), 3, method="det_ratio") == double_schur((2, 1), 3)
    assert calls["divide_linear"] > 0
