"""The benchmark's traced run patches library attributes by name: every
entry of TARGETS in perfbench/tracing.py must name an attribute that
exists, so that a removal in the library cannot break it unnoticed."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets() -> tuple:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no TARGETS in perfbench/tracing.py")


def test_tracer_targets_resolve():
    targets = _targets()
    assert targets
    for layer, module_name, path, _span in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            # a method is patched on the class that defines it
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), layer
        else:
            assert callable(getattr(module, path, None)), layer
