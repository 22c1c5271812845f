"""The benchmark patches and calls library attributes by name: every entry
of TARGETS in perfbench/tracing.py, and every library attribute that
perfbench/workloads.py uses, must exist, so that a removal or rename in
the library cannot break the benchmark unnoticed."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets() -> tuple:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
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


def test_workload_library_attributes_resolve():
    """Each `import anyonbraid.X as Y` of workloads.py binds Y to a module;
    every Y.attr it reads must resolve there, and every name it imports
    with `from anyonbraid.X import name` must exist."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("anyonbraid.") and alias.asname:
                    modules[alias.asname] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("anyonbraid"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
    assert {"braid", "cli", "gates", "symplectic", "synth"} <= set(modules)
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used
    for name, attr in sorted(used):
        assert hasattr(modules[name], attr), f"{name}.{attr}"
