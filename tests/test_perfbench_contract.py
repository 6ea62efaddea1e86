"""The benchmark's name contract: what perfbench reads of swirl by name exists.

perfbench traces swirl functions by name (spans.TRACED) and its workloads call
them through their modules, so deleting or renaming one breaks `--trace 1`
without failing any other test.
"""

import ast
import importlib.util
from pathlib import Path

import swirl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_swirl_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports perfbench's inputs by name
    _load("workloads")
    traced = _load("spans").TRACED
    assert traced
    for short, names in traced.items():
        module = getattr(swirl, short)
        for name in names:
            assert callable(getattr(module, name, None)), f"perfbench traces swirl.{short}.{name}"


def test_every_swirl_attribute_the_workloads_read_exists():
    # workloads looks swirl functions up through their modules at call time (transforms.forward),
    # so loading the file does not check them.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "swirl" for alias in node.names}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert ("transforms", "forward") in read
    for short, name in sorted(read):
        assert hasattr(getattr(swirl, short), name), f"perfbench reads swirl.{short}.{name}"
