"""The benchmark calls and wraps package functions by module and name."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_name_the_tracer_wraps_exists():
    targets = tracer_targets()
    assert targets
    missing = [f"satguide.{module}.{name}" for module, name, _ in targets
               if not callable(getattr(importlib.import_module(
                   f"satguide.{module}"), name, None))]
    assert missing == []


def test_every_library_name_the_workloads_use_exists():
    tree = ast.parse(WORKLOADS.read_text())
    used = set()
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None \
                and node.module.split(".")[0] == "satguide":
            names = {alias.name for alias in node.names}
            if node.module == "satguide":  # submodules, imported below
                modules |= names
            else:
                used |= {(node.module, name) for name in names}
    # attributes of the package modules the workloads import by name,
    # e.g. pipeline.train_from_examples and saturation.OUTCOME_PROOF
    used |= {(f"satguide.{node.value.id}", node.attr)
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert ("satguide.pipeline", "train_from_examples") in used
    missing = [f"{module}.{name}" for module, name in sorted(used)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
