"""The benchmark's tracer wraps package functions by module and name."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


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
