"""The benchmark's tracer wraps program functions by module and name;
every pair it lists must still resolve, or traced runs break."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


_tracer = _tracer_module()
TARGETS = sorted({(entry[0], entry[1])
                  for entry in _tracer.SPANS + _tracer.COUNTERS})


@pytest.mark.parametrize("module, attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
