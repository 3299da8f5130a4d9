"""The benchmark's layer tracer must still find every layer it names.

``perfbench/tracer.py`` wraps each ``(module, name)`` of
``perfbench/layers.TRACED``: a function through the module attribute, a
class through ``cls.__dict__["__init__"]``. The writers' output path is read
from a fixed argument position. A refactor that renames or reshapes one of
them breaks the benchmark's traced runs; this test makes it fail here too.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    yield layers, tracer
    sys.modules.pop("tracer", None)
    sys.modules.pop("layers", None)


def test_traced_layers_exist_with_their_shape(perfbench_modules):
    layers, tracer = perfbench_modules
    for module_name, name, _ in layers.TRACED:
        module = importlib.import_module(f"kpilab.{module_name}")
        assert hasattr(module, name), f"kpilab.{module_name}.{name} is gone"
        target = getattr(module, name)
        if isinstance(target, type):
            assert "__init__" in target.__dict__, f"{name} defines no __init__ of its own"
        else:
            assert inspect.isfunction(target), f"kpilab.{module_name}.{name} is no function"
    import kpilab.storage as storage

    for name, position in tracer._PATH_ARG.items():
        params = list(inspect.signature(getattr(storage, name)).parameters)
        assert params[position] == "path", f"storage.{name} takes its path elsewhere"
    # the tracer wraps and restores every layer
    with tracer.LayerTracer():
        pass
