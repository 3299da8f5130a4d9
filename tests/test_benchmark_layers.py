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


# the layers a control synthesis and a quadrature observation must pass through
HOT_PATH = (
    "propagate.evolve",
    "dispersion.unit_phases",
    "fourier.forward_transform",
    "fourier.inverse_transform",
    "observe.apply_vertical_control",
    "observe.quadrature_observed_energy",
    "hum.ControlGramian",
    "hum.verify_control",
)


def test_traced_hot_path_is_not_silent(perfbench_modules, tmp_path):
    _, tracer = perfbench_modules
    import kpilab.cli

    field = str(tmp_path / "field.bin")
    steps = [
        ["random-field", "--nx", "16", "--ny", "4", "--kmax", "3", "--lmax", "1"],
        ["control", "--initial", field, "--verify-steps", "100"],
        ["observe", "--input", field, "--method", "quadrature"],
    ]
    with tracer.LayerTracer() as trace:
        for argv in steps:
            assert kpilab.cli.main(["--out", str(tmp_path)] + argv) == 0
    silent = [name for name in HOT_PATH if trace.stats[name][0] == 0]
    assert not silent, f"traced layers never called: {silent}"
