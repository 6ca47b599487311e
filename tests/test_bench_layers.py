"""Every function the frame benchmark's tracer wraps still exists.

``bench/layers.py`` times the program from outside: its ``LAYERS`` table
names (module, qualified name) targets, and ``LayerTracer._install`` looks
each one up when a traced run starts, a method through its owner's
``__dict__``. A removed or renamed target crashes the traced benchmark, so
this resolves the table the same way without installing anything.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


BENCH_LAYERS = _load_bench_layers()
TARGETS = [
    (layer, module, qualname)
    for layer, targets in BENCH_LAYERS.LAYERS.items()
    for module, qualname in targets
]


@pytest.mark.parametrize(
    "layer, module_name, qualname", TARGETS, ids=[q for _, _, q in TARGETS]
)
def test_layer_target_resolves(layer, module_name, qualname):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__[attr]), f"{layer}: {qualname}"
    else:
        assert callable(getattr(module, attr)), f"{layer}: {qualname}"


def test_per_call_tables_name_wrapped_targets():
    """PREPARE and the work counters key on qualified names in LAYERS."""
    wrapped = {qualname for _, _, qualname in TARGETS}
    assert BENCH_LAYERS.PREPARE <= wrapped
    assert set(BENCH_LAYERS._WORK) <= wrapped
