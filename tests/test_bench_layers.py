"""Every function the frame benchmark's tracer wraps still exists.

``bench/layers.py`` times the program from outside: its ``LAYERS`` table
names (module, qualified name) targets, and ``LayerTracer._install`` looks
each one up when a traced run starts, a method through its owner's
``__dict__``. A removed or renamed target crashes the traced benchmark, so
this resolves the table the same way without installing anything. One
traced HHE call then checks how the tracer's per-thread self times read
when schedule preparation runs on the call's ``hhe-prepare`` thread.
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


def test_traced_self_times_fit_per_thread():
    """A traced call runs schedule preparation on its ``hhe-prepare``
    thread, so the self times of all threads together exceed the caller's
    ``transcipher_blocks`` time. The bound holds per thread: the caller's
    wrapped self times fit inside its call, and the helper's inside the
    ``hhe.prepare`` spans it opened (how a per-thread bench count reads it).
    """
    import numpy as np

    from repro.fhe import BatchEncoder, Bfv
    from repro.hhe import BatchedHheServer, encrypt_key_batched, transcipher_parameters
    from repro.obs import get_tracer
    from repro.pasta import PASTA_MICRO, random_key

    n = 256
    scheme = Bfv(transcipher_parameters(PASTA_MICRO, n), seed=b"per-thread")
    sk, pk, rlk = scheme.keygen()
    encoder = BatchEncoder(n, PASTA_MICRO.p)
    server = BatchedHheServer(
        PASTA_MICRO, scheme, rlk, encoder,
        encrypt_key_batched(scheme, pk, encoder, random_key(PASTA_MICRO, seed=b"per-thread")),
        galois_keys=scheme.rotation_keygen(
            sk, BatchedHheServer.required_rotation_steps(PASTA_MICRO, n)
        ),
    )
    blocks = np.random.default_rng(3).integers(0, PASTA_MICRO.p, (4, PASTA_MICRO.t)).tolist()

    with BENCH_LAYERS.LayerTracer() as layers:
        layers.start()
        server.transcipher_blocks(blocks, 99, [0, 1, 2, 3])
        layers.stop()
    states = [state for state in layers._threads if state.stats]
    (caller,) = [state for state in states if "hhe.transcipher" in state.stats]
    helpers = [state for state in states if state is not caller]
    assert helpers, "preparation ran on the calling thread only"

    caller_self = sum(row.self_time for row in caller.stats.values())
    assert caller_self <= caller.stats["hhe.transcipher"].inclusive * (1 + 1e-9)
    helper_self = sum(row.self_time for state in helpers for row in state.stats.values())
    helper_spans = [
        span for span in get_tracer().spans_named("hhe.prepare")
        if span.thread_name.startswith("hhe-prepare")
    ]
    assert 0 < helper_self <= sum(span.duration for span in helper_spans) * (1 + 1e-9)
