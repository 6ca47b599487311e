"""Per-layer timing for the traced run, from outside the program.

:class:`LayerTracer` wraps a fixed table of public functions and methods
(:data:`LAYERS`) and times every call into them while it is active. Each
thread keeps its own call stack, so a layer's *self* time is its call's
duration minus the time spent in wrapped calls nested below it: nested
layers are never counted twice, and the self times of everything under a
root call add up to at most the root's inclusive time.

Besides calls and times, the tracer records

* ``work``: a per-call count a layer reports (Keccak lanes permuted);
* ``under``: self time of wrapped layers nested below each layer, which
  gives the share of a root call the wrapped layers explain;
* ``prepare``: inclusive time of per-frame schedule preparation (the
  :data:`PREPARE` members) while inside ``transcipher_blocks``;
* counter deltas of tracked objects (keystream-engine and prepared-plaintext
  cache hits and misses), taken only while the tracer is active.

Nothing under ``src/`` changes: the wrappers are installed on the classes
and on every ``repro`` module that imported a wrapped function by name,
and are removed again on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> the (module, qualified name) of every function it times.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "keccak.squeeze": (
        ("repro.keccak.vectorized", "batched_shake128"),
        ("repro.keccak.vectorized", "BatchedShake.squeeze_words_block"),
    ),
    "ff.sample": (("repro.ff.sampling", "RejectionSampler.candidates_batch"),),
    "ff.matvec": (("repro.ff.prime", "PrimeField.batched_mat_vec"),),
    "pasta.cipher": (("repro.pasta.cipher", "Pasta.encrypt"),),
    "pasta.materials": (
        ("repro.pasta.batch", "generate_block_materials_pairs"),
        ("repro.pasta.batch", "KeystreamEngine.materials"),
        ("repro.pasta.batch", "KeystreamEngine.materials_pairs"),
    ),
    "pasta.matgen": (
        ("repro.pasta.batch", "batched_sequential_matrices"),
        ("repro.pasta.batch", "KeystreamEngine.matrix"),
    ),
    "pasta.keystream": (("repro.pasta.batch", "KeystreamEngine.keystream_pairs"),),
    "hhe.transcipher": (("repro.hhe.batched", "BatchedHheServer.transcipher_blocks"),),
    "hhe.prepared_cache": (("repro.utils.budget", "BudgetedLru.get_or_create"),),
    "fhe.encode": (("repro.fhe.batching", "BatchEncoder.encode_rows"),),
    "fhe.plain_prep": (
        ("repro.fhe.bfv", "Bfv.prepare_matrix"),
        ("repro.fhe.bfv", "Bfv.prepare_add_rows"),
        ("repro.fhe.bfv", "Bfv.prepare_mul_rows"),
    ),
    "fhe.ntt_fwd": (("repro.fhe.rns", "RnsContext.forward"),),
    "fhe.ntt_inv": (("repro.fhe.rns", "RnsContext.inverse"),),
    "fhe.matmul_mod": (("repro.fhe.rns", "RnsContext.matmul_mod"),),
    "fhe.elementwise": (
        ("repro.fhe.rns", "RnsContext.mod_add"),
        ("repro.fhe.rns", "RnsContext.mod_sub"),
        ("repro.fhe.rns", "RnsContext.mod_neg"),
        ("repro.fhe.rns", "RnsContext.mod_mul"),
    ),
    "fhe.keyswitch": (
        ("repro.fhe.engine", "RnsEngine.tensor_keyswitch"),
        ("repro.fhe.engine", "RnsEngine.tensor_keyswitch_hoisted"),
        ("repro.fhe.engine", "RnsEngine.hoisted_decompose"),
        ("repro.fhe.engine", "RnsEngine.tensor_relin"),
    ),
    "fhe.tensor_scale": (("repro.fhe.engine", "RnsEngine.tensor_scale_batch"),),
}

#: Functions whose inclusive time under ``transcipher_blocks`` is per-frame
#: schedule preparation: keystream materials and matrices, diagonal
#: extraction inside the prepared-plaintext cache builders, slot encoding,
#: and the lift and NTT of the prepared plaintexts.
PREPARE = frozenset(
    {
        "KeystreamEngine.materials",
        "KeystreamEngine.matrix",
        "BudgetedLru.get_or_create",
        "BatchEncoder.encode_rows",
        "Bfv.prepare_matrix",
        "Bfv.prepare_add_rows",
        "Bfv.prepare_mul_rows",
    }
)

#: Calls whose inclusive time is one frame of client or server work;
#: ``coverage`` is measured against them.
ROOTS = ("pasta.cipher", "hhe.transcipher")


def _engine_counters(engine) -> Dict[str, int]:
    info = engine.cache_info()
    return {"pasta.cache_hits": info.hits, "pasta.cache_misses": info.misses}


def _server_counters(server) -> Dict[str, int]:
    caches = [v for k, v in server.prepared_cache_info().items() if k != "budget"]
    return {
        "hhe.prepared_hits": int(sum(c["hits"] for c in caches)),
        "hhe.prepared_misses": int(sum(c["misses"] for c in caches)),
    }


#: Per-call work counts: lane permutations of the lockstep Keccak.
_WORK: Dict[str, Callable[[tuple], int]] = {
    "batched_shake128": lambda args: len(args[0]),
    "BatchedShake.squeeze_words_block": lambda args: args[0].n,
}

#: Classes whose instances' counters are sampled while the tracer is active.
_TRACKED: Dict[str, Callable[[object], Dict[str, int]]] = {
    "KeystreamEngine": _engine_counters,
    "BatchedHheServer": _server_counters,
}


@dataclass
class LayerStats:
    calls: int = 0
    inclusive: float = 0.0  #: outermost calls only (recursion counted once)
    self_time: float = 0.0
    work: int = 0


@dataclass
class _Frame:
    layer: str
    prepare: bool
    child: float = 0.0


@dataclass
class _ThreadState:
    stack: List[_Frame] = field(default_factory=list)
    stats: Dict[str, LayerStats] = field(default_factory=lambda: defaultdict(LayerStats))
    under: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    prepare: float = 0.0


class LayerTracer:
    """Install the :data:`LAYERS` wrappers; time calls while active.

    Use as a context manager around the whole run, and bracket each traced
    frame with :meth:`start` and :meth:`stop`. Wrapped calls made
    while inactive cost one attribute check.
    """

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._instances: Dict[int, list] = {}
        self.counters: Dict[str, int] = defaultdict(int)

    # -- installation -----------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                self._install(layer, importlib.import_module(module_name), qualname)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install(self, layer: str, module, qualname: str) -> None:
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(original, layer, qualname, owner_name))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, layer, qualname, None)
        # Rebind the name in every module that imported it with ``from``.
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro") and getattr(loaded, attr, None) is original:
                self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer: str, qualname: str, owner_name: Optional[str]):
        tracer = self
        prepare = qualname in PREPARE
        work = _WORK.get(qualname)
        tracked = _TRACKED.get(owner_name) if owner_name else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._state()
            if tracked is not None:
                tracer._track(args[0], tracked)
            if work is not None:
                state.stats[layer].work += work(args)
            frame = _Frame(layer, prepare)
            state.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                state.stack.pop()
                tracer._record(state, frame, elapsed)

        return wrapper

    # -- recording --------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    @staticmethod
    def _record(state: _ThreadState, frame: _Frame, elapsed: float) -> None:
        own = elapsed - frame.child
        stack = state.stack
        if stack:
            stack[-1].child += elapsed
        row = state.stats[frame.layer]
        row.calls += 1
        row.self_time += own
        ancestors = {f.layer for f in stack}
        if frame.layer not in ancestors:
            row.inclusive += elapsed
        for layer in ancestors - {frame.layer}:
            state.under[layer] += own
        if (
            frame.prepare
            and "hhe.transcipher" in ancestors
            and not any(f.prepare for f in stack)
        ):
            state.prepare += elapsed

    def _track(self, obj, counters) -> None:
        key = id(obj)
        if key in self._instances:
            return
        with self._lock:
            if key not in self._instances:
                self._instances[key] = [obj, counters, counters(obj)]

    # -- control ----------------------------------------------------------------

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        """Deactivate and fold the tracked objects' counter deltas in."""
        self.active = False
        with self._lock:
            instances = list(self._instances.values())
            self._instances.clear()
        for obj, counters, baseline in instances:
            for name, value in counters(obj).items():
                self.counters[name] += value - baseline[name]

    # -- results ----------------------------------------------------------------

    def stats(self) -> Dict[str, LayerStats]:
        """Per-layer totals over every thread."""
        out: Dict[str, LayerStats] = defaultdict(LayerStats)
        for state in self._threads:
            for layer, row in state.stats.items():
                total = out[layer]
                total.calls += row.calls
                total.inclusive += row.inclusive
                total.self_time += row.self_time
                total.work += row.work
        return out

    def under(self, layer: str) -> float:
        """Self time of wrapped layers nested below ``layer``, all threads."""
        return sum(state.under.get(layer, 0.0) for state in self._threads)

    @property
    def prepare_seconds(self) -> float:
        return sum(state.prepare for state in self._threads)
