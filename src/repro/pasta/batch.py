"""Batched keystream engine: many PASTA blocks per numpy pass.

The scalar path (:mod:`repro.pasta.cipher`) derives one block at a time:
one Python Keccak permutation per 21 XOF words, one Python loop iteration
per rejection-sampled coefficient, one mat-vec per affine layer. That is
the repository's dominant cost center — every eval table, the HHE server,
and the video benchmark sit behind it. This engine converts the whole
pipeline to data-parallel execution, mirroring how the paper's hardware
overlaps XOF squeezing, rejection sampling, and MatMul across blocks:

* **XOF**: N sponge states advance in lockstep through the vectorized
  Keccak-f[1600] (:mod:`repro.keccak.vectorized`) — one ``(N, 25)``
  permutation replaces N scalar ones.
* **Sampling**: whole ``(N, W)`` word matrices are masked and filtered at
  once (paper Sec. IV-B), and the variable-length take of accepted words
  runs across *all* lanes in one cumulative-count pass — no Python loop
  over lanes anywhere on the sampling path.
* **MatGen / MatMul**: the sequential-matrix recurrence and the affine
  layers run across the batch axis (``einsum`` with overflow-safe
  accumulation from :meth:`repro.ff.prime.PrimeField.batched_mat_vec`).
* **Caching**: a per-``(nonce, counter)`` LRU keeps both the sampled
  materials and the materialized matrices, so repeated transciphering of
  the same stream — the HHE server re-deriving what the client already
  derived — never regenerates them.

Everything is bit-exact with the scalar golden model: same word stream per
lane, same accept/reject decisions, same field arithmetic. The test suite
asserts equality block-for-block and the benchmark records the speedup
(target >= 5x at batch 64 for PASTA-3).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.ff.sampling import SamplerStats
from repro.keccak.vectorized import batched_shake128
from repro.pasta.cipher import BlockMaterials, LayerMaterials
from repro.pasta.matgen import generate_matrix
from repro.pasta.params import PastaParams
from repro.pasta.xof import encode_block_seed

__all__ = [
    "KeystreamEngine",
    "generate_block_materials_batch",
    "generate_block_materials_pairs",
    "batched_sequential_matrices",
    "get_engine",
    "DEFAULT_CACHE_BLOCKS",
]

#: Default LRU capacity in cached blocks. A PASTA-3 block's materialized
#: matrices are ~1 MB (8 x 128 x 128 int64), so 64 blocks bound the cache
#: at a comfortable ~64 MB worst case.
DEFAULT_CACHE_BLOCKS = 64


class _BatchWordStream:
    """Lockstep XOF word buffers with per-lane consumption pointers.

    Lane ``n`` sees exactly the word stream ``shake128(seed_n).words()``
    would produce; the batch only changes *when* permutations happen, never
    what each lane reads.
    """

    def __init__(self, seeds: Sequence[bytes]):
        self._shake = batched_shake128(seeds)
        self.n = len(seeds)
        self.rate_words = self._shake.rate_words
        self._buf = np.empty((self.n, 0), dtype=np.uint64)
        self.pos = np.zeros(self.n, dtype=np.intp)

    @property
    def capacity(self) -> int:
        return self._buf.shape[1]

    def grow(self, blocks: int = 1) -> None:
        """Squeeze ``blocks`` more 21-word batches onto every lane."""
        new = [self._shake.squeeze_words_block() for _ in range(blocks)]
        self._buf = np.concatenate([self._buf, *new], axis=1)

    def words(self) -> np.ndarray:
        """The full ``(N, W)`` buffer (consumed words included)."""
        return self._buf


def _sample_draw(
    stream: _BatchWordStream, sampler, count: int, min_value: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` accepted candidates on *every* lane at once.

    Returns ``(values, rejected)`` with shapes ``(N, count)`` and ``(N,)``.
    The decisions are identical to running ``RejectionSampler.sample`` on
    each lane's scalar word stream: a lane's draw starts at its private
    consumption pointer and takes its first ``count`` accepted words. The
    take itself is one cumulative-count pass over the whole ``(N, W)``
    buffer — no per-lane Python loop.
    """
    while True:
        values, ok = sampler.candidates_batch(stream.words(), min_value)
        # Mask out words each lane already consumed, then rank the rest.
        avail = ok & (np.arange(stream.capacity)[None, :] >= stream.pos[:, None])
        cum = np.cumsum(avail, axis=1)
        if stream.capacity and int(cum[:, -1].min()) >= count:
            break
        # Some lane is short on accepted words — squeeze another batch for
        # every lane (lanes are in lockstep; extra words stay buffered).
        stream.grow()
    take = avail & (cum <= count)
    lane_idx, word_idx = np.nonzero(take)  # row-major: lane-grouped, ascending
    out = values[lane_idx, word_idx].reshape(stream.n, count)
    ends = word_idx.reshape(stream.n, count)[:, -1] + 1
    rejected = ends - stream.pos - count
    stream.pos = ends.astype(np.intp)
    return out, rejected


def _derive_layer_arrays(
    params: PastaParams, pairs: Sequence[Tuple[int, int]]
) -> Tuple[List[List[np.ndarray]], np.ndarray, _BatchWordStream]:
    """All sampled per-layer vectors for every pair, fully stacked.

    Returns ``(layer_values, rejected, stream)`` where
    ``layer_values[i][v]`` is the ``(N, t)`` uint64 matrix of the layer's
    v-th vector (alpha_L, alpha_R, rc_L, rc_R), ``rejected`` the per-lane
    rejection counts, and ``stream`` the word stream (its ``pos`` gives
    per-lane words consumed). No per-lane Python work happens here.
    """
    sampler = params.sampler
    t = params.t
    stream = _BatchWordStream([encode_block_seed(params, no, co) for no, co in pairs])
    # Pre-squeeze roughly the expected demand in one go; the sampler grows
    # the buffer on demand for unlucky lanes.
    expected_words = params.coefficients_per_block * sampler.expected_words_per_element
    stream.grow(max(1, int(np.ceil(expected_words * 1.05 / stream.rate_words))))

    rejected = np.zeros(len(pairs), dtype=np.int64)
    layer_values: List[List[np.ndarray]] = []
    for _ in range(params.affine_layers):
        vectors: List[np.ndarray] = []
        for min_value in (1, 1, 0, 0):  # alpha_L, alpha_R, rc_L, rc_R
            values, nrej = _sample_draw(stream, sampler, t, min_value)
            rejected += nrej
            vectors.append(values)
        layer_values.append(vectors)
    return layer_values, rejected, stream


def generate_block_materials_pairs(
    params: PastaParams, pairs: Sequence[Tuple[int, int]]
) -> List[BlockMaterials]:
    """Batched materials derivation over arbitrary ``(nonce, counter)`` pairs.

    The generalization of :func:`generate_block_materials_batch` that the
    streaming service leans on: lanes need not share a nonce, so one
    vectorized Keccak/sampling pass can cover many in-flight *frames*, not
    just consecutive counters of one frame. Bit-exact with the scalar
    derivation (values, sampler statistics, and permutation counts
    included).
    """
    pairs = [(int(n), int(c)) for n, c in pairs]
    if not pairs:
        return []
    field = params.field
    layer_values, rejected, stream = _derive_layer_arrays(params, pairs)

    use_int64 = field.dtype is np.int64
    out: List[BlockMaterials] = []
    for lane, (nonce, counter) in enumerate(pairs):
        layers = []
        for vectors in layer_values:
            arrays = []
            for values in vectors:
                if use_int64:
                    arrays.append(values[lane].astype(np.int64))
                else:
                    arrays.append(field.array(int(v) for v in values[lane]))
            layers.append(
                LayerMaterials(alpha_l=arrays[0], alpha_r=arrays[1], rc_l=arrays[2], rc_r=arrays[3])
            )
        words_consumed = int(stream.pos[lane])
        out.append(
            BlockMaterials(
                params=params,
                nonce=nonce,
                counter=counter,
                layers=tuple(layers),
                stats=SamplerStats(
                    accepted=params.coefficients_per_block, rejected=int(rejected[lane])
                ),
                # Scalar sponges squeeze lazily: consuming w words costs
                # ceil(w / 21) permutations (absorb included).
                permutations=-(-words_consumed // stream.rate_words),
            )
        )
    return out


def generate_block_materials_batch(
    params: PastaParams, nonce: int, counters: Sequence[int]
) -> List[BlockMaterials]:
    """Batched :func:`repro.pasta.cipher.generate_block_materials`.

    Returns one :class:`BlockMaterials` per counter, bit-exact with the
    scalar derivation (values, sampler statistics, and permutation counts
    included).
    """
    return generate_block_materials_pairs(params, [(nonce, int(c)) for c in counters])


def batched_sequential_matrices(params: PastaParams, alphas: np.ndarray) -> np.ndarray:
    """Materialize N sequential matrices at once: ``(N, t) -> (N, t, t)``.

    Row recurrence of paper Eq. (1) (see :mod:`repro.pasta.matgen`),
    broadcast across the batch axis. Works for both the int64 and the
    big-int object dtype; the int64 update ``shifted + feedback * alpha``
    is bounded by ``(p-1)^2 + (p-1)``, within the field's accumulation
    headroom.
    """
    field = params.field
    p = field.p
    n, t = alphas.shape
    out = np.empty((n, t, t), dtype=field.dtype)
    row = alphas.copy()
    out[:, 0, :] = row
    shifted = np.empty_like(row)
    for j in range(1, t):
        feedback = row[:, -1]
        shifted[:, 1:] = row[:, :-1]
        shifted[:, 0] = 0
        row = (shifted + feedback[:, None] * alphas) % p
        out[:, j, :] = row
    return out


@dataclass
class _CacheEntry:
    """One cached block: sampled materials + lazily materialized matrices."""

    materials: BlockMaterials
    matrices: Dict[Tuple[int, str], np.ndarray] = dataclass_field(default_factory=dict)


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss counters and current occupancy of an engine's LRU."""

    hits: int
    misses: int
    size: int
    maxsize: int


class KeystreamEngine:
    """Batched keystream generation for one parameter set, with an LRU.

    The engine is shared per :class:`PastaParams` (see :func:`get_engine`)
    so every consumer — the cipher's streaming API, the batched HHE
    server, the video pipeline — hits one materials cache. Keys are
    ``(nonce, counter)``; values carry the block's sampled materials and
    any matrices already materialized for it.
    """

    def __init__(self, params: PastaParams, cache_size: int = DEFAULT_CACHE_BLOCKS):
        if cache_size < 0:
            raise ParameterError(f"cache_size must be >= 0, got {cache_size}")
        self.params = params
        self.cache_size = cache_size
        self._cache: "OrderedDict[Tuple[int, int], _CacheEntry]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        # Engines are shared per parameter set (get_engine) and the
        # streaming service hits them from worker threads: every access to
        # the OrderedDict or the hit/miss counters goes through this lock.
        # ``OrderedDict.move_to_end`` + ``popitem`` are NOT atomic under
        # concurrent mutation — unguarded interleavings corrupt the LRU
        # order or raise KeyError mid-eviction. Derivation itself runs
        # outside the lock (it is deterministic, so a duplicated miss is
        # idempotent) to keep batched misses parallelizable.
        self._lock = threading.Lock()

    # -- cache plumbing ------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self._hits, misses=self._misses, size=len(self._cache), maxsize=self.cache_size
            )

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0

    def _insert(self, nonce: int, counter: int, entry: _CacheEntry) -> None:
        """Install one derived entry (takes the lock; don't call holding it)."""
        if self.cache_size == 0:
            return
        key = (nonce, counter)
        with self._lock:
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _entries_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[_CacheEntry]:
        """Cached entries for every (nonce, counter) pair, batch-deriving misses."""
        pairs = [(int(n), int(c)) for n, c in pairs]
        entries: Dict[Tuple[int, int], _CacheEntry] = {}
        missing: List[Tuple[int, int]] = []
        with self._lock:
            for key in pairs:
                cached = self._cache.get(key)
                if cached is not None:
                    self._hits += 1
                    self._cache.move_to_end(key)
                    entries[key] = cached
                elif key not in entries:
                    self._misses += 1
                    missing.append(key)
                    entries[key] = None  # type: ignore[assignment]
        if missing:
            for materials in generate_block_materials_pairs(self.params, missing):
                entry = _CacheEntry(materials=materials)
                entries[(materials.nonce, materials.counter)] = entry
                self._insert(materials.nonce, materials.counter, entry)
        return [entries[key] for key in pairs]

    def _entries(self, nonce: int, counters: Sequence[int]) -> List[_CacheEntry]:
        """Cached entries for every counter, batch-deriving the misses."""
        return self._entries_pairs([(nonce, c) for c in counters])

    # -- public API ----------------------------------------------------------

    def materials(self, nonce: int, counters: Sequence[int]) -> List[BlockMaterials]:
        """Block materials for every counter (cache-backed, batch-derived)."""
        return [e.materials for e in self._entries(nonce, counters)]

    def materials_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[BlockMaterials]:
        """Block materials for arbitrary (nonce, counter) pairs (cache-backed)."""
        return [e.materials for e in self._entries_pairs(pairs)]

    def matrix(self, nonce: int, counter: int, layer: int, side: str) -> np.ndarray:
        """One materialized affine matrix, cached alongside its materials."""
        (entry,) = self._entries(nonce, [counter])
        key = (layer, side)
        if key not in entry.matrices:
            alpha = getattr(entry.materials.layers[layer], f"alpha_{side}")
            entry.matrices[key] = generate_matrix(self.params.field, alpha)
        return entry.matrices[key]

    def matrix_l(self, nonce: int, counter: int, layer: int) -> np.ndarray:
        return self.matrix(nonce, counter, layer, "l")

    def matrix_r(self, nonce: int, counter: int, layer: int) -> np.ndarray:
        return self.matrix(nonce, counter, layer, "r")

    def _stacked_matrices(
        self, entries: List[_CacheEntry], layer: int, side: str
    ) -> np.ndarray:
        """(N, t, t) matrices for one layer/side, filling cache gaps batched."""
        key = (layer, side)
        todo = [i for i, e in enumerate(entries) if key not in e.matrices]
        if todo:
            alphas = np.stack(
                [getattr(entries[i].materials.layers[layer], f"alpha_{side}") for i in todo]
            )
            mats = batched_sequential_matrices(self.params, alphas)
            for slot, i in enumerate(todo):
                entries[i].matrices[key] = mats[slot]
            if len(todo) == len(entries):
                # All fresh, already in batch order — skip the re-stack copy.
                return mats
        return np.stack([e.matrices[key] for e in entries])

    def keystream_blocks(
        self, key: np.ndarray, nonce: int, counter0: int, n_blocks: int
    ) -> np.ndarray:
        """Keystream for ``n_blocks`` consecutive counters as ``(n, t)``.

        Row ``i`` equals the scalar ``Pasta.keystream_block(nonce,
        counter0 + i)`` exactly; the whole batch shares each permutation,
        sampling pass, and affine ``einsum``.
        """
        return self.keystream_pairs(
            key, [(nonce, c) for c in range(counter0, counter0 + n_blocks)]
        )

    def keystream_pairs(
        self, key: np.ndarray, pairs: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        """Keystream rows for arbitrary ``(nonce, counter)`` pairs, ``(n, t)``.

        The cross-frame workhorse of the streaming service: one vectorized
        pass covers blocks of *different* nonces (frames), so steady-state
        throughput amortizes the per-pass Keccak/sampling overhead over
        every frame currently in flight, not just one frame's blocks.
        """
        from repro.obs import get_registry, get_tracer
        from repro.obs.cycles import modeled_cycle_attributes

        params = self.params
        obs = get_registry()
        obs.histogram(
            "pasta.keystream.lanes", variant=params.name, omega=params.modulus_bits
        ).observe(len(pairs))
        with get_tracer().span(
            "pasta.keystream",
            metric="pasta.keystream.seconds",
            variant=params.name,
            omega=params.modulus_bits,
            lanes=len(pairs),
            **modeled_cycle_attributes(params, len(pairs)),
        ):
            return self._keystream_pairs(key, pairs)

    def _keystream_pairs(
        self, key: np.ndarray, pairs: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        params = self.params
        field = params.field
        n_blocks = len(pairs)
        if n_blocks <= 0:
            return field.zeros(0, params.t)
        if self.cache_size == 0 and field.dtype is np.int64:
            # Streaming fast path: a cache-less engine serves fresh
            # (nonce, counter) pairs that will never be asked for again, so
            # skip per-block BlockMaterials assembly entirely and stay in
            # stacked array-land from XOF words to keystream rows.
            with self._lock:
                self._misses += n_blocks
            layer_values, _, _ = _derive_layer_arrays(
                params, [(int(no), int(co)) for no, co in pairs]
            )
            alphas = {}
            rcs = {}
            for layer, (al, ar, rl, rr) in enumerate(layer_values):
                alphas[(layer, "l")] = al.astype(np.int64)
                alphas[(layer, "r")] = ar.astype(np.int64)
                rcs[(layer, "l")] = rl.astype(np.int64)
                rcs[(layer, "r")] = rr.astype(np.int64)
            return self._keystream_rounds(
                key,
                n_blocks,
                lambda layer, side: batched_sequential_matrices(params, alphas[(layer, side)]),
                lambda layer, side: rcs[(layer, side)],
            )
        entries = self._entries_pairs(pairs)
        return self._keystream_rounds(
            key,
            n_blocks,
            lambda layer, side: self._stacked_matrices(entries, layer, side),
            lambda layer, side: np.stack(
                [getattr(e.materials.layers[layer], f"rc_{side}") for e in entries]
            ),
        )

    def _keystream_rounds(self, key, n_blocks: int, mats_of, rc_of) -> np.ndarray:
        """The PASTA round schedule over stacked per-block state rows.

        ``mats_of(layer, side)`` / ``rc_of(layer, side)`` supply the
        ``(N, t, t)`` matrices and ``(N, t)`` round constants; both the
        cache-backed and the fused streaming path feed this one loop.
        """
        params = self.params
        field = params.field
        p = field.p
        t = params.t

        state = np.tile(np.asarray(key).reshape(1, -1), (n_blocks, 1))
        xl = state[:, :t] % p
        xr = state[:, t:] % p

        def affine(x: np.ndarray, layer: int, side: str) -> np.ndarray:
            return (field.batched_mat_vec(mats_of(layer, side), x) + rc_of(layer, side)) % p

        for i in range(params.rounds):
            xl = affine(xl, i, "l")
            xr = affine(xr, i, "r")
            s = (xl + xr) % p
            xl = (xl + s) % p
            xr = (xr + s) % p
            full = np.concatenate([xl, xr], axis=1)
            if i < params.rounds - 1:
                squares = (full[:, :-1] * full[:, :-1]) % p
                full[:, 1:] = (full[:, 1:] + squares) % p
            else:
                full = ((full * full % p) * full) % p
            xl, xr = full[:, :t], full[:, t:]
        last = params.rounds
        xl = affine(xl, last, "l")
        xr = affine(xr, last, "r")
        s = (xl + xr) % p
        xl = (xl + s) % p
        return xl


_ENGINES: Dict[PastaParams, KeystreamEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(params: PastaParams) -> KeystreamEngine:
    """The engine shared per parameter set (created on first use).

    The cipher's streaming API and the batched HHE server both draw on it,
    so they hit one :data:`DEFAULT_CACHE_BLOCKS` materials cache. Construct
    a :class:`KeystreamEngine` directly for a private instance, such as the
    cache-less one the streaming service uses. Safe to call from concurrent
    threads: a check-then-create race would otherwise hand two callers
    *different* engines, splitting the shared cache.
    """
    with _ENGINES_LOCK:
        engine = _ENGINES.get(params)
        if engine is None:
            engine = KeystreamEngine(params)
            _ENGINES[params] = engine
        return engine
