"""Batched keystream engine: many PASTA blocks per numpy pass.

The scalar path (:mod:`repro.pasta.cipher`) derives one block at a time:
one Python Keccak permutation per 21 XOF words, one Python loop iteration
per rejection-sampled coefficient, one mat-vec per affine layer. It stays
the reference oracle. This engine runs the same pipeline data-parallel
across blocks, mirroring how the paper's hardware overlaps XOF squeezing,
rejection sampling, and MatMul (Fig. 3):

* **XOF**: every lane is squeezed by one sized C SHAKE128 digest into one
  ``(N, W)`` word buffer (:mod:`repro.keccak.vectorized`), sized from the
  parameters' expected demand. The sampler reads views of that buffer;
  no word is copied.
* **Sampling**: each draw masks and ranks only a window of buffer columns,
  from the slowest lane's pointer to the fastest lane's plus a margin, and
  takes the accepted words of *all* lanes in one cumulative-count pass, no
  Python loop over lanes. The window widens when a lane runs short; the
  stream squeezes another block only when the whole squeezed stream is
  short, exactly when a full-buffer scan would, so squeezes and every
  accept/reject decision match the scalar sampler.
* **MatGen / MatMul**: the client keystream builds no matrix. Each affine
  layer side continues the Eq. (1) recurrence from the state
  (:func:`repro.pasta.matgen.recurrence_mat_vec`): t per-lane dot products
  of length t over a ``(2t, N)`` buffer, lanes innermost, with the field's
  overflow-safe accumulation (:meth:`repro.ff.prime.PrimeField.batched_dot`).
  :meth:`KeystreamEngine.matrices` still materializes the ``(N, t, t)``
  matrices (:func:`batched_sequential_matrices`) for the HHE server, which
  needs their diagonals.
* **One keystream path**: :meth:`KeystreamEngine.keystream_pairs` stays in
  stacked arrays from XOF words to keystream rows for every engine and
  field width; it neither reads nor fills the LRU.
* **Caching**: a per-``(nonce, counter)`` LRU keeps sampled materials and
  materialized matrices for :meth:`KeystreamEngine.materials`,
  :meth:`~KeystreamEngine.materials_pairs` and
  :meth:`~KeystreamEngine.matrices`, which the HHE server reads several
  times while preparing one frame's schedule.

Everything is bit-exact with the scalar golden model: same word stream per
lane, same accept/reject decisions, same field arithmetic. The test suite
asserts equality block-for-block.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.ff.sampling import SamplerStats
from repro.keccak.shake import SHAKE128_RATE_BYTES
from repro.keccak.vectorized import batched_shake128
from repro.pasta.cipher import BlockMaterials, LayerMaterials
from repro.pasta.matgen import recurrence_mat_vec
from repro.pasta.params import PastaParams
from repro.pasta.xof import as_u64, encode_block_seed

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
    """Lockstep XOF word streams with per-lane consumption pointers.

    Lane ``n`` sees exactly the word stream ``shake128(seed_n).words()``
    would produce; the batch only changes *when* words are squeezed, never
    what each lane reads. ``shake`` is the word source: anything with
    ``n``, ``rate_words``, ``squeeze_words_block()`` and ``words(lo, hi)``,
    normally a :class:`~repro.keccak.vectorized.BatchedShake`, whose
    digest buffer the words are read from in place.
    """

    def __init__(self, shake):
        self._shake = shake
        self.n = shake.n
        self.rate_words = shake.rate_words
        self.capacity = 0  #: words squeezed so far on every lane
        self.pos = np.zeros(self.n, dtype=np.intp)

    def grow(self, blocks: int = 1) -> None:
        """Squeeze ``blocks`` more 21-word batches onto every lane."""
        for _ in range(blocks):
            self._shake.squeeze_words_block()
        self.capacity += blocks * self.rate_words

    def words(self, lo: int, hi: int) -> np.ndarray:
        """Columns ``[lo, hi)`` of every lane (consumed words included)."""
        return self._shake.words(lo, hi)


def _sample_draw(
    stream: _BatchWordStream, sampler, count: int, min_value: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` accepted candidates on *every* lane at once.

    Returns ``(values, rejected)`` with shapes ``(N, count)`` and ``(N,)``.
    The decisions are identical to running ``RejectionSampler.sample`` on
    each lane's scalar word stream: a lane's draw starts at its private
    consumption pointer and takes its first ``count`` accepted words.

    Only a window of columns is masked and ranked: from the slowest lane's
    pointer to the fastest lane's pointer plus about twice the draw's
    expected words. When a lane runs short inside the window, the window
    widens; the stream grows only when the window already reaches the end
    of the buffer, i.e. when the whole buffer is short. A window that
    starts at the slowest pointer holds every lane's unconsumed words up to
    its end, so growth happens exactly when a full-buffer scan would grow.
    """
    pos = stream.pos
    lo = int(pos.min())
    reach = max(1, int(2 * count * sampler.expected_words_per_element))
    while True:
        hi = min(int(pos.max()) + reach, stream.capacity)
        if hi > lo:
            values, ok = sampler.candidates_batch(stream.words(lo, hi), min_value)
            # Mask out words each lane already consumed, then rank the rest.
            avail = ok & (np.arange(lo, hi)[None, :] >= pos[:, None])
            cum = np.cumsum(avail, axis=1)
            if int(cum[:, -1].min()) >= count:
                break
        if hi < stream.capacity:
            reach *= 2  # a lane runs short inside the window: widen it
        else:
            # The whole buffer is short for some lane: squeeze another batch
            # for every lane (lanes are in lockstep; extra words stay buffered).
            stream.grow()
    take = avail & (cum <= count)
    flat = np.flatnonzero(take)  # row-major: lane-grouped, ascending
    out = values.reshape(-1)[flat].reshape(stream.n, count)
    last = flat.reshape(stream.n, count)[:, -1] - np.arange(stream.n) * (hi - lo)
    ends = lo + last + 1
    rejected = ends - pos - count
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
    # Pre-squeeze roughly the expected demand in one go; the sampler grows
    # the buffer on demand for unlucky lanes. The digest behind it carries
    # another eighth, so that growth almost never has to re-digest.
    expected_words = params.coefficients_per_block * sampler.expected_words_per_element
    blocks = max(1, int(np.ceil(expected_words * 1.05 / (SHAKE128_RATE_BYTES // 8))))
    seeds = [encode_block_seed(params, no, co) for no, co in pairs]
    stream = _BatchWordStream(batched_shake128(seeds, blocks + blocks // 8 + 1))
    stream.grow(blocks)

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

    The generalization of :func:`generate_block_materials_batch`: lanes
    need not share a nonce, so one vectorized XOF/sampling pass can cover
    many in-flight *frames*, not just consecutive counters of one frame.
    Bit-exact with the scalar derivation (values, sampler statistics, and
    permutation counts included).
    """
    pairs = [(as_u64(n, "nonce"), as_u64(c, "counter")) for n, c in pairs]
    if not pairs:
        return []
    dtype = params.field.dtype
    layer_values, rejected, stream = _derive_layer_arrays(params, pairs)
    return [
        BlockMaterials(
            params=params,
            nonce=nonce,
            counter=counter,
            layers=tuple(
                LayerMaterials(*(values[lane].astype(dtype) for values in vectors))
                for vectors in layer_values
            ),
            stats=SamplerStats(
                accepted=params.coefficients_per_block, rejected=int(rejected[lane])
            ),
            # Scalar sponges squeeze lazily: consuming w words costs
            # ceil(w / 21) permutations (absorb included).
            permutations=-(-int(stream.pos[lane]) // stream.rate_words),
        )
        for lane, (nonce, counter) in enumerate(pairs)
    ]


def generate_block_materials_batch(
    params: PastaParams, nonce: int, counters: Sequence[int]
) -> List[BlockMaterials]:
    """Batched :func:`repro.pasta.cipher.generate_block_materials`.

    Returns one :class:`BlockMaterials` per counter, bit-exact with the
    scalar derivation (values, sampler statistics, and permutation counts
    included).
    """
    return generate_block_materials_pairs(params, [(nonce, c) for c in counters])


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

    :meth:`keystream_pairs` (and :meth:`keystream_blocks`) derive every
    block fresh in stacked arrays and never touch the LRU: a client
    encrypts each ``(nonce, counter)`` once. The LRU, keyed by
    ``(nonce, counter)``, serves :meth:`materials`, :meth:`materials_pairs`
    and :meth:`matrices`; each entry carries the block's sampled materials
    and any matrices already materialized for it, which the HHE server
    reads several times while preparing one frame's schedule.
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
        key = (nonce, counter)
        with self._lock:
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _entries_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[_CacheEntry]:
        """Cached entries for every (nonce, counter) pair, batch-deriving misses."""
        pairs = [(as_u64(n, "nonce"), as_u64(c, "counter")) for n, c in pairs]
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

    def matrices(self, nonce: int, counters: Sequence[int], layer: int, side: str) -> np.ndarray:
        """``(B, t, t)`` affine matrices of one layer side for B counters.

        The matrices not yet cached are materialized in one batched pass
        and kept beside their materials in the LRU.
        """
        entries = self._entries(nonce, counters)
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
        if len(entries) == 1:
            # One cached block: a view, not a copy. The scalar HHE server
            # reads one entry of it per (row, column) handle.
            return entries[0].matrices[key][None]
        return np.stack([e.matrices[key] for e in entries])

    def matrix(self, nonce: int, counter: int, layer: int, side: str) -> np.ndarray:
        """One materialized affine matrix: :meth:`matrices` for one counter."""
        return self.matrices(nonce, [counter], layer, side)[0]

    def matrix_l(self, nonce: int, counter: int, layer: int) -> np.ndarray:
        return self.matrix(nonce, counter, layer, "l")

    def matrix_r(self, nonce: int, counter: int, layer: int) -> np.ndarray:
        return self.matrix(nonce, counter, layer, "r")

    def keystream_blocks(
        self, key: np.ndarray, nonce: int, counter0: int, n_blocks: int
    ) -> np.ndarray:
        """Keystream for ``n_blocks`` consecutive counters as ``(n, t)``.

        Row ``i`` equals the scalar ``Pasta.keystream_block(nonce,
        counter0 + i)`` exactly; the whole batch shares each XOF digest
        pass, sampling pass, and affine recurrence step.
        """
        counter0 = as_u64(counter0, "counter")
        return self.keystream_pairs(
            key, [(nonce, c) for c in range(counter0, counter0 + n_blocks)]
        )

    def keystream_pairs(
        self, key: np.ndarray, pairs: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        """Keystream rows for arbitrary ``(nonce, counter)`` pairs, ``(n, t)``.

        The cross-frame workhorse of the streaming service: one vectorized
        pass covers blocks of *different* nonces (frames), so steady-state
        throughput amortizes the per-pass XOF/sampling overhead over every
        frame currently in flight, not just one frame's blocks. Every block
        is derived fresh, without reading or filling the LRU.
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
        """The PASTA round schedule over stacked state columns, one per block."""
        params = self.params
        field = params.field
        p = field.p
        t = params.t
        n_blocks = len(pairs)
        if n_blocks <= 0:
            return field.zeros(0, t)
        # encode_block_seed refuses any nonce or counter that is not a u64.
        layer_values, _, _ = _derive_layer_arrays(params, pairs)

        def affine(x: np.ndarray, layer: int, side: int) -> np.ndarray:
            # layer_values[layer] is (alpha_L, alpha_R, rc_L, rc_R); side 0 = L.
            alpha = layer_values[layer][side].T.astype(field.dtype, order="C")
            rc = layer_values[layer][2 + side].T.astype(field.dtype, order="C")
            return (recurrence_mat_vec(field, alpha, x) + rc) % p

        # Lanes innermost, (t, N) per half, as the affine recurrence wants.
        state = np.repeat(np.asarray(key).reshape(-1, 1), n_blocks, axis=1)
        xl = state[:t] % p
        xr = state[t:] % p
        for i in range(params.rounds):
            xl = affine(xl, i, 0)
            xr = affine(xr, i, 1)
            s = (xl + xr) % p
            xl = (xl + s) % p
            xr = (xr + s) % p
            full = np.concatenate([xl, xr])
            if i < params.rounds - 1:
                squares = (full[:-1] * full[:-1]) % p
                full[1:] = (full[1:] + squares) % p
            else:
                full = ((full * full % p) * full) % p
            xl, xr = full[:t], full[t:]
        last = params.rounds
        xl = affine(xl, last, 0)
        xr = affine(xr, last, 1)
        s = (xl + xr) % p
        return np.ascontiguousarray(((xl + s) % p).T)


_ENGINES: Dict[PastaParams, KeystreamEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(params: PastaParams) -> KeystreamEngine:
    """The engine shared per parameter set (created on first use).

    The cipher's streaming API derives its keystream on it (without the
    LRU), and the batched HHE servers of one parameter set share its
    :data:`DEFAULT_CACHE_BLOCKS` materials cache, which serves the repeated
    reads of one frame's schedule. A client and a server run on different
    machines in deployment, so nothing the client derives is reused by the
    server. Construct a :class:`KeystreamEngine` directly for a private
    instance, such as the cache-less one the streaming service uses. Safe
    to call from concurrent threads: a check-then-create race would
    otherwise hand two callers *different* engines, splitting the shared
    cache.
    """
    with _ENGINES_LOCK:
        engine = _ENGINES.get(params)
        if engine is None:
            engine = KeystreamEngine(params)
            _ENGINES[params] = engine
        return engine
