"""Batched keystream engine: many PASTA blocks per numpy pass.

The scalar path (:mod:`repro.pasta.cipher`) derives one block at a time:
one Python Keccak permutation per 21 XOF words, one Python loop iteration
per rejection-sampled coefficient, one mat-vec per affine layer. It stays
the reference oracle. This engine runs the same pipeline data-parallel
across blocks, mirroring how the paper's hardware overlaps XOF squeezing,
rejection sampling, and MatMul (Fig. 3):

* **XOF**: every lane is squeezed by one sized C SHAKE128 digest into one
  ``(N, W)`` word buffer (:mod:`repro.keccak.vectorized`), sized from the
  parameters' expected demand. The sampler reads the whole digest in
  place; no word is copied.
* **Sampling**: one pass per call. One ``candidates_batch`` masks every
  digested word with zero allowed, and one rank takes each lane's first
  ``4 (r + 1) t`` accepted words (a ``flatnonzero``, a search for each
  lane's start, one gather), which are every layer's alpha_L, alpha_R,
  rc_L and rc_R in the scalar draw order. A zero ranked into an alpha
  slot is the one decision the rank gets wrong: the scalar sampler
  rejects it, so those lanes alone are re-ranked with it rejected. A lane
  short of the digest re-digests every lane at twice the length. The
  stream then squeezes ``max(pre-squeezed blocks, ceil(longest lane's
  words / 21))`` blocks, exactly what on-demand squeezing would, so
  squeezes, permutation counts and every accept/reject decision match the
  scalar sampler.
* **MatGen / MatMul**: the client keystream builds no matrix. Each affine
  layer continues the Eq. (1) recurrence from the state
  (:func:`repro.pasta.matgen.recurrence_mat_vec`) for both of its sides
  at once: t per-lane dot products of length t over a ``(2t, 2N)``
  buffer whose columns are every lane's left half, then every lane's
  right half, with the field's overflow-safe accumulation
  (:meth:`repro.ff.prime.PrimeField.batched_dot`).
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.ff.sampling import SamplerStats
from repro.keccak.shake import SHAKE128_RATE_BYTES
from repro.keccak.vectorized import batched_shake128
from repro.pasta.cipher import BlockMaterials, LayerMaterials
from repro.pasta.matgen import recurrence_mat_vec
from repro.pasta.params import VECTORS_PER_LAYER, PastaParams
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


def _first_accepted(ok: np.ndarray, count: int) -> Optional[np.ndarray]:
    """Flat indices into ``ok`` of each row's first ``count`` accepted words.

    ``(rows, count)``, row-major: one ``flatnonzero`` over the whole mask,
    one search for where each row's accepts start, one gather. None when
    some row has fewer than ``count`` accepted words.
    """
    flat = np.flatnonzero(ok)
    first = np.searchsorted(flat, np.arange(ok.shape[0] + 1) * ok.shape[1])
    if int(np.diff(first).min()) < count:
        return None
    return flat[first[:-1, None] + np.arange(count)]


def _rank(
    values: np.ndarray, ok: np.ndarray, alpha_slot: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Every lane's sampled coefficients and the words it consumed.

    ``values`` and ``ok`` are the ``(N, W)`` masked candidates of every
    digested word and their acceptance with zero allowed; ``alpha_slot``
    marks the coefficient slots whose scalar draw rejects zero. Ranking the
    accepted words decides every slot but one kind: a zero ranked into an
    alpha slot, which the scalar sampler rejects, shifting every later slot
    of its lane by one word. So the first such zero of each affected lane
    is rejected and those lanes alone are ranked again, until none is left.
    Returns ``(values (N, slots), consumed (N,))``, or None when a lane is
    short of the digest. Clears the rejected zeros in ``ok``.
    """
    n, width = ok.shape
    flat = _first_accepted(ok, alpha_slot.size)
    if flat is None:
        return None
    picked = values.reshape(-1)[flat]
    lanes = np.arange(n)
    zero = (picked == 0) & alpha_slot
    while True:
        hit = zero.any(axis=1)
        lanes, zero = lanes[hit], zero[hit]
        if not lanes.size:
            return picked, flat[:, -1] - np.arange(n) * width + 1
        # Everything before each lane's first alpha-slot zero is already
        # decided; the scalar sampler rejects that zero.
        ok.reshape(-1)[flat[lanes, zero.argmax(axis=1)]] = False
        again = _first_accepted(ok[lanes], alpha_slot.size)
        if again is None:
            return None
        # Row i of ok[lanes] is row lanes[i] of ok.
        flat[lanes] = again + ((lanes - np.arange(lanes.size)) * width)[:, None]
        picked[lanes] = values.reshape(-1)[flat[lanes]]
        zero = (picked[lanes] == 0) & alpha_slot


def _sample_lanes(
    shake, sampler, t: int, layers: int, blocks: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One rejection-sampling pass over every lane's digested XOF words.

    ``shake`` is the word source, normally a
    :class:`~repro.keccak.vectorized.BatchedShake`: anything with
    ``rate_words``, ``digested_words()``, ``extend()`` and
    ``squeeze_words_block()``. One ``candidates_batch`` call masks every
    digested word and :func:`_rank` takes each lane's first
    ``layers * 4 * t`` accepted words in the scalar draw order (alpha_L,
    alpha_R, rc_L, rc_R per layer). A lane short of the digest re-digests
    every lane at twice the length and the pass runs again. The stream then
    squeezes ``max(blocks, ceil(longest lane's words / rate_words))``
    blocks: exactly what a sampler that squeezes on demand after
    pre-squeezing ``blocks`` would, so the permutation cadence is the
    scalar sponge's.

    Returns ``(values, consumed)``: ``(N, layers, 4, t)`` uint64
    coefficients and the ``(N,)`` words each lane consumed.
    """
    alpha_slot = np.arange(layers * VECTORS_PER_LAYER * t) // t % VECTORS_PER_LAYER < 2
    while True:
        ranked = _rank(*sampler.candidates_batch(shake.digested_words(), 0), alpha_slot)
        if ranked is not None:
            break
        shake.extend()
    values, consumed = ranked
    for _ in range(max(blocks, -(-int(consumed.max()) // shake.rate_words))):
        shake.squeeze_words_block()
    return values.reshape(-1, layers, VECTORS_PER_LAYER, t), consumed


def _derive_layer_arrays(
    params: PastaParams, pairs: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """All sampled per-layer vectors for every pair, fully stacked.

    Returns ``(values, consumed)``: ``values[n, i, v]`` is the uint64
    vector v (alpha_L, alpha_R, rc_L, rc_R) of layer i of lane n, and
    ``consumed[n]`` the words lane n read. Each lane is digested once,
    sized at the parameters' expected demand plus 5%, with another eighth
    and a block of margin, so a re-digest almost never happens; then
    :func:`_sample_lanes` samples every lane in one pass. No per-lane
    Python work happens here.
    """
    sampler = params.sampler
    expected_words = params.coefficients_per_block * sampler.expected_words_per_element
    blocks = max(1, int(np.ceil(expected_words * 1.05 / (SHAKE128_RATE_BYTES // 8))))
    seeds = [encode_block_seed(params, no, co) for no, co in pairs]
    shake = batched_shake128(seeds, blocks + blocks // 8 + 1)
    return _sample_lanes(shake, sampler, params.t, params.affine_layers, blocks)


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
    values, consumed = _derive_layer_arrays(params, pairs)
    values = values.astype(params.field.dtype)
    accepted = params.coefficients_per_block
    rate_words = SHAKE128_RATE_BYTES // 8
    return [
        BlockMaterials(
            params=params,
            nonce=nonce,
            counter=counter,
            layers=tuple(LayerMaterials(*vectors) for vectors in values[lane]),
            stats=SamplerStats(accepted=accepted, rejected=int(consumed[lane]) - accepted),
            # Scalar sponges squeeze lazily: consuming w words costs
            # ceil(w / 21) permutations (absorb included).
            permutations=-(-int(consumed[lane]) // rate_words),
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
        """The PASTA round schedule over stacked state columns, one per block.

        The state is ``(t, 2N)``: column n holds lane n's left half and
        column N + n its right half, so both sides of an affine layer run
        as one recurrence over 2N lanes.
        """
        params = self.params
        field = params.field
        p = field.p
        t = params.t
        n = len(pairs)
        if n <= 0:
            return field.zeros(0, t)
        # encode_block_seed refuses any nonce or counter that is not a u64.
        values, _ = _derive_layer_arrays(params, pairs)
        # (layer, t, 2N): alpha (or rc) of the left side, then the right.
        per_layer = values.transpose(1, 3, 2, 0)
        alphas = per_layer[:, :, :2].reshape(params.affine_layers, t, 2 * n).astype(field.dtype)
        rcs = per_layer[:, :, 2:].reshape(params.affine_layers, t, 2 * n).astype(field.dtype)

        def affine_mix(x: np.ndarray, layer: int) -> np.ndarray:
            y = (recurrence_mat_vec(field, alphas[layer], x) + rcs[layer]) % p
            halves = y.reshape(t, 2, n)
            s = halves.sum(axis=1) % p
            return ((halves + s[:, None, :]) % p).reshape(t, 2 * n)

        x = np.repeat(np.asarray(key).reshape(2, t).T % p, n, axis=1)
        for i in range(params.rounds):
            x = affine_mix(x, i)
            if i < params.rounds - 1:
                # Feistel S-box over the 2t-element state [L | R]: element
                # k gains element k - 1 squared, across the halves too.
                carry = (x[t - 1, :n] * x[t - 1, :n]) % p
                x[1:] = (x[1:] + (x[:-1] * x[:-1]) % p) % p
                x[0, n:] = (x[0, n:] + carry) % p
            else:
                x = ((x * x % p) * x) % p
        return np.ascontiguousarray(affine_mix(x, params.rounds)[:, :n].T)


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
