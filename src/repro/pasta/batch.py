"""Batched keystream engine: many PASTA blocks per numpy pass.

The scalar path (:mod:`repro.pasta.cipher`) derives one block at a time:
one Python Keccak permutation per 21 XOF words, one Python loop iteration
per rejection-sampled coefficient, one mat-vec per affine layer. It stays
the reference oracle. This engine runs the same pipeline data-parallel
across blocks, mirroring how the paper's hardware overlaps XOF squeezing,
rejection sampling, and MatMul (Fig. 3):

* **XOF**: every lane is squeezed by one sized C SHAKE128 digest into one
  ``(N, W)`` word buffer (:mod:`repro.keccak.vectorized`), sized at the
  mean word demand plus five standard deviations
  (:data:`_DIGEST_SIGMAS`). The seeds share one packed prefix, and
  packing validates each pair. The sampler reads the whole digest in
  place; no word is copied.
* **Sampling**: one pass per call, at the mask's width: the low 32-bit
  half of each little-endian word when the mask has at most 32 bits
  (every 17-bit set), the whole uint64 word otherwise. One
  ``candidates_batch`` masks every digested word with zero allowed, and
  one rank takes each lane's first
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
  (:meth:`repro.ff.prime.PrimeField.batched_dot`): in float64 while
  ``(p - 1)^2 t < 2^53``, else in int64 or big-int. Every int64
  reduction (round constants, Mix, both S-boxes) divides by the constant
  p (:meth:`repro.ff.prime.PrimeField.reduce_array`).
  :func:`batched_sequential_matrices` still materializes ``(N, t, t)``
  matrices for the HHE server, which needs their diagonals.
* **One keystream path**: :meth:`KeystreamEngine.keystream_pairs` stays in
  stacked arrays from XOF words to keystream rows for every engine and
  field width; it neither reads nor fills the LRU.
* **Materials LRU**: a per-``(nonce, counter)`` LRU keeps sampled materials
  for :meth:`KeystreamEngine.materials` and
  :meth:`~KeystreamEngine.materials_pairs`; :meth:`~KeystreamEngine.matrices`
  builds from them in one batched pass and keeps no matrix. No engine is
  shared per parameter set, and the HHE server reads none: it derives
  each packed group's schedule with :func:`generate_block_materials_pairs`.

Everything is bit-exact with the scalar golden model: same word stream per
lane, same accept/reject decisions, same field arithmetic. The test suite
asserts equality block-for-block.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.ff.sampling import SamplerStats
from repro.keccak.shake import SHAKE128_RATE_BYTES
from repro.keccak.vectorized import batched_shake128
from repro.obs import get_registry, get_tracer
from repro.obs.cycles import modeled_cycle_attributes
from repro.obs.trace import counting_faults
from repro.pasta.cipher import BlockMaterials, LayerMaterials
from repro.pasta.matgen import recurrence_mat_vec
from repro.pasta.params import VECTORS_PER_LAYER, PastaParams
from repro.pasta.xof import as_u64, encode_block_seeds

__all__ = [
    "KeystreamEngine",
    "generate_block_materials_batch",
    "generate_block_materials_pairs",
    "batched_sequential_matrices",
    "DEFAULT_CACHE_BLOCKS",
]

#: Default LRU capacity in cached blocks: each holds one block's sampled
#: vectors, ``4 (r + 1) t`` field elements.
DEFAULT_CACHE_BLOCKS = 64

#: Standard deviations of word demand each lane's digest holds beyond the
#: mean. A normal tail past 5 sigma is 2.9e-7, so a 300-lane frame finds
#: some lane short (and re-digests) less than once in 10^4 frames; the
#: exact negative-binomial figure for a PASTA-4 frame is 9.1e-5.
_DIGEST_SIGMAS = 5.0


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

    When ``sampler.mask_bits <= 32`` (every 17-bit set) the pass reads the
    low 32-bit half of each little-endian digest word, the only bits the
    mask keeps, so masking, comparing and ranking run on uint32; wider
    masks read the uint64 words.

    Returns ``(values, consumed)``: ``(N, layers, 4, t)`` unsigned
    coefficients (uint32 or uint64) and the ``(N,)`` words each lane
    consumed.
    """
    alpha_slot = np.arange(layers * VECTORS_PER_LAYER * t) // t % VECTORS_PER_LAYER < 2
    while True:
        words = shake.digested_words()
        if sampler.mask_bits <= 32:
            words = words.view("<u4")[:, ::2]
        ranked = _rank(*sampler.candidates_batch(words, 0), alpha_slot)
        if ranked is not None:
            break
        shake.extend()
    values, consumed = ranked
    for _ in range(max(blocks, -(-int(consumed.max()) // shake.rate_words))):
        shake.squeeze_words_block()
    return values.reshape(-1, layers, VECTORS_PER_LAYER, t), consumed


def _digest_blocks(params: PastaParams) -> Tuple[int, int]:
    """``(squeezed, digested)`` rate blocks per lane for one block's draw.

    ``squeezed`` is the lockstep squeeze floor, the expected word demand
    plus 5%. ``digested`` sizes each lane's digest from the demand's
    distribution: the words needed for k accepted coefficients at
    acceptance a are negative binomial, mean ``k / a`` and standard
    deviation ``sqrt(k (1 - a)) / a``, and the digest holds the mean plus
    :data:`_DIGEST_SIGMAS` of them (70 blocks for PASTA-4, where the mean is
    61), never fewer than the squeeze floor.
    """
    sampler = params.sampler
    k = params.coefficients_per_block
    a = sampler.acceptance_probability
    mean = k * sampler.expected_words_per_element
    rate_words = SHAKE128_RATE_BYTES // 8
    squeezed = max(1, math.ceil(mean * 1.05 / rate_words))
    demand = mean + _DIGEST_SIGMAS * math.sqrt(k * (1 - a)) / a
    return squeezed, max(squeezed, math.ceil(demand / rate_words))


def _derive_layer_arrays(
    params: PastaParams, pairs: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """All sampled per-layer vectors for every pair, fully stacked.

    Returns ``(values, consumed)``: ``values[n, i, v]`` is the unsigned
    vector v (alpha_L, alpha_R, rc_L, rc_R) of layer i of lane n, and
    ``consumed[n]`` the words lane n read. Each lane is digested once, at
    :func:`_digest_blocks`' size, so a re-digest almost never happens;
    then :func:`_sample_lanes` samples every lane in one pass. The seeds
    share one packed prefix, and packing validates each pair. No other
    per-lane Python work happens here.
    """
    squeezed, digested = _digest_blocks(params)
    shake = batched_shake128(encode_block_seeds(params, pairs), digested)
    return _sample_lanes(shake, params.sampler, params.t, params.affine_layers, squeezed)


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
    ``(nonce, counter)``, keeps each block's sampled materials for
    :meth:`materials` and :meth:`materials_pairs`; :meth:`matrices`
    materializes from them.
    """

    def __init__(self, params: PastaParams, cache_size: int = DEFAULT_CACHE_BLOCKS):
        if cache_size < 0:
            raise ParameterError(f"cache_size must be >= 0, got {cache_size}")
        self.params = params
        self.cache_size = cache_size
        self._cache: "OrderedDict[Tuple[int, int], BlockMaterials]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        # One engine may serve several threads: every access to the
        # OrderedDict or the hit/miss counters goes through this lock.
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

    def _entries_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[BlockMaterials]:
        """Cached materials for every (nonce, counter) pair, batch-deriving misses."""
        pairs = [(as_u64(n, "nonce"), as_u64(c, "counter")) for n, c in pairs]
        entries: Dict[Tuple[int, int], BlockMaterials] = {}
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
            derived = generate_block_materials_pairs(self.params, missing)
            with self._lock:
                for key, materials in zip(missing, derived):
                    entries[key] = self._cache[key] = materials
                    self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return [entries[key] for key in pairs]

    # -- public API ----------------------------------------------------------

    def materials(self, nonce: int, counters: Sequence[int]) -> List[BlockMaterials]:
        """Block materials for every counter (cache-backed, batch-derived)."""
        return self._entries_pairs([(nonce, c) for c in counters])

    def materials_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[BlockMaterials]:
        """Block materials for arbitrary (nonce, counter) pairs (cache-backed)."""
        return self._entries_pairs(pairs)

    def matrices(self, nonce: int, counters: Sequence[int], layer: int, side: str) -> np.ndarray:
        """``(B, t, t)`` affine matrices of one layer side for B counters,
        materialized from the cached materials in one batched pass."""
        alphas = np.stack(
            [getattr(m.layers[layer], f"alpha_{side}") for m in self.materials(nonce, counters)]
        )
        return batched_sequential_matrices(self.params, alphas)

    def matrix(self, nonce: int, counter: int, layer: int, side: str) -> np.ndarray:
        """One materialized affine matrix: :meth:`matrices` for one counter."""
        return self.matrices(nonce, [counter], layer, side)[0]

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
        ) as span, counting_faults(span):
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
        mod = field.reduce_array
        t = params.t
        n = len(pairs)
        if n <= 0:
            return field.zeros(0, t)
        # Packing the seeds refuses any nonce or counter that is not a u64.
        values, _ = _derive_layer_arrays(params, pairs)
        # (layer, t, 2N): alpha (or rc) of the left side, then the right.
        per_layer = values.transpose(1, 3, 2, 0)
        alphas = per_layer[:, :, :2].reshape(params.affine_layers, t, 2 * n).astype(field.dtype)
        rcs = per_layer[:, :, 2:].reshape(params.affine_layers, t, 2 * n).astype(field.dtype)

        def affine_mix(x: np.ndarray, layer: int) -> np.ndarray:
            y = mod(recurrence_mat_vec(field, alphas[layer], x) + rcs[layer])
            halves = y.reshape(t, 2, n)
            # Mix: each half gains both halves' sum, below 3p unreduced.
            return mod(halves + halves.sum(axis=1, keepdims=True)).reshape(t, 2 * n)

        x = np.repeat(mod(np.asarray(key).reshape(2, t).T), n, axis=1)
        for i in range(params.rounds):
            x = affine_mix(x, i)
            if i < params.rounds - 1:
                # Feistel S-box over the 2t-element state [L | R]: element
                # k gains element k - 1 squared, across the halves too.
                # (p - 1) + (p - 1)^2 fits in int64 whenever (p - 1)^2 does,
                # so each sum is reduced once.
                carry = x[t - 1, :n] * x[t - 1, :n]
                x[1:] = mod(x[1:] + x[:-1] * x[:-1])
                x[0, n:] = mod(x[0, n:] + carry)
            else:
                x = mod(mod(x * x) * x)
        return np.ascontiguousarray(affine_mix(x, params.rounds)[:, :n].T)

