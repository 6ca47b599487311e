"""The PASTA stream cipher: reference (software) implementation.

This is the functional golden model. The hardware model
(:mod:`repro.hw.accelerator`) and the RISC-V peripheral reproduce its
keystream bit-exactly; the HHE server evaluates its decryption circuit
homomorphically.

Per-block pseudo-random material is squeezed from SHAKE128 in the fixed
order of the paper's Fig. 3 schedule — for each affine layer:
``alpha_L`` (matrix first row, zero excluded), ``alpha_R``, ``rc_L``,
``rc_R`` — so the hardware's rejection-sampling decisions land on the
same words.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.ff.sampling import SamplerStats
from repro.keccak.vectorized import ShakeReader
from repro.pasta import layers as L
from repro.pasta.matgen import generate_matrix
from repro.pasta.params import PastaParams
from repro.pasta.xof import as_u64, block_xof


def field_elements(values, p: int) -> np.ndarray:
    """``values`` as an integer array; :class:`ParameterError` unless every
    element is an integer in [0, p).

    One vectorized check at the trust boundary: nothing is reduced mod p and
    no non-integer is truncated. Integer-dtype input stays on numpy; any
    other input (floats, Python ints past int64) is checked element-wise.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        arr = np.asarray(values, dtype=object)
        if not all(isinstance(v, numbers.Integral) for v in arr.flat):
            raise ParameterError("elements must be integers")
    if arr.size and not ((arr >= 0) & (arr < p)).all():
        raise ParameterError(f"elements must lie in [0, {p})")
    return arr


@dataclass(frozen=True)
class LayerMaterials:
    """Public per-layer material: two matrix seeds and two round constants."""

    alpha_l: np.ndarray
    alpha_r: np.ndarray
    rc_l: np.ndarray
    rc_r: np.ndarray


@dataclass(frozen=True)
class BlockMaterials:
    """All public pseudo-random material of one block's permutation."""

    params: PastaParams
    nonce: int
    counter: int
    layers: Tuple[LayerMaterials, ...]
    stats: SamplerStats  #: accept/reject counters over the whole block
    permutations: int  #: Keccak-f squeeze permutations consumed

    def matrix_l(self, layer: int) -> np.ndarray:
        """Materialized left-half matrix of ``layer`` (reference path)."""
        return generate_matrix(self.params.field, self.layers[layer].alpha_l)

    def matrix_r(self, layer: int) -> np.ndarray:
        """Materialized right-half matrix of ``layer``."""
        return generate_matrix(self.params.field, self.layers[layer].alpha_r)


def generate_block_materials(
    params: PastaParams,
    nonce: int,
    counter: int,
    words: Optional[Iterator[int]] = None,
) -> BlockMaterials:
    """Sample every matrix seed and round constant for one block.

    ``words`` may override the XOF word stream (the hardware model passes
    its own timed stream built over the identical XOF, so the sampled
    values — and the rejections — are the same).
    """
    shake = None
    if words is None:
        shake = block_xof(params, nonce, counter)
        words = shake.words()
    sampler = params.sampler
    accepted = 0
    rejected = 0
    layer_list: List[LayerMaterials] = []
    for _ in range(params.affine_layers):
        alpha_l, s1 = sampler.sample(words, params.t, min_value=1)
        alpha_r, s2 = sampler.sample(words, params.t, min_value=1)
        rc_l, s3 = sampler.sample(words, params.t)
        rc_r, s4 = sampler.sample(words, params.t)
        for s in (s1, s2, s3, s4):
            accepted += s.accepted
            rejected += s.rejected
        field = params.field
        layer_list.append(
            LayerMaterials(
                alpha_l=field.array(alpha_l),
                alpha_r=field.array(alpha_r),
                rc_l=field.array(rc_l),
                rc_r=field.array(rc_r),
            )
        )
    permutations = shake.permutation_count if shake is not None else -(-(accepted + rejected) // 21)
    return BlockMaterials(
        params=params,
        nonce=nonce,
        counter=counter,
        layers=tuple(layer_list),
        stats=SamplerStats(accepted=accepted, rejected=rejected),
        permutations=permutations,
    )


class Pasta:
    """PASTA-t encryption/decryption with a fixed secret key.

    Parameters
    ----------
    params:
        A :class:`~repro.pasta.params.PastaParams` instance.
    key:
        The 2t-element secret key (the permutation's input state).
    """

    def __init__(self, params: PastaParams, key: Sequence[int]):
        if len(key) != params.key_size:
            raise ParameterError(f"key must have {params.key_size} elements, got {len(key)}")
        self.params = params
        self.field = params.field
        self.key = self.field.array(key)
        #: nonce -> number of counters already consumed by :meth:`encrypt`.
        self._used_nonces: dict = {}

    # -- keystream -----------------------------------------------------------

    def keystream_block(
        self, nonce: int, counter: int, materials: Optional[BlockMaterials] = None
    ) -> np.ndarray:
        """The t-element keystream KS = Trunc(pi(K)) for one block."""
        if materials is None:
            materials = generate_block_materials(self.params, nonce, counter)
        return self.permute(self.key, materials)

    def keystream_blocks(self, nonce: int, counter0: int, n_blocks: int) -> np.ndarray:
        """Keystream for ``n_blocks`` consecutive counters as an ``(n, t)`` array.

        Runs on the batched engine (:mod:`repro.pasta.batch`): one sized
        XOF digest per block, then one rejection-sampling pass, then per
        affine layer the matrix-free recurrence over both sides
        (:func:`repro.pasta.matgen.recurrence_mat_vec`), each across the
        whole batch. Every block is derived fresh; nothing is cached.
        Bit-exact with calling :meth:`keystream_block` per counter, which
        streams the matrix rows instead.
        """
        from repro.pasta.batch import get_engine

        return get_engine(self.params).keystream_blocks(self.key, nonce, counter0, n_blocks)

    def permute(self, state: np.ndarray, materials: BlockMaterials) -> np.ndarray:
        """Apply the PASTA permutation to ``state`` and truncate."""
        params = self.params
        field = self.field
        t = params.t
        xl = field.coerce(state[:t])
        xr = field.coerce(state[t:])
        for i in range(params.rounds):
            layer = materials.layers[i]
            xl = L.affine(field, materials.matrix_l(i), xl, layer.rc_l)
            xr = L.affine(field, materials.matrix_r(i), xr, layer.rc_r)
            xl, xr = L.mix(field, xl, xr)
            full = np.concatenate([xl, xr])
            if i < params.rounds - 1:
                full = L.feistel_sbox(field, full)
            else:
                full = L.cube_sbox(field, full)
            xl, xr = full[:t], full[t:]
        final = materials.layers[params.rounds]
        xl = L.affine(field, materials.matrix_l(params.rounds), xl, final.rc_l)
        xr = L.affine(field, materials.matrix_r(params.rounds), xr, final.rc_r)
        xl, xr = L.mix(field, xl, xr)
        return L.truncate(xl)

    # -- block operations -----------------------------------------------------

    def _elements(self, values: Sequence[int]) -> np.ndarray:
        """``values`` as field elements (:func:`field_elements`)."""
        return field_elements(values, self.field.p).astype(self.field.dtype)

    def encrypt_block(self, message: Sequence[int], nonce: int, counter: int) -> np.ndarray:
        """Encrypt up to t field elements: ``c = m + KS``."""
        m = self._elements(message)
        if m.shape[0] > self.params.t:
            raise ParameterError(f"block holds at most t={self.params.t} elements")
        ks = self.keystream_block(nonce, counter)
        return self.field.vec_add(m, ks[: m.shape[0]])

    def decrypt_block(self, ciphertext: Sequence[int], nonce: int, counter: int) -> np.ndarray:
        """Decrypt up to t field elements: ``m = c - KS``."""
        c = self._elements(ciphertext)
        if c.shape[0] > self.params.t:
            raise ParameterError(f"block holds at most t={self.params.t} elements")
        ks = self.keystream_block(nonce, counter)
        return self.field.vec_sub(c, ks[: c.shape[0]])

    # -- streaming ------------------------------------------------------------

    def encrypt(
        self, message: Sequence[int], nonce: int, *, allow_nonce_reuse: bool = False
    ) -> np.ndarray:
        """Encrypt an arbitrary-length element sequence (counter = block index).

        Reusing a ``(nonce, counter)`` pair repeats the keystream — the
        classic stream-cipher footgun that hands an attacker the XOR (here:
        difference) of two plaintexts. Each instance therefore tracks the
        counter window consumed per nonce and raises
        :class:`~repro.errors.ParameterError` on overlap. Pass
        ``allow_nonce_reuse=True`` only when re-encrypting the *same*
        message deterministically (e.g. benchmarks, idempotent retries).
        """
        arr = self._elements(message)
        # Normalize before the guard keys on it: 7 and np.int64(7) are one
        # nonce, and 7.5 or "7" are none.
        nonce = as_u64(nonce, "nonce")
        self._guard_nonce(nonce, self._block_count(arr.shape[0]), allow_nonce_reuse)
        return self._stream(arr, nonce, encrypt=True)

    def decrypt(self, ciphertext: Sequence[int], nonce: int) -> np.ndarray:
        """Inverse of :meth:`encrypt` under the same nonce."""
        return self._stream(self._elements(ciphertext), nonce, encrypt=False)

    def _block_count(self, n_elements: int) -> int:
        return max(1, -(-n_elements // self.params.t))

    def _guard_nonce(self, nonce: int, n_blocks: int, allow_nonce_reuse: bool) -> None:
        used = self._used_nonces.get(nonce, 0)
        if used > 0 and not allow_nonce_reuse:
            raise ParameterError(
                f"nonce {nonce} already consumed counters [0, {used}); keystream reuse "
                "leaks plaintext differences — use a fresh nonce, or pass "
                "allow_nonce_reuse=True if re-encrypting the same message"
            )
        self._used_nonces[nonce] = max(used, n_blocks)

    def _stream(self, arr: np.ndarray, nonce: int, encrypt: bool) -> np.ndarray:
        """Add (or subtract) the keystream of counters 0, 1, ... to ``arr``."""
        n = arr.shape[0]
        ks = self.keystream_blocks(nonce, 0, -(-n // self.params.t)).reshape(-1)[:n]
        op = self.field.vec_add if encrypt else self.field.vec_sub
        return op(arr, ks)


def random_key(params: PastaParams, seed: bytes = b"pasta-key") -> np.ndarray:
    """Deterministic pseudo-random key (for tests/examples), via SHAKE256.

    The key is ``params.sampler.sample`` over the 64-bit words of
    ``shake256(b"key-derivation|" + seed)``, read through sized C digests
    and masked and filtered one run of words at a time: each run reads one
    word per key element still missing.
    """
    stream = ShakeReader(b"key-derivation|" + seed)
    key: List[int] = []
    while len(key) < params.key_size:
        words = np.frombuffer(stream.read(8 * (params.key_size - len(key))), dtype="<u8")
        values, accepted = params.sampler.candidates_batch(words)
        key += values[accepted].tolist()
    return params.field.array(key)
