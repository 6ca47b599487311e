"""Deterministic randomness for the FHE substrate, from one SHAKE256 stream.

Keeping the sampler inside the repository (instead of ``random``/``secrets``)
makes every FHE test and example reproducible bit-for-bit. The stream is
read through :class:`repro.keccak.vectorized.ShakeReader`, sized C
``hashlib`` digests that are byte-for-byte the scalar
``shake256(b"repro-fhe-rng|" + seed)`` stream, and each sampler decodes
whole byte runs with numpy. Every sampler consumes exactly the bytes of the
one-sample-at-a-time rule it documents, so keys, ciphertexts and noise
budgets are those of a scalar-sponge sampler; ``tests/test_fhe_rng.py``
pins both against such a copy. This is a *functional* sampler for a
research model — not a hardened CSPRNG deployment.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.keccak.vectorized import ShakeReader

#: Bit offsets of the four 2-bit trit candidates in a byte, in draw order.
_TRIT_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


class PolyRng:
    """Seeded sampler for the polynomial distributions BFV needs."""

    def __init__(self, seed: bytes):
        self._stream = ShakeReader(b"repro-fhe-rng|" + seed)

    def _bytes(self, count: int) -> np.ndarray:
        return np.frombuffer(self._stream.read(count), dtype=np.uint8)

    def uniform_candidates(self, modulus: int, count: int) -> np.ndarray:
        """The accepted candidates of ``count`` uniform draws mod ``modulus``.

        Each candidate is the next ``nbytes`` little-endian bytes, kept when
        below the largest multiple of ``modulus`` that fits. A run reads one
        candidate per value still missing, so no byte past the last kept
        candidate is consumed. Returns the kept candidates' bytes,
        ``(count, nbytes)`` uint8 in draw order: :func:`decode_uniform`
        reduces them to ints, and
        :func:`repro.fhe.rns.uniform_residues` straight to RNS residues.
        """
        nbytes = (modulus.bit_length() + 7) // 8 + 1
        bound = (1 << (8 * nbytes)) // modulus * modulus
        # Compared big-endian, byte by byte: the first byte that differs from
        # the bound's decides. A bound of 2^(8 nbytes) keeps every candidate.
        limit = None
        if bound < 1 << (8 * nbytes):
            limit = np.frombuffer(bound.to_bytes(nbytes, "big"), dtype=np.uint8)
        kept: List[np.ndarray] = []
        missing = count
        while missing:
            raw = self._bytes(nbytes * missing).reshape(missing, nbytes)
            if limit is not None:
                big_endian = raw[:, ::-1]
                differs = big_endian != limit
                first = differs.argmax(axis=1)
                below = differs.any(axis=1) & (
                    big_endian[np.arange(missing), first] < limit[first]
                )
                raw = raw[below]
            kept.append(raw)
            missing -= len(raw)
        return np.concatenate(kept) if kept else np.zeros((0, nbytes), dtype=np.uint8)

    def uniform_mod(self, modulus: int, count: int) -> List[int]:
        """Uniform integers in [0, modulus) by rejection sampling
        (:meth:`uniform_candidates`, reduced mod ``modulus``)."""
        return decode_uniform(self.uniform_candidates(modulus, count), modulus)

    def ternary(self, count: int) -> List[int]:
        """Uniform ternary secrets in {-1, 0, 1}.

        Each byte holds four 2-bit candidates, low bits first; the fourth
        symbol (3) is rejected for uniformity. Candidates left in the byte
        that completes the draw are discarded. A run reads one byte per
        four values still missing, so it never reads past that byte.
        """
        return self.ternary_array(count).tolist()

    def ternary_array(self, count: int) -> np.ndarray:
        """:meth:`ternary` as an int64 array."""
        kept: List[np.ndarray] = []
        missing = count
        while missing:
            raw = self._bytes(-(-missing // 4))
            trits = (raw[:, None] >> _TRIT_SHIFTS) & 3
            run = trits[trits < 3][:missing]
            kept.append(run.astype(np.int64) - 1)
            missing -= len(run)
        return np.concatenate(kept) if kept else np.zeros(0, dtype=np.int64)

    def centered_binomial(self, eta: int, count: int) -> List[int]:
        """Centered binomial noise with parameter ``eta`` (variance eta/2).

        Each sample reads ``ceil(2 eta / 8)`` bytes as a little-endian
        integer: the popcount of its low ``eta`` bits minus that of the next
        ``eta``.
        """
        return self.centered_binomial_array(eta, count).tolist()

    def centered_binomial_array(self, eta: int, count: int) -> np.ndarray:
        """:meth:`centered_binomial` as an int64 array."""
        nbytes = (2 * eta + 7) // 8
        raw = self._bytes(nbytes * count).reshape(count, nbytes)
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        a = bits[:, :eta].sum(axis=1, dtype=np.int64)
        b = bits[:, eta : 2 * eta].sum(axis=1, dtype=np.int64)
        return a - b


def decode_uniform(raw: np.ndarray, modulus: int) -> List[int]:
    """``(count, nbytes)`` candidate bytes -> their little-endian values mod ``modulus``."""
    data = np.ascontiguousarray(raw, dtype=np.uint8)
    nbytes = data.shape[-1]
    blob = data.tobytes()
    return [
        int.from_bytes(blob[i : i + nbytes], "little") % modulus
        for i in range(0, len(blob), nbytes)
    ]
