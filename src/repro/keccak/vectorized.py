"""Batched SHAKE: N independent XOF lanes squeezed in lockstep.

The batched keystream engine reads, for every block of a frame, the word
stream ``shake128(seed).words()`` of that block's seed. The scalar sponge
(:mod:`repro.keccak.sponge` over :mod:`repro.keccak.permutation`) is the
reference oracle and the hardware model's datapath, but it walks 25 Python
integers through every round, far too slow for hundreds of lanes per
frame. Here each lane is squeezed by one sized C digest,
``hashlib.shake_128(seed).digest(n)``, into one ``(N, W)`` little-endian
``uint64`` word buffer, handed out one rate block (21 words at the
SHAKE128 rate) per :meth:`BatchedShake.squeeze_words_block` call. This is
the software form of the paper's XOF front end (Sec. IV-B, Fig. 3).

A digest cannot be resumed, so the caller states how many rate blocks it
expects to read, plus a margin. Reading past the end re-digests every lane
at twice the length: the words are the same either way, only the cost
changes.

``permutation_count`` keeps the lockstep sponge's cadence: the absorb
permutation exposes the first block and every later block costs one more,
exactly the count the scalar sponge reports after reading the same words.
The tests pin every lane to the scalar sponge and to ``hashlib``.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

__all__ = [
    "BatchedShake",
    "batched_shake128",
]

#: Rate in bytes -> the C SHAKE instance with that rate.
_SHAKES = {168: hashlib.shake_128, 136: hashlib.shake_256}


class BatchedShake:
    """N independent SHAKE XOF streams squeezed in lockstep.

    Each row is seeded with its own message, which must fit in a single
    rate block so that one absorb permutation per lane is the whole absorb
    cost (true for every PASTA per-block seed: 43 bytes against SHAKE128's
    168-byte rate). Row ``n``'s word stream is bit-exact with
    ``shake128(seeds[n]).words()``.

    Parameters
    ----------
    rate_bytes:
        Sponge rate (168 for SHAKE128, 136 for SHAKE256).
    seeds:
        One short byte string per batch row.
    blocks:
        Rate blocks to digest up front: the number the caller expects to
        squeeze, plus a margin.
    """

    def __init__(self, rate_bytes: int, seeds: Sequence[bytes], blocks: int = 1):
        if rate_bytes not in _SHAKES:
            raise ValueError(f"rate must be one of {sorted(_SHAKES)} bytes, got {rate_bytes}")
        if not seeds:
            raise ValueError("at least one seed is required")
        for i, seed in enumerate(seeds):
            if len(seed) >= rate_bytes:
                raise ValueError(
                    f"seed {i} has {len(seed)} bytes; single-block absorb requires"
                    f" < {rate_bytes}"
                )
        self.rate_bytes = rate_bytes
        self.rate_words = rate_bytes // 8
        self.n = len(seeds)
        self._xofs = [_SHAKES[rate_bytes](bytes(seed)) for seed in seeds]
        self._emitted_blocks = 0
        self._digest(max(1, blocks))

    def _digest(self, blocks: int) -> None:
        """(Re-)digest every lane to ``blocks`` rate blocks of output."""
        raw = b"".join(xof.digest(blocks * self.rate_bytes) for xof in self._xofs)
        self._words = np.frombuffer(raw, dtype="<u8").reshape(self.n, blocks * self.rate_words)
        self._blocks = blocks

    @property
    def permutation_count(self) -> int:
        """Keccak-f permutations of the modeled sponge: absorb + squeezes."""
        return max(1, self._emitted_blocks)

    def squeeze_words_block(self) -> np.ndarray:
        """Return the next ``(N, rate_words)`` matrix of 64-bit output words.

        The matrix is a read-only view of the digest buffer. The first call
        returns the words exposed by the absorb permutation; each later
        call stands for one more permutation of every lane (21 words per
        permutation at the SHAKE128 rate).
        """
        k = self._emitted_blocks
        if k == self._blocks:
            self._digest(2 * self._blocks)
        self._emitted_blocks += 1
        w = self.rate_words
        return self._words[:, k * w : (k + 1) * w]


def batched_shake128(seeds: Sequence[bytes], blocks: int = 1) -> BatchedShake:
    """SHAKE128 lockstep batch (rate 1344 bits, PASTA's XOF)."""
    from repro.keccak.shake import SHAKE128_RATE_BYTES

    return BatchedShake(SHAKE128_RATE_BYTES, seeds, blocks)
