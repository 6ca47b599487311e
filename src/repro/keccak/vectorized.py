"""Batched SHAKE: N independent XOF lanes squeezed in lockstep.

The batched keystream engine reads, for every block of a frame, the word
stream ``shake128(seed).words()`` of that block's seed. The scalar sponge
(:mod:`repro.keccak.sponge` over :mod:`repro.keccak.permutation`) is the
reference oracle and the hardware model's datapath, but it walks 25 Python
integers through every round, far too slow for hundreds of lanes per
frame. Here each lane is squeezed by one sized C digest,
``hashlib.shake_128(seed).digest(n)``, into one ``(N, W)`` little-endian
``uint64`` word buffer, handed out one rate block (21 words at the
SHAKE128 rate) per :meth:`BatchedShake.squeeze_words_block` call. A
caller that must look ahead to know how many blocks it will squeeze reads
the whole digest in place with :meth:`BatchedShake.digested_words`. This
is the software form of the paper's XOF front end (Sec. IV-B, Fig. 3).

A digest cannot be resumed, so the caller states how many rate blocks it
expects to read, plus a margin. Squeezing past the end (or
:meth:`BatchedShake.extend`) re-digests every lane at twice the length:
the words are the same either way, only the cost changes.

``permutation_count`` keeps the lockstep sponge's cadence: the absorb
permutation exposes the first block and every later block costs one more,
exactly the count the scalar sponge reports after reading the same words.
The tests pin every lane to the scalar sponge and to ``hashlib``.

:class:`ShakeReader` is the one-lane byte form of the same idea, for the
SHAKE256 host streams read in sizes a caller cannot predict (the FHE
sampler :class:`repro.fhe.rng.PolyRng` and
:func:`repro.pasta.cipher.random_key`): it digests what the caller reads
and regrows by doubling, so its bytes are ``shake256(seed).read`` byte for
byte, for seeds of any length.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

__all__ = [
    "BatchedShake",
    "ShakeReader",
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
    ``shake128(seeds[n]).words()``. The words are read either one squeezed
    block at a time or, ahead of the squeezes, as the whole digest; only
    squeezes count as permutations.

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
            self.extend()
        self._emitted_blocks += 1
        w = self.rate_words
        return self._words[:, k * w : (k + 1) * w]

    def digested_words(self) -> np.ndarray:
        """Every word digested so far, ``(N, blocks * rate_words)``, read-only.

        Squeezed or not: a caller may rank words ahead of the squeezes it
        will account for. Reading never changes :attr:`permutation_count`;
        only :meth:`squeeze_words_block` stands for permutations.
        """
        return self._words

    def extend(self) -> None:
        """Re-digest every lane at twice the length; no digested word changes."""
        self._digest(2 * self._blocks)


class ShakeReader:
    """One SHAKE256 byte stream, read in order through sized C digests.

    Any sequence of :meth:`read` calls returns the bytes that the scalar
    ``shake256(seed).read`` returns for the same calls. The first read
    digests exactly the bytes asked for. A read that passes the end
    re-digests the stream from the start at twice the length (or at the
    read's end, if that is further): a digest cannot be resumed, but its
    prefix never changes. Only the unread tail is kept between reads.
    Unlike :class:`BatchedShake`, the seed may be of any length.
    """

    def __init__(self, seed: bytes):
        self._xof = hashlib.shake_256(bytes(seed))
        self._digested = 0  #: bytes in the last digest
        self._offset = 0  #: stream offset of the first unread byte
        self._tail = bytearray()  #: digested bytes not yet read

    def read(self, count: int) -> bytes:
        """The next ``count`` bytes of the stream."""
        if count > len(self._tail):
            self._digested = max(self._offset + count, 2 * self._digested)
            self._tail = bytearray(memoryview(self._xof.digest(self._digested))[self._offset :])
        out = bytes(self._tail[:count])
        del self._tail[:count]  # amortized O(count): the bytearray moves its start
        self._offset += count
        return out


def batched_shake128(seeds: Sequence[bytes], blocks: int = 1) -> BatchedShake:
    """SHAKE128 lockstep batch (rate 1344 bits, PASTA's XOF)."""
    from repro.keccak.shake import SHAKE128_RATE_BYTES

    return BatchedShake(SHAKE128_RATE_BYTES, seeds, blocks)
