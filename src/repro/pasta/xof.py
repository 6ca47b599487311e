"""Per-block XOF instantiation for PASTA (paper Fig. 2).

The nonce and counter are *public*: the server re-derives the same matrices
and round constants when evaluating the decryption circuit homomorphically.
The exact byte-level instantiation below is self-defined (the upstream
PASTA test vectors are not reachable offline — see DESIGN.md Sec. 2); every
component of this repository (software cipher, hardware model, SoC
peripheral, HHE server) derives its randomness through this one function,
so all of them agree bit-exactly.

Layout absorbed into SHAKE128::

    "PASTA-on-Edge-v1" || t (2B BE) || rounds (1B) || p (8B BE)
                       || nonce (8B BE) || counter (8B BE)
"""

from __future__ import annotations

import operator
import struct
from typing import List, Sequence, Tuple

from repro.errors import ParameterError
from repro.keccak.shake import Shake, shake128
from repro.pasta.params import PastaParams

DOMAIN_TAG = b"PASTA-on-Edge-v1"

_U64_MAX = (1 << 64) - 1

#: The per-block tail of a seed: nonce and counter, 8 bytes big-endian each.
_NONCE_COUNTER = struct.Struct(">QQ")


def as_u64(value, name: str) -> int:
    """``value`` as a 64-bit seed word: an integer type in [0, 2^64).

    Floats and strings are refused, not truncated or parsed: a nonce of 7.5
    or ``"7"`` that silently became 7 would reuse nonce 7's keystream.
    Anything else raises :class:`ParameterError`.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        ) from None
    if not 0 <= value <= _U64_MAX:
        raise ParameterError(f"{name} must fit in 64 bits, got {value}")
    return value


def encode_block_seed(params: PastaParams, nonce: int, counter: int) -> bytes:
    """Serialize the public per-block seed material.

    Every field must fit its wire slot; an out-of-range or non-integer
    value raises :class:`ParameterError` rather than leaking
    ``struct.error`` from the packing internals.
    """
    return encode_block_seeds(params, [(nonce, counter)])[0]


def encode_block_seeds(
    params: PastaParams, pairs: Sequence[Tuple[int, int]]
) -> List[bytes]:
    """:func:`encode_block_seed` of every ``(nonce, counter)`` pair.

    The prefix every block shares (tag, t, rounds, p) is packed once, and
    each pair is validated once, by packing it: ``struct`` takes exactly
    the integers :func:`as_u64` takes (anything with ``__index__``, in
    [0, 2^64)). When a pair does not pack, :func:`as_u64` names the
    offending value in a :class:`ParameterError`.
    """
    if not 0 <= params.p <= _U64_MAX:
        raise ParameterError(f"modulus must fit in 64 bits, got {params.p}")
    prefix = DOMAIN_TAG + struct.pack(">HBQ", params.t, params.rounds, params.p)
    pack = _NONCE_COUNTER.pack
    try:
        return [prefix + pack(nonce, counter) for nonce, counter in pairs]
    except struct.error as exc:
        for nonce, counter in pairs:
            as_u64(nonce, "nonce")
            as_u64(counter, "counter")
        raise ParameterError(f"a (nonce, counter) pair does not pack: {exc}") from exc


def block_xof(params: PastaParams, nonce: int, counter: int) -> Shake:
    """SHAKE128 instance seeded with the public per-block material."""
    return shake128(encode_block_seed(params, nonce, counter))
