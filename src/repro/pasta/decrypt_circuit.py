"""Closed forms of homomorphic PASTA decryption (the HHE server's circuit).

The server holds the FHE-encrypted key and the *public* per-block material
(nonce, counter -> matrices and round constants). "Homomorphic HHE
decryption" (paper Fig. 1) evaluates the PASTA permutation over the
encrypted state and subtracts the result from the symmetric ciphertext;
:class:`repro.hhe.batched.BatchedHheServer` runs it over slot-packed BFV
ciphertexts. This module holds the circuit's closed forms: its
multiplicative depth, the BSGS split of its affine layers, and the packed
evaluator's op counts, which tests and the benchmark check runs against.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.pasta.params import PastaParams


def multiplicative_depth(params: PastaParams) -> int:
    """Ciphertext-multiplication depth: one per Feistel round, two for the cube."""
    return (params.rounds - 1) + 2


def bsgs_split(t: int) -> tuple:
    """Baby-step/giant-step factorization ``(bs, giants)`` of a t-diagonal sum.

    For the power-of-two t of every PASTA variant the split is exact
    (``bs * giants == t``, no zero diagonals): ``bs = 2^ceil(log2(t)/2)``,
    the balanced square-ish factor. Non-power-of-two t fall back to
    ``bs = ceil(sqrt(t))`` with a padded last giant step.
    """
    if t < 1:
        raise ParameterError(f"BSGS needs a positive dimension, got {t}")
    if t & (t - 1) == 0:
        k = t.bit_length() - 1
        bs = 1 << ((k + 1) // 2)
        return bs, t // bs
    bs = int(t**0.5)
    while bs * bs < t:
        bs += 1
    return bs, -(-t // bs)


def homomorphic_op_counts(params: PastaParams) -> dict:
    """Closed-form BFV op counts of one packed homomorphic PASTA evaluation.

    One evaluation of ``m = c - Trunc(pi(K))`` by
    :class:`repro.hhe.batched.BatchedHheServer` covers any number of blocks
    up to the packed capacity; a larger batch pays these counts once per
    packed group. ONE ciphertext carries the whole 2t-element state of
    every block of the group, and Mix is folded into each affine layer's
    2t generalized diagonals. With ``r = rounds`` and
    ``(bs, G) = bsgs_split(2t)``:

    * layer 0, on the pre-rotated key upload: 2t plain muls, 2t - 1 adds,
      1 rc plain add, no rotation
    * layers 1..r (BSGS): bs*G (= 2t) plain muls, bs*G - 1 adds,
      (bs-1) + (G-1) rotations (hoisted babies + Horner giant steps), one
      digit decomposition shared by the babies when bs > 1, 1 rc plain add
    * Feistel (r-1): 1 square/relin, 1 rotation, 1 mask plain mul, 1 add
    * cube: 1 square, 1 mul, 2 relins
    * final ``c - KS``: 1 packed plain add

    That is O(t) plain muls and O(sqrt t) rotations per layer, where one
    ciphertext per state element pays t^2 plain muls per layer side. The
    benchmark's check and the tests assert real runs hit these exactly.
    """
    width, r = 2 * params.t, params.rounds
    bs, giants = bsgs_split(width)
    return {
        "plain_muls": width + r * bs * giants + (r - 1),
        "plain_adds": r + 2,
        "adds": (width - 1) + r * (bs * giants - 1) + (r - 1),
        "squares": r,
        "muls": 1,
        "relins": r + 1,
        "rotations": r * ((bs - 1) + (giants - 1)) + (r - 1),
        "decompositions": r if bs > 1 else 0,
    }
