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

    For 2^k diagonals ``bs = 2^(k - ceil(k/3))`` and ``giants =
    2^ceil(k/3)``, exactly (``bs * giants == t``): baby-heavy, because the
    babies share one hoisted digit decomposition while every giant step is
    a key switch of its own. That is (16, 4) at 64 diagonals, (8, 4) at 32,
    (2, 2) at 4 and (1, 2) at 2. Other t take the same giant count for the
    next power of two and ``bs = ceil(t / giants)``, with a padded last
    giant step.
    """
    if t < 1:
        raise ParameterError(f"BSGS needs a positive dimension, got {t}")
    k = (t - 1).bit_length()
    bs = -(-t // (1 << -(-k // 3)))
    return bs, -(-t // bs)


def affine_diagonals(params: PastaParams, layer: int) -> int:
    """How many generalized diagonals affine layer ``layer`` of the packed
    circuit sums.

    Layers 0..r-1 act on the whole 2t-element state (2t diagonals). The
    last layer's output keeps only its t L rows, so it is evaluated as the
    t x 2t rectangle it is: t extended diagonals
    ``E_d[j] = A[j mod t, (j + d) mod 2t]`` and one fold
    ``out = z + rot(z, t)`` by whole state elements (Halevi-Shoup's hybrid
    method), which leaves a copy of the L half in the R half.
    """
    return params.t if layer == params.rounds else 2 * params.t


def homomorphic_op_counts(params: PastaParams) -> dict:
    """Closed-form BFV op counts of one packed homomorphic PASTA evaluation.

    One evaluation of ``m = c - Trunc(pi(K))`` by
    :class:`repro.hhe.batched.BatchedHheServer` covers any number of blocks
    up to the packed capacity; a larger batch pays these counts once per
    packed group. ONE ciphertext carries the whole 2t-element state of
    every block of the group, and Mix is folded into each affine layer's
    generalized diagonals. With ``r = rounds``, ``D_i =
    affine_diagonals(params, i)`` (2t, or t for the last layer) and
    ``(bs_i, G_i) = bsgs_split(D_i)``:

    * layer 0, on the pre-rotated key upload: 2t plain muls, 2t - 1 adds,
      1 rc plain add, no rotation
    * layers 1..r (BSGS): D_i plain muls, D_i - 1 adds,
      (bs_i - 1) + (G_i - 1) rotations (hoisted babies + Horner giant
      steps), one digit decomposition shared by the babies when bs_i > 1,
      1 rc plain add; the last layer adds its fold, 1 rotation and 1 add
    * Feistel (r-1): 1 square/relin, 1 rotation, 1 mask plain mul, 1 add
    * cube: 1 square, 1 mul, 2 relins
    * final ``c - KS``: 1 packed plain add

    ``keyswitches`` counts every digit decomposition the evaluator runs:
    each relinearization, each rotation that is not hoisted (giant steps,
    the fold, the Feistel shift) and each hoisted decomposition.

    That is O(t) plain muls and O(t^(1/3)) giant-step key switches per
    layer, where one ciphertext per state element pays t^2 plain muls per
    layer side. The benchmark's check and the tests assert real runs hit
    these exactly.
    """
    width, r = 2 * params.t, params.rounds
    counts = {
        "plain_muls": width + (r - 1),
        "plain_adds": r + 2,
        "adds": (width - 1) + (r - 1),
        "squares": r,
        "muls": 1,
        "relins": r + 1,
        "rotations": r - 1,
        "decompositions": 0,
        "keyswitches": (r + 1) + (r - 1),  # relinearizations, Feistel shifts
    }
    for layer in range(1, r + 1):
        diagonals = affine_diagonals(params, layer)
        bs, giants = bsgs_split(diagonals)
        fold = int(layer == r)
        hoisted = int(bs > 1)
        counts["plain_muls"] += diagonals
        counts["adds"] += diagonals - 1 + fold
        counts["rotations"] += (bs - 1) + (giants - 1) + fold
        counts["decompositions"] += hoisted
        counts["keyswitches"] += hoisted + (giants - 1) + fold
    return counts
