"""Galois automorphisms of R = Z[x]/(x^N + 1) and the slot-rotation group.

The maps ``tau_g : a(x) -> a(x^g)`` for odd g are ring automorphisms of R.
They are the mechanism behind BFV slot *rotations*: applied to a
ciphertext (with a matching key switch, :meth:`repro.fhe.bfv.Bfv.apply_galois`)
they permute the plaintext slots of :class:`repro.fhe.batching.BatchEncoder`
without touching the encrypted values — the primitive that makes the
baby-step/giant-step diagonal method's O(t) homomorphic affine possible
(paper context: Medha microcodes rotation-heavy linear layers, BASALISC
makes the automorphism a first-class pipeline op; see PAPERS.md).

Structure of the slot group: the odd residues mod 2N form
``<3> x <-1>`` with ``ord(3) = N/2``, so the N slots arrange into a
``(2, N/2)`` hypercube (two rows of N/2 columns, see
:func:`galois_slot_order`). ``tau_{3^k}`` rotates both rows left by k
columns; ``tau_{2N-1}`` (conjugation) swaps the rows.

Both engine representations are covered:

* eval/NTT domain — ``tau_g`` is a pure index permutation of the
  transform values (:func:`eval_permutation`), O(N) on ``(L, N)`` residue
  stacks;
* coefficient domain — a signed monomial permutation
  (:func:`coeff_automorphism_maps`): coefficient i lands at ``i*g mod 2N``,
  negated when the destination wraps past N.

The eval permutation depends only on the *index structure* of the
iterative bit-reversed NTT (slot j holds the evaluation at
``psi^(2*brv(j)+1)``), never on the prime or its chosen root, so one
table serves every residue prime of an RNS chain.  The identity is pinned
numerically (forward-NTT of the monomial x + discrete log) by
``tests/test_fhe_galois.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.errors import ParameterError
from repro.fhe.ntt import bitrev_indices

__all__ = [
    "slot_exponents",
    "eval_permutation",
    "coeff_automorphism_maps",
    "galois_slot_order",
    "rotation_element",
    "conjugation_element",
    "rows_to_slots",
    "slots_to_rows",
]


def _validate_element(n: int, element: int) -> int:
    if n & (n - 1) or n < 2:
        raise ParameterError(f"N must be a power of two >= 2, got {n}")
    g = int(element) % (2 * n)
    if g % 2 == 0:
        raise ParameterError(f"Galois element must be odd mod 2N, got {element}")
    return g


@lru_cache(maxsize=64)
def slot_exponents(n: int) -> Tuple[int, ...]:
    """Root exponent per NTT output slot: slot j holds ``a(psi^e(j))``.

    For the iterative CT forward transform of :mod:`repro.fhe.ntt` the
    exponent function is ``e(j) = 2*brv(j) + 1`` — a property of the
    butterfly index structure alone, shared by every NTT-friendly prime.
    """
    if n & (n - 1) or n < 2:
        raise ParameterError(f"N must be a power of two >= 2, got {n}")
    return tuple((2 * b + 1) % (2 * n) for b in bitrev_indices(n))


@lru_cache(maxsize=256)
def _exponent_positions(n: int) -> dict:
    return {e: j for j, e in enumerate(slot_exponents(n))}


@lru_cache(maxsize=256)
def eval_permutation(n: int, element: int) -> np.ndarray:
    """Index map P of ``tau_g`` in the eval domain: ``NTT(tau_g a) = NTT(a)[P]``.

    ``(tau_g a)(psi^e) = a(psi^(e*g))``, so output slot j (exponent e(j))
    reads the input slot positioned at exponent ``e(j)*g mod 2N``.
    """
    g = _validate_element(n, element)
    exps = slot_exponents(n)
    pos = _exponent_positions(n)
    perm = np.array([pos[(e * g) % (2 * n)] for e in exps], dtype=np.intp)
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=256)
def coeff_automorphism_maps(n: int, element: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(dest, negate)`` arrays of ``tau_g`` in the coefficient domain.

    ``x^i -> x^(i*g mod 2N)`` with ``x^(n+k) = -x^k``: coefficient i moves
    to ``dest[i] = i*g mod N`` and flips sign where ``negate[i]``. ``dest``
    is a bijection of [0, N) for odd g.
    """
    g = _validate_element(n, element)
    idx = (np.arange(n, dtype=np.int64) * g) % (2 * n)
    dest = idx % n
    negate = idx >= n
    dest.setflags(write=False)
    negate.setflags(write=False)
    return dest, negate


@lru_cache(maxsize=64)
def galois_slot_order(n: int) -> np.ndarray:
    """Natural slot positions in generator order, shape ``(2, N/2)``.

    ``order[0, k]`` is the natural slot index whose root exponent is
    ``3^k mod 2N``; ``order[1, k]`` the one at ``-3^k mod 2N``. In this
    coordinate system ``tau_{3^s}`` is ``np.roll(..., -s, axis=1)`` (both
    rows rotate left by s) and ``tau_{2N-1}`` swaps the rows — the layout
    every packed-state helper below speaks.
    """
    pos = _exponent_positions(n)
    half = n // 2
    order = np.empty((2, half), dtype=np.intp)
    g = 1
    for k in range(half):
        order[0, k] = pos[g]
        order[1, k] = pos[(2 * n - g) % (2 * n)]
        g = (g * 3) % (2 * n)
    order.setflags(write=False)
    return order


def rotation_element(n: int, steps: int) -> int:
    """The Galois element rotating both hypercube rows LEFT by ``steps``.

    ``rotated[k] = original[(k + steps) mod N/2]`` in generator order.
    ``steps`` may be negative (right rotation); multiples of N/2 give the
    identity element 1.
    """
    if n & (n - 1) or n < 2:
        raise ParameterError(f"N must be a power of two >= 2, got {n}")
    return pow(3, steps % (n // 2), 2 * n)


def conjugation_element(n: int) -> int:
    """The Galois element swapping the two hypercube rows: ``g = 2N - 1``."""
    if n & (n - 1) or n < 2:
        raise ParameterError(f"N must be a power of two >= 2, got {n}")
    return 2 * n - 1


# -- packed-layout helpers (two hypercube rows, each its own logical row) --------


def rows_to_slots(n: int, rows: np.ndarray) -> np.ndarray:
    """``(R, 2, N/2)`` hypercube rows -> ``(R, N)`` natural slot vectors.

    ``rows[r, h, k]`` lands in the natural slot at generator position
    ``(h, k)`` of :func:`galois_slot_order`. ``tau_{3^s}`` then rotates
    each of the two rows left by s on its own, so a packed plaintext or
    ciphertext can carry different data in each row and still need only
    row rotations, never conjugation.
    """
    values = np.asarray(rows)
    if values.ndim != 3 or values.shape[1:] != (2, n // 2):
        raise ParameterError(f"expected (R, 2, {n // 2}) hypercube rows, got {values.shape}")
    order = galois_slot_order(n)
    slots = np.zeros((values.shape[0], n), dtype=values.dtype)
    slots[:, order[0]] = values[:, 0]
    slots[:, order[1]] = values[:, 1]
    return slots


def slots_to_rows(n: int, slots: np.ndarray) -> np.ndarray:
    """``(R, N)`` natural slot vectors -> ``(R, 2, N/2)`` hypercube rows.

    The inverse of :func:`rows_to_slots`.
    """
    values = np.asarray(slots)
    if values.ndim != 2 or values.shape[1] != n:
        raise ParameterError(f"expected (R, {n}) slot vectors, got {values.shape}")
    return values[:, galois_slot_order(n)]
