"""Prime-field arithmetic used by every layer of the stack.

A :class:`PrimeField` instance provides scalar and vectorized (numpy)
arithmetic modulo a prime ``p``. Two execution strategies are selected
automatically:

* **int64 fast path** when intermediate products provably fit in a signed
  64-bit integer; this covers the paper's default 17-bit modulus 65537 and
  keeps the behavioral hardware model fast enough for cycle-accurate
  simulation in pure Python, and
* **exact big-int path** (numpy ``object`` dtype) for the wide 33/54/60-bit
  moduli, where Python's arbitrary-precision integers guarantee
  correctness at the cost of speed.

Two narrower rules serve the batched keystream:

* **float64 accumulation**: a sum of ``count`` products of reduced elements
  is an exact float64 integer while ``(p - 1)^2 * count < 2^53``
  (:meth:`PrimeField.mul_accumulate_fits_float64`; true for the 17-bit
  modulus at any PASTA t), and :meth:`PrimeField.batched_dot` takes float64
  operands under that rule;
* **constant-divisor reduction**: :meth:`PrimeField.reduce_array` reduces an
  int64 array as ``x - (x // p) * p``, which numpy computes with a
  multiply-and-shift by the constant p instead of a hardware division per
  element (``%`` divides), exact for every int64 ``x``; a float64 array
  of integers in ``[0, 2^53)`` as ``x - floor(x / p) * p``, also exact.

The paper's hardware performs the same multiplications with an add-shift
reduction unit; that unit is modeled separately in :mod:`repro.ff.reduction`
and property-tested against this module.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from repro.errors import ParameterError
from repro.ff.primality import is_prime

ArrayLike = Union[np.ndarray, Sequence[int]]

_INT64_MAX = (1 << 63) - 1
#: Every integer of magnitude up to 2^53 is exact in float64.
_FLOAT64_EXACT = 1 << 53


class PrimeField:
    """Arithmetic in F_p for a prime ``p``.

    Parameters
    ----------
    p:
        The prime modulus. Primality is verified at construction (cheap,
        deterministic for < 2^64).
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ParameterError(f"modulus {p} is not prime")
        self.p = int(p)
        self.bits = self.p.bit_length()
        # Safe to multiply two reduced elements in int64?  This predicate
        # covers a *single* product only — accumulating a dot product of k
        # such products needs mul_accumulate_fits_int64(k) (or the chunked
        # reduction below), otherwise the int64 fast path silently wraps for
        # wide moduli (e.g. ~2^28..2^31.5 with t = 128).
        self._mul_fits_int64 = (self.p - 1) ** 2 <= _INT64_MAX
        self.dtype = np.int64 if self._mul_fits_int64 else object
        if self._mul_fits_int64:
            # Longest run of products that can be summed — together with one
            # already-reduced carry term (< p) — without exceeding int64.
            # The (p-1) headroom is what makes chunked accumulation sound:
            # acc < p plus chunk * (p-1)^2 <= INT64_MAX - (p-1) never wraps.
            self._acc_chunk = max(1, (_INT64_MAX - (self.p - 1)) // ((self.p - 1) ** 2 or 1))
        else:
            self._acc_chunk = 0
        #: Most products of reduced elements whose sum stays below 2^53.
        self._float_terms = (_FLOAT64_EXACT - 1) // ((self.p - 1) ** 2 or 1)

    def mul_accumulate_fits_float64(self, count: int) -> bool:
        """True iff ``count`` products of reduced elements sum exactly in float64.

        That is ``(p - 1)^2 * count < 2^53``: every product and every
        partial sum, in any order, is then an integer float64 represents
        exactly, so a float64 dot product equals the integer one. The rule
        :func:`repro.fhe.rns.uniform_residues` uses to pick float64 below
        2^53. At p = 65537 it holds for up to 2,097,151 terms; at
        p = 2^24 - 3 for 32 (so a t = 33 recurrence stays in int64).
        """
        return int(count) <= self._float_terms

    def mul_accumulate_fits_int64(self, count: int) -> bool:
        """True iff ``count`` products of reduced elements sum within int64.

        The constructor's single-product predicate is *not* sufficient for
        dot products: ``(p-1)**2 <= INT64_MAX`` admits moduli whose t-term
        accumulations overflow. Every accumulation fast path must gate on
        this (or chunk with :attr:`_acc_chunk`) instead.
        """
        if not self._mul_fits_int64:
            return False
        return (self.p - 1) ** 2 * int(count) + (self.p - 1) <= _INT64_MAX

    # -- scalar operations -------------------------------------------------

    def reduce(self, x: int) -> int:
        """Reduce an arbitrary integer into [0, p)."""
        return x % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def square(self, a: int) -> int:
        return (a * a) % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return pow(a, self.p - 2, self.p)

    def reduce_array(self, x: np.ndarray) -> np.ndarray:
        """``x mod p`` elementwise, in [0, p), for int64, float64 or object arrays.

        int64: ``x - (x // p) * p``. Floor division by a scalar runs numpy's
        divide-by-constant path (a multiply and a shift per element) where
        ``%`` issues a hardware division, and it floors, so negative ``x``
        reduce as they do under ``%``; exact for every int64 ``x``.
        float64: ``x - floor(x / p) * p``, exact for integers
        ``0 <= x < 2^53``: a correctly rounded ``x / p`` never reaches the
        integer above ``floor(x / p)``, and ``floor(x / p) * p <= x`` is
        exact. Object arrays keep ``%``.
        """
        dtype = x.dtype
        if dtype == np.int64:
            return x - (x // self.p) * self.p
        if dtype == np.float64:
            return x - np.floor(x / self.p) * self.p
        return x % self.p

    # -- array construction ------------------------------------------------

    def array(self, values: Iterable[int]) -> np.ndarray:
        """Build a reduced numpy array over this field's dtype."""
        arr = np.array(list(values) if not isinstance(values, np.ndarray) else values, dtype=object)
        arr = arr % self.p
        if self.dtype is np.int64:
            return arr.astype(np.int64)
        return arr

    def zeros(self, *shape: int) -> np.ndarray:
        if self.dtype is np.int64:
            return np.zeros(shape, dtype=np.int64)
        arr = np.empty(shape, dtype=object)
        arr[...] = 0
        return arr

    def coerce(self, arr: ArrayLike) -> np.ndarray:
        """Normalize an array-like into this field's canonical representation."""
        if isinstance(arr, np.ndarray) and arr.dtype == self.dtype:
            return arr % self.p
        return self.array(np.asarray(arr, dtype=object).ravel()).reshape(np.shape(arr))

    # -- vectorized operations ----------------------------------------------
    # All inputs are assumed reduced (elements in [0, p)); outputs are reduced.

    def vec_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def vec_sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self.p

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._mul_fits_int64:
            return (a * b) % self.p
        return (a.astype(object) * b.astype(object)) % self.p

    def scalar_mul(self, c: int, a: np.ndarray) -> np.ndarray:
        c %= self.p
        if self._mul_fits_int64:
            return (a * np.int64(c)) % self.p
        return (a.astype(object) * c) % self.p

    def dot(self, a: np.ndarray, b: np.ndarray) -> int:
        """Reduced dot product of two vectors."""
        return int(self.mat_vec(a.reshape(1, -1), b)[0])

    def mat_vec(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product over F_p with overflow-safe accumulation."""
        return self._mat_mul_any(m, v.reshape(-1, 1)).reshape(-1)

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix-matrix product over F_p with overflow-safe accumulation."""
        return self._mat_mul_any(a, b)

    def _mat_mul_any(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        inner = a.shape[-1]
        if self._mul_fits_int64:
            # Chunk the inner dimension so partial sums stay below 2^63.
            # _acc_chunk already reserves headroom for the reduced carry
            # term, so `acc + chunk_product` itself cannot wrap.
            chunk = self._acc_chunk
            if inner <= chunk:
                return (a @ b) % self.p
            acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
            for start in range(0, inner, chunk):
                end = min(start + chunk, inner)
                acc = (acc + a[:, start:end] @ b[start:end, :]) % self.p
            return acc
        return (a.astype(object) @ b.astype(object)) % self.p

    def batched_mat_vec(self, mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Per-row matrix-vector products: ``out[n] = mats[n] @ vecs[n] mod p``.

        ``mats`` is ``(N, r, t)``, ``vecs`` is ``(N, t)``; the result is
        ``(N, r)``. No production path calls it since the batched keystream
        went matrix-free (:meth:`batched_dot`); the frame benchmark's
        ``bench/layers.py`` still wraps it as its ``ff.matvec`` layer. The
        int64 path gates on the accumulation predicate (not the
        single-product one) and falls back to the same chunked reduction as
        :meth:`mat_vec` near the modulus bound.
        """
        inner = mats.shape[-1]
        if self._mul_fits_int64:
            if self.mul_accumulate_fits_int64(inner):
                return np.einsum("nij,nj->ni", mats, vecs) % self.p
            chunk = self._acc_chunk
            acc = np.zeros(mats.shape[:2], dtype=np.int64)
            for start in range(0, inner, chunk):
                end = min(start + chunk, inner)
                part = np.einsum("nij,nj->ni", mats[:, :, start:end], vecs[:, start:end])
                acc = (acc + part) % self.p
            return acc
        out = np.empty(mats.shape[:2], dtype=object)
        for n in range(mats.shape[0]):
            out[n] = (mats[n].astype(object) @ vecs[n].astype(object)) % self.p
        return out

    def batched_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-lane dot products along the leading axis, lanes innermost.

        ``a`` and ``b`` are ``(k, N)``; ``out[n] = sum_j a[j, n] * b[j, n]
        mod p``, in the operands' dtype. The step of the matrix-free affine
        layer in :func:`repro.pasta.matgen.recurrence_mat_vec`. float64
        operands take one float ``einsum`` and are refused unless the k-term
        sum is exact (:meth:`mul_accumulate_fits_float64`). int64 operands
        follow the same overflow rules as :meth:`batched_mat_vec`: one
        ``einsum`` when the k-term accumulation fits, ``_acc_chunk``-term
        partial sums when only single products do. Both reduce with
        :meth:`reduce_array`. Anything else runs big-int object arithmetic.
        """
        inner = a.shape[0]
        if a.dtype == np.float64:
            if not self.mul_accumulate_fits_float64(inner):
                raise ParameterError(
                    f"a {inner}-term float64 dot product mod {self.p} is not exact"
                )
            return self.reduce_array(np.einsum("kn,kn->n", a, b))
        if self._mul_fits_int64:
            if self.mul_accumulate_fits_int64(inner):
                return self.reduce_array(np.einsum("kn,kn->n", a, b))
            chunk = self._acc_chunk
            acc = np.zeros(a.shape[1:], dtype=np.int64)
            for start in range(0, inner, chunk):
                end = min(start + chunk, inner)
                acc = self.reduce_array(acc + np.einsum("kn,kn->n", a[start:end], b[start:end]))
            return acc
        prods = np.asarray(a, dtype=object) * np.asarray(b, dtype=object)
        return prods.sum(axis=0) % self.p

    # -- misc ----------------------------------------------------------------

    def element_bytes(self) -> int:
        """Bytes needed to serialize one reduced element."""
        return (self.bits + 7) // 8

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField(p={self.p} [{self.bits}-bit])"
