"""Numpy-vectorized negacyclic NTT over a chain of NTT-friendly primes.

One :class:`VecNtt` instance transforms a whole ``(L, N)`` residue matrix
(L primes, ring degree N) per butterfly stage: each stage is a constant
number of numpy array operations instead of ``L * N`` Python-level
butterflies. This is the transform substrate of the RNS/CRT polynomial
engine (:mod:`repro.fhe.rns`) — the structure BASALISC/Medha-style FHE
datapaths use, where no multi-precision coefficient ever reaches the hot
path.

Overflow policy mirrors ``ff/prime.py``: the int64 fast path is gated on a
per-prime predicate (a product of two reduced residues, plus the reduced
carry headroom, must fit in a signed 64-bit integer — true for the default
~30-bit chains; the RNS arithmetic around the transform relies on it).
Any wider prime falls back to object-dtype numpy, which keeps the same
vectorized shape with exact big-int elements. That path serves only
wide single-prime transforms (:class:`repro.fhe.batching.BatchEncoder`
at the 33- and 54-bit plaintext primes): :class:`repro.fhe.rns.RnsContext`
refuses a ciphertext chain that would need it.

The int64 path is division-free. Each twiddle product ``x * w`` is reduced
to the *centered* residue ``t = x*w - rint(x * (w/q)) * q``, with ``w/q``
precomputed in float64 per twiddle (Shoup's precomputed quotient, as in the
lazy butterflies of Harvey, "Faster arithmetic for number-theoretic
transforms", 2014). Both integer products are taken in wrapping uint64
arithmetic: ``t`` is exact modulo 2^64 and small, so its int64 view is the
true value however far ``x * w`` overflowed.

The bound: with ``u = 2^-53`` the float quotient is within ``3u|x|`` of
``x*w/q``, so ``|t| <= q/2 + 3u*q*|x|``, below ``q`` while ``|x| < 2^50``.
Butterfly sums and differences are left unreduced. Forward (Cooley-Tukey)
stages add one product each, so from inputs below ``B`` in magnitude values
stay below ``B + q log2 N``; inverse (Gentleman-Sande) stages double the
sum branch and reduce the difference branch, so from inputs below ``q``
values stay below ``N q``. Hence the int64 kernel requires
``N (q - 1) < 2^50`` (N <= 2^18 at the widest prime
:func:`butterfly_fits_int64` admits); other primes take the object path.

Input contract. The inverse takes residues below ``q`` in magnitude. The
forward takes any integers below :data:`FORWARD_INPUT_LIMIT` = ``2^48`` in
magnitude, not only residues: then ``B + q log2 N < 2^48 + N q / 2 < 2^50``,
so every stage stays inside the float quotient's range and the final
canonicalization reduces the unreduced input exactly. A caller can hand it
a small signed coefficient vector broadcast over the limbs
(``np.broadcast_to(x[..., None, :], (..., L, N))``) instead of reducing it
mod every ``q_i`` first; the prepared plaintexts of the BFV scheme enter
it so. The object path reduces any integer input.
Nothing is reduced mid-transform: the forward canonicalizes once at the
end, and the inverse folds ``n^-1`` into its last stage, whose centered
products need only a sign fold.

Stages run in constant geometry: a forward stage pairs the two halves of
each row and interleaves its outputs, an inverse stage pairs adjacent
entries and writes halves. The slot permutation rotates one bit per stage
and is the identity after ``log2 N`` stages, so outputs keep the in-place
transform's bit-reversed order while every stage is a few numpy calls with
``N/2``-long inner loops, whatever the stack shape. Scratch is allocated
per call (one instance is shared across threads), as one block, so a call
touches few fresh pages; the caller's matrix is never copied up front
(:meth:`VecNtt._check` only converts on dtype mismatch) and never mutated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.fhe.ntt import get_ntt

_INT64_MAX = (1 << 63) - 1
#: Magnitude below which every float quotient keeps its product under q.
_FLOAT_QUOTIENT_LIMIT = 1 << 50
#: Inputs of the int64 forward transform must stay below this in magnitude;
#: they need not be reduced (module docstring).
FORWARD_INPUT_LIMIT = 1 << 48
#: Adding 1.5 * 2^52 rounds a float64 of magnitude < 2^51 to the nearest
#: integer k (ties to even), and the sum's bit pattern is ``_ROUND_BITS + k``.
_ROUND = 1.5 * 2.0**52
_ROUND_BITS = np.float64(_ROUND).view(np.uint64)


def butterfly_fits_int64(q: int) -> bool:
    """True iff a product of reduced residues mod ``q`` fits int64.

    Same shape as ``PrimeField``'s chunk-reduce predicate: ``(q-1)^2`` for
    the product plus ``(q-1)`` headroom for an already-reduced addend.
    """
    return (q - 1) * (q - 1) + (q - 1) <= _INT64_MAX


def _rotr(idx: np.ndarray, amount: int, bits: int) -> np.ndarray:
    """Rotate ``bits``-bit indices right by ``amount`` (``0 <= amount <= bits``)."""
    return ((idx >> amount) | (idx << (bits - amount))) & ((1 << bits) - 1)


class VecNtt:
    """Vectorized negacyclic NTT on ``(L, N)`` residue matrices.

    Row ``i`` lives in Z_{q_i}[x]/(x^N + 1); all rows advance through each
    Cooley-Tukey / Gentleman-Sande stage in one numpy pass. Twiddle tables
    come from the cached scalar contexts (:func:`repro.fhe.ntt.get_ntt`),
    so the vectorized and scalar transforms are bit-identical per prime.

    Inverse inputs are residue matrices: every entry bounded by ``q_i`` in
    magnitude (canonical residues always are). Forward inputs may be any
    integers below :data:`FORWARD_INPUT_LIMIT` in magnitude. Both anchor the
    int64 kernel's static bound (module docstring).
    """

    def __init__(self, n: int, primes: Sequence[int]):
        if not primes:
            raise ParameterError("at least one prime required")
        self.n = n
        self.primes = tuple(int(q) for q in primes)
        contexts = [get_ntt(n, q) for q in self.primes]  # validates each prime
        fits = all(
            butterfly_fits_int64(q) and n * (q - 1) < _FLOAT_QUOTIENT_LIMIT
            for q in self.primes
        )
        self.dtype = np.int64 if fits else object
        L = len(self.primes)
        self._q = np.array(self.primes, dtype=self.dtype).reshape(L, 1, 1)
        self._q_col = self._q.reshape(L, 1)
        self._psis = np.array([c._psis for c in contexts], dtype=self.dtype)
        self._psis_inv = np.array([c._psis_inv for c in contexts], dtype=self.dtype)
        self._n_inv = np.array([c.n_inv for c in contexts], dtype=self.dtype).reshape(L, 1)
        if self.dtype is np.int64:
            self._build_kernel_tables(n)

    def _build_kernel_tables(self, n: int) -> None:
        """Per-stage ``(w, w/q)`` pairs in constant-geometry order.

        Each table is ``(1, L, N/2)``: an unstacked call's operands then match
        it in shape, which spares numpy the broadcasting set-up per call.
        """
        q = self._q_col
        self._q_u64 = q.astype(np.uint64)
        first = np.arange(n // 2)
        bits = n.bit_length() - 1

        def table(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return w.astype(np.uint64)[None], (w / q)[None]

        # Before forward stage s, in-place index j sits at rotl^s(j): stage s
        # pairs slots (k, k + N/2), in-place j = rotr^s(k) of group
        # j // (2t) = j >> (bits - s), whose twiddle is psis[2^s + group].
        self._fwd = tuple(
            table(self._psis[:, (1 << s) + (_rotr(first, s, bits) >> (bits - s))])
            for s in range(bits)
        )
        # Before inverse stage s, in-place index j sits at rotr^s(j): stage s
        # pairs slots (2k, 2k + 1), in-place j = rotl^s(2k) of group
        # j // 2^(s+1), whose twiddle is psis_inv[N/2^(s+1) + group].
        inv = []
        for s in range(bits):
            j = _rotr(2 * first, bits - s, bits)
            w = self._psis_inv[:, (n >> (s + 1)) + (j >> (s + 1))]
            if s == bits - 1:  # last stage: fold in n^-1
                w = w * self._n_inv % q
            inv.append(table(w))
        self._inv = tuple(inv)
        self._n_inv_table = table(self._n_inv)
        self._one_table = table(np.ones_like(q))

    def _check(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat)
        if mat.ndim < 2 or mat.shape[-2:] != (len(self.primes), self.n):
            raise ParameterError(
                f"expected a (..., {len(self.primes)}, {self.n}) residue matrix, "
                f"got {mat.shape}"
            )
        if mat.dtype == self.dtype:
            return mat
        return np.array(mat, dtype=self.dtype)

    def _centered_product(self, quot: np.ndarray):
        """``product(x, table, out)``: ``out = x * w`` reduced to the centered
        residue (module docstring), through float64 scratch ``quot`` shaped
        like ``x``. ``out`` is a uint64 view and may alias ``x``; views of the
        scratch are made once per transform, not once per stage.
        """
        bits, q = quot.view(np.uint64), self._q_u64

        def product(x: np.ndarray, table, out: np.ndarray) -> None:
            w, w_over_q = table
            quot[...] = x
            np.multiply(quot, w_over_q, out=quot)
            np.add(quot, _ROUND, out=quot)
            np.subtract(bits, _ROUND_BITS, out=bits)
            np.multiply(bits, q, out=bits)
            np.multiply(x.view(np.uint64), w, out=out)
            np.subtract(out, bits, out=out)

        return product

    def _fold_negatives(self, x: np.ndarray, scratch: np.ndarray) -> None:
        """Centered residues in (-q, q) -> canonical [0, q), in place.

        As uint64 a negative ``r`` reads ``2^64 + r`` and ``r + q`` wraps to
        the canonical value, while a non-negative ``r`` is already the
        smaller one, so the minimum is canonical either way.
        """
        r = x.view(np.uint64)
        s = scratch.view(np.uint64)
        np.add(r, self._q_u64, out=s)
        np.minimum(r, s, out=r)

    def forward(self, mat: np.ndarray) -> np.ndarray:
        """Coefficient rows -> bit-reversed NTT rows (CT butterflies).

        Accepts ``(..., L, N)``: any stack of residue matrices (ciphertext
        tensors, prepared-matrix tensors) advances through each butterfly
        stage in one numpy pass; the trailing two axes are the transform.
        Entries need not be reduced: any integer below
        :data:`FORWARD_INPUT_LIMIT` in magnitude comes out as its canonical
        transform, and a read-only or broadcast view is read in place.
        """
        a = self._check(mat)
        lead = a.shape[:-2]
        L, n = a.shape[-2:]
        if self.dtype is object:
            return self._forward_eager(np.array(a, dtype=object), lead, L, n)
        half = n // 2
        x = a.reshape((-1, L, n))  # stage 0 reads the caller's matrix, never writes it
        out = np.empty(x.shape, np.int64)
        # One scratch block per call: the other ping-pong buffer, the float
        # quotients and the twiddle products.
        scratch = np.empty(x.size * 5 // 2, np.int64)
        other = scratch[: x.size].reshape(x.shape)
        quot = scratch[x.size : 2 * x.size].view(np.float64)
        prod = scratch[2 * x.size :].reshape(x.shape[:-1] + (half,))
        product = self._centered_product(quot[: prod.size].reshape(prod.shape))
        prod_bits = prod.view(np.uint64)
        # Each buffer's halves (read by a stage) and even/odd slots (written
        # by one), viewed once per transform.
        halves = [(b[..., :half], b[..., half:]) for b in (x, out, other)]
        interleaved = [b.reshape(prod.shape + (2,)) for b in (out, other)]
        slots = [(p[..., 0], p[..., 1]) for p in interleaved]
        top, bottom = halves[0]
        stages = len(self._fwd)
        for s, table in enumerate(self._fwd):
            dst = (stages - s) & 1  # the last stage lands in `other`
            product(bottom, table, prod_bits)
            even, odd = slots[dst]
            np.add(top, prod, out=even)
            np.subtract(top, prod, out=odd)
            top, bottom = halves[1 + dst]
        # One canonicalization: reduce the unreduced sums, then fold signs.
        reduce = self._centered_product(quot.reshape(x.shape))
        reduce(other, self._one_table, out.view(np.uint64))
        self._fold_negatives(out, other)
        return out.reshape(lead + (L, n))

    def _forward_eager(self, a: np.ndarray, lead: tuple, L: int, n: int) -> np.ndarray:
        t, m = n, 1
        while m < n:
            t //= 2
            view = a.reshape(lead + (L, m, 2, t))
            w = self._psis[:, m : 2 * m].reshape(L, m, 1)
            u = view[..., 0, :]
            v = (view[..., 1, :] * w) % self._q
            total = (u + v) % self._q
            diff = (u - v) % self._q
            view[..., 0, :] = total
            view[..., 1, :] = diff
            m *= 2
        return a

    def inverse(self, mat: np.ndarray) -> np.ndarray:
        """Bit-reversed NTT rows -> coefficient rows (GS butterflies).

        Accepts ``(..., L, N)`` like :meth:`forward`.
        """
        a = self._check(mat)
        lead = a.shape[:-2]
        L, n = a.shape[-2:]
        if self.dtype is object:
            return self._inverse_eager(np.array(a, dtype=object), lead, L, n)
        half = n // 2
        x = a.reshape((-1, L, n))  # stage 0 reads the caller's matrix, never writes it
        out = np.empty(x.shape, np.int64)
        # One scratch block per call: the other ping-pong buffer and the
        # float quotients.
        scratch = np.empty(x.size * 3 // 2, np.int64)
        other = scratch[: x.size].reshape(x.shape)
        quot = scratch[x.size :].view(np.float64).reshape(x.shape[:-1] + (half,))
        product = self._centered_product(quot)
        # Each buffer's adjacent pairs (read by a stage) and halves (written
        # by one), viewed once per transform.
        pairs = [(b[..., 0::2], b[..., 1::2]) for b in (x, other, out)]
        halves = [
            (b[..., :half], b[..., half:], b.view(np.uint64)[..., half:]) for b in (other, out)
        ]
        u, v = pairs[0]
        stages = len(self._inv)
        for s, table in enumerate(self._inv):
            dst = (stages - s) & 1  # the last stage lands in `out`
            total, diff, diff_bits = halves[dst]
            np.subtract(u, v, out=diff)
            np.add(u, v, out=total)
            product(diff, table, diff_bits)
            u, v = pairs[1 + dst]
        # The last stage's twiddles carry n^-1; its sums get it here.
        total = out[..., :half]
        product(total, self._n_inv_table, total.view(np.uint64))
        self._fold_negatives(out, other)
        return out.reshape(lead + (L, n))

    def _inverse_eager(self, a: np.ndarray, lead: tuple, L: int, n: int) -> np.ndarray:
        t, m = 1, n
        while m > 1:
            h = m // 2
            view = a.reshape(lead + (L, h, 2, t))
            w = self._psis_inv[:, h : 2 * h].reshape(L, h, 1)
            u = view[..., 0, :]
            v = view[..., 1, :]
            total = (u + v) % self._q
            diff = ((u - v) * w) % self._q
            view[..., 0, :] = total
            view[..., 1, :] = diff
            t *= 2
            m = h
        return (a * self._n_inv) % self._q_col

    def pointwise_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-prime pointwise product of two (L, N) matrices."""
        return (a * b) % self._q_col

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product per prime row: forward/pointwise/inverse."""
        return self.inverse(self.pointwise_mul(self.forward(a), self.forward(b)))


@lru_cache(maxsize=64)
def get_vec_ntt(n: int, primes: Tuple[int, ...]) -> VecNtt:
    """Shared vectorized NTT context per (n, prime chain)."""
    return VecNtt(n, primes)
