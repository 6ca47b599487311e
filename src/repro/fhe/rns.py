"""RNS/CRT polynomial arithmetic for the BFV transciphering hot path.

A ciphertext modulus q is chosen as a product of machine-word NTT-friendly
primes ``q_i = 1 (mod 2N)``. Polynomials in R_q are then held as an
``(L, N)`` residue matrix — row ``i`` is the polynomial mod ``q_i`` — and
every ring operation acts per-row with numpy, exactly the residue-arithmetic
structure of hardware FHE datapaths (BASALISC's BGV pipeline, Medha's
residue polynomial arithmetic unit). Chains are int64-only: every prime
must fit the vectorized NTT's int64 kernel, and a wider chain is refused
(the big-int :class:`repro.fhe.engine.BigintEngine` serves wider moduli).
Every CRT crossing inside the scheme (the BFV tensor-product lift and
rescale, relinearization digit decomposition) runs on the exact int64
transports below; multi-precision integers appear only at the edges:
big-int input conversion (:meth:`RnsContext.to_rns`) and CRT
reconstruction for decryption (:meth:`RnsContext.from_rns`).

Key objects:

* :func:`ntt_prime_chain` — deterministic chain of NTT-friendly primes
  covering a requested bit width;
* :class:`RnsContext` — conversion between big-int coefficient vectors and
  residue matrices (+ CRT reconstruction) with a vectorized NTT attached;
* :class:`MixedRadix`, :class:`ExactBaseLift`, :class:`ExactBaseDigits`,
  :class:`ExactRescaler` — the exact int64 base transports;
* :class:`RnsPoly` — a polynomial held as its eval-domain (NTT) residue
  matrix, so every ring operation is pointwise.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.ff.primality import is_prime
from repro.fhe.ntt_vec import VecNtt, butterfly_fits_int64, get_vec_ntt

_INT64_MAX = (1 << 63) - 1

#: Default residue width: products of two reduced residues stay far below
#: 2^63, keeping every butterfly and pointwise product on the int64 path.
DEFAULT_PRIME_BITS = 30


@lru_cache(maxsize=128)
def ntt_prime_chain(n: int, min_bits: int, prime_bits: int = DEFAULT_PRIME_BITS) -> Tuple[int, ...]:
    """Deterministic chain of distinct primes ``= 1 (mod 2N)`` whose product
    has at least ``min_bits`` bits.

    Candidates are scanned downward from ``2^prime_bits`` in steps of 2N, so
    the chain is reproducible and every prime sits near the top of its width
    (the product overshoots ``min_bits`` by less than one prime width).
    """
    if n & (n - 1) or n < 2:
        raise ParameterError(f"N must be a power of two >= 2, got {n}")
    if prime_bits >= 63:
        raise ParameterError("prime_bits must stay below 63 for residue arithmetic")
    if 2 * n >= 1 << prime_bits:
        raise ParameterError(f"prime_bits={prime_bits} too small for 2N={2 * n}")
    order = 2 * n
    top = 1 << prime_bits
    candidate = top - ((top - 1) % order)  # largest value = 1 (mod 2N) below 2^prime_bits
    primes: List[int] = []
    product = 1
    while product.bit_length() < min_bits:
        while candidate > order and not is_prime(candidate):
            candidate -= order
        if candidate <= order:
            raise ParameterError(
                f"ran out of {prime_bits}-bit primes = 1 mod {order} "
                f"covering {min_bits} bits"
            )
        primes.append(candidate)
        product *= candidate
        candidate -= order
    return tuple(primes)


class RnsContext:
    """CRT basis ``q = prod(q_i)`` with conversion and transform helpers.

    Residue matrices are int64: the constructor refuses, with
    :class:`ParameterError`, any chain the vectorized NTT's int64 kernel
    cannot host (a prime wider than about 31 bits).
    """

    def __init__(self, n: int, primes: Sequence[int]):
        primes = tuple(int(q) for q in primes)
        if len(set(primes)) != len(primes):
            raise ParameterError("RNS primes must be distinct")
        self.n = n
        self.primes = primes
        self.ntt: VecNtt = get_vec_ntt(n, primes)  # validates primality / 2N-friendliness
        if self.ntt.dtype is not np.int64:
            raise ParameterError(
                f"RNS chains are int64-only: the primes {primes} exceed the int64 "
                f"NTT kernel at N={n}; serve this modulus with engine='bigint'"
            )
        self.modulus = 1
        for q in primes:
            self.modulus *= q
        # Garner-free CRT: x = sum_i ((r_i * inv_i) mod q_i) * M_i (mod M).
        self._crt_big = [self.modulus // q for q in primes]
        self._crt_inv = np.array(
            [pow(m % q, q - 2, q) for m, q in zip(self._crt_big, primes)], dtype=np.int64
        ).reshape(len(primes), 1)
        self._q_col = np.array(primes, dtype=np.int64).reshape(len(primes), 1)
        # Largest residue-product chunk that cannot overflow int64 when one
        # already-reduced addend rides along (same headroom shape as the
        # butterfly predicate).
        qmax = max(primes)
        self._chunk = max(1, (_INT64_MAX - (qmax - 1)) // ((qmax - 1) ** 2))
        self._mixed_radix: Optional["MixedRadix"] = None
        # Exact log2(q) in the float domain, where the noise ledger's growth
        # rules live: sum of per-prime logs avoids the precision cliff of
        # log2(product) once q outgrows a double's mantissa.
        self.log2_modulus = float(sum(math.log2(q) for q in primes))

    def __repr__(self) -> str:
        return (
            f"RnsContext(n={self.n}, L={len(self.primes)}, "
            f"log2q={self.modulus.bit_length()})"
        )

    def require_basis(self, ctx: Optional["RnsContext"], what: str) -> None:
        """Refuse material over another ring or prime chain.

        Material from a different chain of the same length has the same
        shape, and would then evaluate to garbage without an error.
        Contexts equal by ``(n, primes)`` are the same basis.
        """
        if ctx is self:
            return
        if ctx is None or (ctx.n, ctx.primes) != (self.n, self.primes):
            raise ParameterError(
                f"{what} is not over this RNS basis (N={self.n}, primes {self.primes})"
            )

    # -- conversions ------------------------------------------------------------

    def to_rns(self, coeffs: Sequence[int]) -> np.ndarray:
        """Integer coefficient vector (any magnitude/sign) -> (L, N) residues."""
        if len(coeffs) != self.n:
            raise ParameterError(f"expected {self.n} coefficients, got {len(coeffs)}")
        try:
            arr = np.asarray(coeffs, dtype=np.int64)
        except (OverflowError, TypeError):
            arr = np.asarray(list(coeffs), dtype=object)
        out = np.empty((len(self.primes), self.n), dtype=np.int64)
        for i, q in enumerate(self.primes):
            out[i] = arr % q
        return out

    def from_rns(self, mat: np.ndarray) -> List[int]:
        """(L, N) residues -> coefficients in [0, q) via CRT reconstruction."""
        small = (np.asarray(mat, dtype=np.int64) * self._crt_inv) % self._q_col
        acc = np.zeros(self.n, dtype=object)
        for i, big in enumerate(self._crt_big):
            acc += small[i].astype(object) * big
        return [int(c) for c in acc % self.modulus]

    def from_rns_centered(self, mat: np.ndarray) -> List[int]:
        """(L, N) residues -> centered representatives in [-q/2, q/2)."""
        half = self.modulus // 2
        return [c - self.modulus if c > half else c for c in self.from_rns(mat)]

    def to_rns_batch(self, arr: np.ndarray) -> np.ndarray:
        """``(..., N)`` integer coefficients (any magnitude/sign) -> ``(..., L, N)``."""
        arr = np.asarray(arr)
        if arr.ndim < 1 or arr.shape[-1] != self.n:
            raise ParameterError(f"expected trailing dimension {self.n}, got {arr.shape}")
        out = np.empty(arr.shape[:-1] + (len(self.primes), self.n), dtype=np.int64)
        for i, q in enumerate(self.primes):
            out[..., i, :] = arr % q
        return out

    # -- chunked modular contractions ---------------------------------------------

    def matmul_mod(self, matrix: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Fused modular matrix action: ``(J, K, L, N) x (K, P, L, N) -> (J, P, L, N)``.

        One einsum per overflow-safe chunk of the contracted axis replaces
        the J*K per-element pointwise products and modular adds of the
        object-per-op path; modular addition is associative, so the chunked
        sums are bit-identical to any sequential accumulation order.
        """
        matrix = np.asarray(matrix, dtype=np.int64)
        state = np.asarray(state, dtype=np.int64)
        if matrix.ndim != 4 or state.ndim != 4 or matrix.shape[1] != state.shape[0]:
            raise ParameterError(
                f"matmul_mod expects (J, K, L, N) x (K, P, L, N), "
                f"got {matrix.shape} x {state.shape}"
            )
        k_total = matrix.shape[1]
        out = np.zeros((matrix.shape[0],) + state.shape[1:], dtype=np.int64)
        for start in range(0, k_total, self._chunk):
            stop = start + self._chunk
            part = np.einsum("jkln,kpln->jpln", matrix[:, start:stop], state[start:stop])
            out = (out + part) % self._q_col
        return out

    def weighted_sum_mod(self, digits: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``(..., D, L, N)`` digit stacks x ``(D, L, N)`` weights -> ``(..., L, N)``.

        The batched relinearization accumulator: sum_d digits[d] * weights[d]
        mod q per prime, chunked along D like :meth:`matmul_mod`.
        """
        digits = np.asarray(digits, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if digits.shape[-3] != weights.shape[0]:
            raise ParameterError(
                f"digit count {digits.shape[-3]} != weight count {weights.shape[0]}"
            )
        d_total = weights.shape[0]
        out = np.zeros(digits.shape[:-3] + digits.shape[-2:], dtype=np.int64)
        for start in range(0, d_total, self._chunk):
            stop = start + self._chunk
            part = np.einsum(
                "...dln,dln->...ln", digits[..., start:stop, :, :], weights[start:stop]
            )
            out = (out + part) % self._q_col
        return out

    def mixed_radix(self) -> "MixedRadix":
        """The cached Garner transport for this basis."""
        if self._mixed_radix is None:
            self._mixed_radix = MixedRadix(self)
        return self._mixed_radix

    # -- transforms / arithmetic on raw matrices ---------------------------------

    def forward(self, mat: np.ndarray) -> np.ndarray:
        return self.ntt.forward(mat)

    def inverse(self, mat: np.ndarray) -> np.ndarray:
        return self.ntt.inverse(mat)

    def mod_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self._q_col

    def mod_sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self._q_col

    def mod_neg(self, a: np.ndarray) -> np.ndarray:
        return (-a) % self._q_col

    def mod_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a * b) % self._q_col

    def scalar_residues(self, c: int) -> np.ndarray:
        """Column vector of ``c mod q_i`` (for broadcasting scalar ops)."""
        return np.array([c % q for q in self.primes], dtype=np.int64).reshape(-1, 1)


@lru_cache(maxsize=64)
def get_rns_context(n: int, primes: Tuple[int, ...]) -> RnsContext:
    """Shared RNS context per (n, prime chain) — mirrors :func:`get_ntt`."""
    return RnsContext(n, primes)


# -- exact machine-word base transport (the one CRT crossing) --------------------
#
# The big-int oracle crosses a CRT boundary by reconstructing, centering and
# re-reducing Python ints. The classes below keep the same *exact*
# semantics entirely in vectorized int64 by working in Garner's
# mixed-radix form: x = v_0 + v_1 q_0 + v_2 q_0 q_1 + ... with 0 <= v_j <
# q_j. Each digit is machine-word sized, comparisons against q/2 are
# lexicographic on the digit stack, and residues of x modulo a *different*
# prime basis are chunked digit-weight dot products. This is the shape of
# the base-conversion units in RNS FHE hardware (BASALISC/Medha): no
# multi-precision value is ever materialized on the hot path.


class MixedRadix:
    """Garner decomposition of a residue basis into mixed-radix digits.

    Every pairwise product of reduced residues fits int64 (the butterfly
    headroom predicate, which every ``RnsContext`` chain satisfies).
    """

    def __init__(self, ctx: RnsContext):
        self.ctx = ctx
        primes = ctx.primes
        # _inv[j][i] = q_i^{-1} mod q_j for i < j (Garner's pair inverses).
        self._inv = [
            [pow(primes[i], -1, primes[j]) for i in range(j)] for j in range(len(primes))
        ]
        self._half_digits = self._int_digits(ctx.modulus // 2)

    def _int_digits(self, value: int) -> Tuple[int, ...]:
        """Mixed-radix digits of a plain int in [0, q)."""
        digits = []
        for q in self.ctx.primes:
            digits.append(value % q)
            value //= q
        return tuple(digits)

    def digits(self, mat: np.ndarray) -> np.ndarray:
        """``(..., L, N)`` residues -> mixed-radix digits of the same shape.

        Pure int64: every intermediate is bounded by ``(q_j - 1)^2``.
        """
        a = np.asarray(mat, dtype=np.int64)
        primes = self.ctx.primes
        v = np.empty_like(a)
        v[..., 0, :] = a[..., 0, :]
        for j in range(1, len(primes)):
            q = primes[j]
            u = a[..., j, :]
            for i in range(j):
                u = ((u - v[..., i, :]) * self._inv[j][i]) % q
            v[..., j, :] = u
        return v

    def exceeds_half(self, digits: np.ndarray) -> np.ndarray:
        """Boolean ``(..., N)``: does the encoded value exceed ``q // 2``?

        Mixed-radix digit stacks compare lexicographically from the most
        significant digit — the vectorized analogue of the scalar
        ``c > q // 2`` centering test.
        """
        gt = np.zeros(digits.shape[:-2] + digits.shape[-1:], dtype=bool)
        eq = np.ones_like(gt)
        for j in reversed(range(len(self.ctx.primes))):
            d = digits[..., j, :]
            h = self._half_digits[j]
            gt |= eq & (d > h)
            eq &= d == h
        return gt


def _pair_chunk(src_max: int, dst_max: int) -> int:
    """Largest cross-basis product chunk with reduced-addend headroom."""
    return max(1, (_INT64_MAX - (dst_max - 1)) // ((src_max - 1) * (dst_max - 1)))


class ExactBaseLift:
    """Centered lift from a source basis into a destination prime set.

    Computes ``(x mods q) mod p_e`` for every destination prime — exactly
    what ``from_rns_centered`` + ``to_rns`` produce — as chunked int64
    digit-weight contractions over the source's mixed-radix digits.
    """

    def __init__(self, src: RnsContext, dst_primes: Sequence[int]):
        self.src = src
        self.radix = src.mixed_radix()
        self.dst_primes = tuple(int(p) for p in dst_primes)
        if any(not butterfly_fits_int64(p) for p in self.dst_primes):
            raise ParameterError("destination primes exceed the int64 residue width")
        prefix = 1
        weights = []  # weights[j][e] = (prod_{i<j} q_i) mod p_e
        for q in src.primes:
            weights.append([prefix % p for p in self.dst_primes])
            prefix *= q
        self._weights = np.array(weights, dtype=np.int64)  # (L_src, E)
        self._mod_src = np.array(
            [src.modulus % p for p in self.dst_primes], dtype=np.int64
        ).reshape(-1, 1)
        self._p_col = np.array(self.dst_primes, dtype=np.int64).reshape(-1, 1)
        self._chunk = _pair_chunk(max(src.primes), max(self.dst_primes))

    def lift_centered(self, mat: np.ndarray) -> np.ndarray:
        """``(..., L_src, N)`` residues -> ``(..., E, N)`` centered dst residues."""
        digits = self.radix.digits(mat)
        gt = self.radix.exceeds_half(digits)
        acc = np.zeros(digits.shape[:-2] + (len(self.dst_primes), digits.shape[-1]), np.int64)
        for start in range(0, len(self.src.primes), self._chunk):
            stop = start + self._chunk
            part = np.einsum("...ln,le->...en", digits[..., start:stop, :], self._weights[start:stop])
            acc = (acc + part) % self._p_col
        # Centering: subtract q (mod p_e) wherever the value exceeded q/2.
        return (acc - gt[..., None, :] * self._mod_src) % self._p_col


class ExactBaseDigits:
    """Base-``2^b`` digit decomposition of canonical values, no big ints.

    The keyswitch path needs ``digit_i(x) = floor(x / T^i) mod T`` for the
    canonical representative ``x in [0, q)`` of every coefficient, with
    ``T = 2^base_bits``. :class:`repro.fhe.engine.BigintEngine` divides the
    big-int ``x``; this class produces the *same* digits entirely in int64:

    1. Garner mixed-radix digits ``v_j < q_j`` with
       ``x = sum_j v_j Q_j`` exactly (``Q_j = prod_{i<j} q_i``), via the
       cached :class:`MixedRadix`;
    2. a chunked digit-weight contraction against the binary limbs of the
       ``Q_j`` (limb width the largest divisor of ``base_bits`` <= 31, so
       every ``v_j * limb`` product keeps int64 headroom), with a carry
       ripple after each chunk bounding every partial limb below ``2^limb``;
    3. limb recombination into base-``T`` digits (each < ``2^62``) and a
       per-prime reduction back to residues.

    Bit-exact with the big-int divmod: both decompose the same canonical
    ``x``.
    """

    def __init__(self, ctx: RnsContext, base_bits: int, count: int):
        self.ctx = ctx
        self.radix = ctx.mixed_radix()
        if base_bits < 1 or base_bits > 62:
            raise ParameterError(f"base_bits must be in [1, 62], got {base_bits}")
        if count * base_bits < ctx.modulus.bit_length():
            raise ParameterError(
                f"{count} base-2^{base_bits} digits cannot cover a "
                f"{ctx.modulus.bit_length()}-bit modulus"
            )
        limb = max(d for d in range(1, 32) if base_bits % d == 0)
        if limb < 8:
            raise ParameterError(
                f"base_bits={base_bits} has no limb width in [8, 31]"
            )
        self.base_bits = base_bits
        self.count = count
        self.limb_bits = limb
        self.limbs_per_digit = base_bits // limb
        self._n_limbs = count * self.limbs_per_digit
        mask = (1 << limb) - 1
        self._mask = mask
        weights = np.zeros((len(ctx.primes), self._n_limbs), dtype=np.int64)
        prefix = 1
        for j, q in enumerate(ctx.primes):
            v = prefix
            for k in range(self._n_limbs):
                weights[j, k] = v & mask
                v >>= limb
            prefix *= q
        self._weights = weights  # (L, K): limb k of Q_j
        # Chunk so that (partial limb) + chunk * (q-1) * mask plus the carry
        # it spawns (< 2^(limb+1)) stays below int64; 2^(limb+2) of headroom
        # covers limb + carry with margin.
        qmax = max(ctx.primes)
        self._chunk = max(1, (_INT64_MAX - (1 << (limb + 2))) // ((qmax - 1) * mask))

    def _ripple(self, limbs: np.ndarray) -> None:
        """Carry-propagate in place so every limb drops below ``2^limb_bits``.

        The encoded partial value is < q <= 2^(K * limb_bits), so no carry
        ever escapes the scratch limb at index K.
        """
        carry = None
        for k in range(self._n_limbs + 1):
            col = limbs[..., k, :]
            if carry is not None:
                col += carry
            carry = col >> self.limb_bits
            col &= self._mask
        # carry out of the scratch limb is identically zero

    def digits(self, mat: np.ndarray) -> np.ndarray:
        """``(..., L, N)`` residues -> ``(..., D, L, N)`` base-``T`` digit residues."""
        v = self.radix.digits(mat)  # (..., L, N), v[..., j, :] < q_j
        lead = v.shape[:-2]
        n = v.shape[-1]
        K = self._n_limbs
        limbs = np.zeros(lead + (K + 1, n), dtype=np.int64)
        for start in range(0, len(self.ctx.primes), self._chunk):
            stop = start + self._chunk
            limbs[..., :K, :] += np.einsum(
                "...ln,lk->...kn", v[..., start:stop, :], self._weights[start:stop]
            )
            self._ripple(limbs)
        out = np.empty(lead + (self.count, n), dtype=np.int64)
        lpd = self.limbs_per_digit
        for d in range(self.count):
            acc = limbs[..., d * lpd, :].copy()
            for m in range(1, lpd):
                acc += limbs[..., d * lpd + m, :] << (self.limb_bits * m)
            out[..., d, :] = acc
        return self.ctx.to_rns_batch(out)


class ExactRescaler:
    """``round(num * x / q) mod q_l`` from extended-basis mixed-radix digits.

    The BFV p/q rescale. Writing the centered value as
    ``x = sum_j v_j Q_j - gt * M`` (Q_j the mixed-radix weights, M the
    extended modulus) and splitting each ``num * Q_j = a_j q + b_j``::

        round_div(num * x, q) = sum_j v_j a_j - gt * A + floor(S/q + 1/2),
        S = sum_j v_j b_j - gt * B  (a_j, b_j, A, B precomputed)

    The first part is a chunked int64 contraction mod each q_l. The
    correction term ``E = floor(S/q + 1/2)`` is a *small* integer
    (|E| <= sum_j v_j + 1), estimated in float64 from precomputed b_j/q
    weights. The estimate's worst-case error is provably below ``_EPS``
    (digits < 2^31 are exact in float64; each of the <= L_e products and
    partial sums rounds once), so any coefficient whose fractional part
    falls inside the guard band around 0/1 is recomputed with exact big
    ints — the fast path is bit-exact, not approximately so.
    """

    #: Guard band for the float64 quotient estimate. Worst-case float error
    #: is L_e * 2^-21 (term rounding) + L_e^2 * 2^-22 (sum rounding); the
    #: constructor rejects digit counts that could approach the band.
    _EPS = 1.0 / 64.0

    def __init__(self, ext: RnsContext, numerator: int, dst: RnsContext):
        self.ext = ext
        self.dst = dst
        self.radix = ext.mixed_radix()
        n_digits = len(ext.primes)
        bound = n_digits * 2.0**-21 + n_digits**2 * 2.0**-22
        if bound * 4 > self._EPS:
            raise ParameterError(f"extended basis too wide ({n_digits} digits) for the float guard")
        q = dst.modulus
        self.q = q
        prefix = 1
        a_rows, b_list, w_list = [], [], []
        for qe in ext.primes:
            num = numerator * prefix
            a_rows.append([(num // q) % p for p in dst.primes])
            b_list.append(num % q)
            w_list.append((num % q) / q)
            prefix *= qe
        self._a = np.array(a_rows, dtype=np.int64)  # (L_ext, L_dst)
        self._b = b_list
        self._w = np.array(w_list, dtype=np.float64)
        num_m = numerator * ext.modulus
        self._a_m = np.array([(num_m // q) % p for p in dst.primes], dtype=np.int64).reshape(-1, 1)
        self._b_m = num_m % q
        self._w_m = self._b_m / q
        self._q_col = np.array(dst.primes, dtype=np.int64).reshape(-1, 1)
        self._chunk = _pair_chunk(max(ext.primes), max(dst.primes))

    def rescale(self, mat: np.ndarray) -> np.ndarray:
        """``(..., L_ext, N)`` residues of num*x*... -> ``(..., L_dst, N)`` scaled residues.

        Input is the extended-basis residue matrix of the exact product;
        output is ``round_div(numerator * centered(x), q) mod q_l`` —
        bit-identical to the scalar reconstruct/center/round/reduce chain.
        """
        digits = self.radix.digits(mat)
        gt = self.radix.exceeds_half(digits)
        # E = floor(S/q + 1/2) via the float estimate + exact guard band.
        shifted = np.einsum("...ln,l->...n", digits.astype(np.float64), self._w)
        shifted = shifted - gt * self._w_m + 0.5
        floor = np.floor(shifted)
        frac = shifted - floor
        correction = floor.astype(np.int64)
        suspicious = (frac < self._EPS) | (frac > 1.0 - self._EPS)
        if suspicious.any():
            self._exact_corrections(digits, gt, correction, suspicious)
        acc = np.zeros(digits.shape[:-2] + (len(self.dst.primes), digits.shape[-1]), np.int64)
        for start in range(0, len(self.ext.primes), self._chunk):
            stop = start + self._chunk
            part = np.einsum("...ln,le->...en", digits[..., start:stop, :], self._a[start:stop])
            acc = (acc + part) % self._q_col
        return (acc - gt[..., None, :] * self._a_m + correction[..., None, :]) % self._q_col

    def _exact_corrections(
        self, digits: np.ndarray, gt: np.ndarray, correction: np.ndarray, suspicious: np.ndarray
    ) -> None:
        """Recompute E with exact integers where the float estimate is ambiguous."""
        n_ext = len(self.ext.primes)
        n = digits.shape[-1]
        flat_d = digits.reshape(-1, n_ext, n)
        flat_gt = gt.reshape(-1, n)
        flat_c = correction.reshape(-1, n)
        rows, cols = np.nonzero(suspicious.reshape(-1, n))
        q = self.q
        for r, c in zip(rows.tolist(), cols.tolist()):
            s = sum(int(flat_d[r, j, c]) * self._b[j] for j in range(n_ext))
            if flat_gt[r, c]:
                s -= self._b_m
            flat_c[r, c] = (2 * s + q) // (2 * q)
        correction[...] = flat_c.reshape(correction.shape)


class RnsPoly:
    """A polynomial in R_q held as its eval-domain (NTT) residue matrix.

    Every ring operation is pointwise on the ``(L, N)`` matrix, so chains of
    additions and products never transform. :meth:`from_ints` transforms
    once on the way in; :meth:`to_ints` and :meth:`centered` apply the
    inverse on the way out (decryption). Binary operations refuse an
    operand over another ring or prime chain.
    """

    __slots__ = ("ctx", "_eval")

    def __init__(self, ctx: RnsContext, evals: np.ndarray):
        self.ctx = ctx
        self._eval = evals

    @classmethod
    def from_ints(cls, ctx: RnsContext, coeffs: Sequence[int]) -> "RnsPoly":
        return cls(ctx, ctx.forward(ctx.to_rns(coeffs)))

    def eval_mat(self) -> np.ndarray:
        return self._eval

    def to_ints(self) -> List[int]:
        return self.ctx.from_rns(self.ctx.inverse(self._eval))

    def centered(self) -> List[int]:
        return self.ctx.from_rns_centered(self.ctx.inverse(self._eval))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RnsPoly):
            return NotImplemented
        return self.ctx is other.ctx and np.array_equal(self._eval, other._eval)

    __hash__ = None  # equality is by value

    # -- arithmetic -------------------------------------------------------------

    def _binary(self, other: "RnsPoly", op) -> "RnsPoly":
        self.ctx.require_basis(other.ctx, "operand")
        return RnsPoly(self.ctx, op(self._eval, other._eval))

    def add(self, other: "RnsPoly") -> "RnsPoly":
        return self._binary(other, self.ctx.mod_add)

    def sub(self, other: "RnsPoly") -> "RnsPoly":
        return self._binary(other, self.ctx.mod_sub)

    def mul(self, other: "RnsPoly") -> "RnsPoly":
        """Negacyclic product mod q: pointwise in the eval domain."""
        return self._binary(other, self.ctx.mod_mul)

    def neg(self) -> "RnsPoly":
        return RnsPoly(self.ctx, self.ctx.mod_neg(self._eval))

    def scalar_mul(self, c: int) -> "RnsPoly":
        return RnsPoly(self.ctx, self.ctx.mod_mul(self._eval, self.ctx.scalar_residues(c)))

    def add_const(self, value: int) -> "RnsPoly":
        """Add the constant polynomial ``value`` (NTT of a constant is flat)."""
        return RnsPoly(self.ctx, self.ctx.mod_add(self._eval, self.ctx.scalar_residues(value)))
