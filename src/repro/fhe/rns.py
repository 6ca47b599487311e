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
rescale, the relinearization and key-switch digit decomposition) runs on
one fast base conversion (Bajard-Eynard-Hasan-Zucca, SAC 2016;
Halevi-Polyakov-Shoup, CT-RSA 2019), :meth:`RnsContext.project`: with
``q̂_i = q / q_i``, one pointwise pass gives ``y_i = [x_i q̂_i^-1]_{q_i}``
and a float64 sum gives the small integer ``k`` such that
``x = sum_i y_i q̂_i - k q`` exactly. Each transport is then one chunked
int64 contraction of ``y`` against precomputed weights minus ``k`` times
one constant. Two float64 estimates carry proven error bounds
(:func:`float_error_bound`): ``k`` itself, to ``(L + 2)^2 2^-53``, and the
rescaler's rounding correction, to ``(L_ext + 3)^2 max(q_ext) 2^-53``. A
coefficient whose estimate lies within 4x its bound of a rounding edge is
recomputed with exact Python ints; those guard-band fallbacks, counted
under ``fhe.crt.exact_fallbacks``, are the only big ints inside the
scheme. The others are at the edges: big-int input conversion
(:meth:`RnsContext.to_rns`) and CRT reconstruction for decryption
(:meth:`RnsContext.from_rns`).

Key objects:

* :func:`ntt_prime_chain` — deterministic chain of NTT-friendly primes
  covering a requested bit width;
* :class:`RnsContext` — conversion between big-int coefficient vectors and
  residue matrices (+ CRT reconstruction and the fast base conversion)
  with a vectorized NTT attached;
* :class:`ExactBaseLift`, :class:`ExactBaseDigits`,
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
from repro.obs import get_registry

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
        # CRT by fast base conversion: x = sum_i y_i q̂_i - k q with
        # y_i = [x_i q̂_i^-1]_{q_i} and q̂_i = q / q_i.
        self._crt_hat = np.array([self.modulus // q for q in primes], dtype=object)
        self._crt_inv = np.array(
            [pow(m % q, q - 2, q) for m, q in zip(self._crt_hat, primes)], dtype=np.int64
        ).reshape(len(primes), 1)
        self._recip = np.array([1.0 / q for q in primes])
        #: Guard band of :meth:`project`'s float64 ``k``: 4x its proven error.
        self.band = 4 * float_error_bound(len(primes), 1)
        self._q_col = np.array(primes, dtype=np.int64).reshape(len(primes), 1)
        # Largest residue-product chunk that cannot overflow int64 when one
        # already-reduced addend rides along (same headroom shape as the
        # butterfly predicate).
        qmax = max(primes)
        self._chunk = max(1, (_INT64_MAX - (qmax - 1)) // ((qmax - 1) ** 2))
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
        y = (np.asarray(mat, dtype=np.int64) * self._crt_inv) % self._q_col
        return [int(c) for c in (y.T.astype(object) @ self._crt_hat) % self.modulus]

    def from_rns_centered(self, mat: np.ndarray) -> List[int]:
        """(L, N) residues -> centered representatives in [-q/2, q/2)."""
        half = self.modulus // 2
        return [c - self.modulus if c > half else c for c in self.from_rns(mat)]

    def to_rns_batch(self, arr: np.ndarray) -> np.ndarray:
        """``(..., N)`` integer coefficients (any magnitude/sign) -> ``(..., L, N)``."""
        arr = np.asarray(arr)
        if arr.ndim < 1 or arr.shape[-1] != self.n:
            raise ParameterError(f"expected trailing dimension {self.n}, got {arr.shape}")
        return (arr[..., None, :] % self._q_col).astype(np.int64, copy=False)

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

    def project(
        self, mat: np.ndarray, centered: bool, transport: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fast base conversion: ``(..., L, N)`` residues -> ``(y, k)``.

        ``y = [x_i q̂_i^-1]_{q_i}`` (same shape) and ``k`` (``(..., N)``)
        satisfy ``x = sum_i y_i q̂_i - k q`` exactly, for the canonical
        ``x`` in ``[0, q)`` or, with ``centered``, the centered one (``x``
        above ``q // 2`` stands for ``x - q``). Since ``sum_i y_i q̂_i / q
        = sum_i y_i / q_i = k + x / q``, ``k`` is ``floor(s)``, or
        ``floor(s + 1/2)`` centered, of that float64 sum ``s``; where the
        estimate lies inside :attr:`band` of an integer, ``k`` is
        recomputed with exact ints and the fallback is counted under
        ``fhe.crt.exact_fallbacks`` with the caller's ``transport`` label.
        """
        y = (np.asarray(mat, dtype=np.int64) * self._crt_inv) % self._q_col
        s = self._recip @ y.astype(np.float64)
        if centered:
            s += 0.5
        k, ambiguous = _floor_in_band(s, self.band)
        if ambiguous.any():
            # x = 0 (every residue 0) sums to exactly s = 0, so its k = 0 is
            # exact; only nonzero columns inside the band take the int path.
            ambiguous &= y.any(axis=-2)
            if ambiguous.any():
                values = _columns(y, ambiguous) @ self._crt_hat
                q = self.modulus
                k[ambiguous] = [(2 * v + q) // (2 * q) if centered else v // q for v in values]
                _count_fallbacks(transport, "projection", len(values))
        return y, k

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


# -- exact machine-word base transports (the one CRT crossing) -------------------
#
# The big-int oracle crosses a CRT boundary by reconstructing, centering and
# re-reducing Python ints. The transports below keep the same *exact*
# semantics in vectorized int64 on top of :meth:`RnsContext.project`: the
# value is ``sum_i y_i q̂_i - k q`` with machine-word ``y_i`` and a small
# ``k``, so its residues modulo another basis (or its binary limbs) are one
# chunked contraction of ``y`` against precomputed weights minus ``k``
# times one constant: the multiply-accumulate base conversion of RNS FHE
# hardware (BASALISC, Medha).


def float_error_bound(terms: int, magnitude: float) -> float:
    """Proven error of a float64 estimate ``sum_i c_i w_i (+ 1/2)``.

    ``terms`` products of exact integers ``c_i`` with correctly rounded
    weights ``w_i``, each at most ``magnitude`` (>= 1); one product may be
    taken apart and subtracted from the sum. With ``u = 2^-53``, the
    weights' rounding adds at most ``terms * magnitude * u``, the sum in
    any order (BLAS, with or without FMA) ``gamma_terms * terms *
    magnitude`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    Sec. 3.1), and the separate product, the subtraction and the ``1/2``
    shift ``((2 terms + 1) magnitude + 1) u``; ``(terms + 2)^2 * magnitude
    * u`` covers the total.
    """
    return (terms + 2) ** 2 * magnitude * 2.0**-53


def _floor_in_band(s: np.ndarray, band: float) -> Tuple[np.ndarray, np.ndarray]:
    """``floor(s)`` as int64, and where ``s`` lies within ``band`` of an integer."""
    floor = np.floor(s)
    frac = s - floor
    return floor.astype(np.int64), (frac < band) | (frac > 1.0 - band)


def _columns(y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The ``(m, L)`` object-int rows of ``(..., L, N)`` ``y`` at the ``(..., N)`` mask."""
    return np.moveaxis(y, -2, -1)[mask].astype(object)


def _count_fallbacks(transport: str, stage: str, count: int) -> None:
    """Count coefficients a float64 estimate left to the exact-int path."""
    get_registry().counter(
        "fhe.crt.exact_fallbacks", transport=transport, stage=stage
    ).inc(count)


def _pair_chunk(src_max: int, dst_max: int, addend: int) -> int:
    """Largest cross-basis product chunk that keeps ``addend`` of int64 headroom."""
    return max(1, (_INT64_MAX - addend) // ((src_max - 1) * (dst_max - 1)))


def _contract_mod(
    acc: np.ndarray, y: np.ndarray, weights: np.ndarray, mod_col: np.ndarray, chunk: int
) -> np.ndarray:
    """``acc + weights @ y`` reduced per row: ``(E, L) x (..., L, N) -> (..., E, N)``.

    Chunked along ``L`` so every partial sum plus the accumulator (reduced,
    or the caller's bounded initial value) fits int64.
    """
    for start in range(0, y.shape[-2], chunk):
        stop = start + chunk
        acc = (acc + np.matmul(weights[:, start:stop], y[..., start:stop, :])) % mod_col
    return acc


class ExactBaseLift:
    """Centered lift from a source basis into a destination prime set.

    Computes ``(x mods q) mod p_e`` for every destination prime — exactly
    what ``from_rns_centered`` + ``to_rns`` produce — as the centered
    projection's ``y`` contracted against ``[q̂_i]_{p_e}``, minus
    ``k [q]_{p_e}``.
    """

    def __init__(self, src: RnsContext, dst_primes: Sequence[int]):
        self.src = src
        self.dst_primes = tuple(int(p) for p in dst_primes)
        if any(not butterfly_fits_int64(p) for p in self.dst_primes):
            raise ParameterError("destination primes exceed the int64 residue width")
        self._weights = np.array(
            [[qh % p for qh in src._crt_hat] for p in self.dst_primes], dtype=np.int64
        )  # (E, L_src)
        self._mod_src = np.array(
            [src.modulus % p for p in self.dst_primes], dtype=np.int64
        ).reshape(-1, 1)
        self._p_col = np.array(self.dst_primes, dtype=np.int64).reshape(-1, 1)
        pmax = max(self.dst_primes)
        self._chunk = _pair_chunk(max(src.primes), pmax, pmax - 1)

    def lift_centered(self, mat: np.ndarray) -> np.ndarray:
        """``(..., L_src, N)`` residues -> ``(..., E, N)`` centered dst residues."""
        y, k = self.src.project(mat, centered=True, transport="lift")
        start = -k[..., None, :] * self._mod_src
        return _contract_mod(start, y, self._weights, self._p_col, self._chunk)


class ExactBaseDigits:
    """Base-``2^b`` digit decomposition of canonical values in int64.

    The keyswitch path needs ``digit_i(x) = floor(x / T^i) mod T`` for the
    canonical representative ``x in [0, q)`` of every coefficient, with
    ``T = 2^base_bits``. :class:`repro.fhe.engine.BigintEngine` divides the
    big-int ``x``; this class produces the *same* digits in int64:

    1. the canonical projection, ``x = sum_i y_i q̂_i - k q``;
    2. a chunked contraction of ``(y, k)`` against the binary limbs of the
       ``q̂_i`` and of ``2^W - q`` (``W`` the limbs' total width, above
       ``log2 q``; limb width the largest divisor of ``base_bits`` <= 31,
       so every product keeps int64 headroom), with a carry ripple after
       each chunk; the sum is ``x + k 2^W``, so the limbs below ``2^W``
       hold ``x`` and the carry out of the top limb is dropped;
    3. limb recombination into base-``T`` digits (each < ``2^62``) and a
       per-prime reduction back to residues.

    Bit-exact with the big-int divmod: both decompose the same canonical
    ``x``.
    """

    def __init__(self, ctx: RnsContext, base_bits: int, count: int):
        self.ctx = ctx
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
        rows = list(ctx._crt_hat) + [(1 << (self._n_limbs * limb)) - ctx.modulus]
        self._weights = np.array(
            [[(v >> (limb * j)) & mask for v in rows] for j in range(self._n_limbs)],
            dtype=np.int64,
        )  # (K, L + 1): limb j of each q̂_i, then of 2^W - q
        # A chunk adds at most chunk * (q - 1) * mask to a rippled limb
        # (< 2^limb); every carry the ripple then moves is below
        # 2^(1 - limb) of that column bound, which the headroom covers.
        qmax = max(ctx.primes)
        room = _INT64_MAX - (_INT64_MAX >> (limb - 1)) - mask
        self._chunk = max(1, room // ((qmax - 1) * mask))

    def _ripple(self, limbs: np.ndarray) -> None:
        """Carry-propagate in place so every limb drops below ``2^limb_bits``.

        The carry out of the top limb is a multiple of ``2^W`` and is dropped.
        """
        carry = None
        for j in range(self._n_limbs):
            col = limbs[..., j, :]
            if carry is not None:
                col += carry
            carry = col >> self.limb_bits
            col &= self._mask

    def digits(self, mat: np.ndarray) -> np.ndarray:
        """``(..., L, N)`` residues -> ``(..., D, L, N)`` base-``T`` digit residues."""
        y, k = self.ctx.project(mat, centered=False, transport="digits")
        terms = np.concatenate([y, k[..., None, :]], axis=-2)  # (..., L + 1, N)
        lead = y.shape[:-2]
        n = y.shape[-1]
        limbs = np.zeros(lead + (self._n_limbs, n), dtype=np.int64)
        for start in range(0, terms.shape[-2], self._chunk):
            stop = start + self._chunk
            limbs += np.matmul(self._weights[:, start:stop], terms[..., start:stop, :])
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
    """``round(num * x / q) mod q_l`` for the centered extended-basis value ``x``.

    The BFV p/q rescale. The centered projection writes
    ``x = sum_i y_i M̂_i - k M`` (``M`` the extended modulus); splitting
    ``num * M̂_i = a_i q + b_i`` and ``num * M = A q + B``::

        round_div(num * x, q) = sum_i y_i a_i - k A + floor(S/q + 1/2),
        S = sum_i y_i b_i - k B  (a_i, b_i, A, B precomputed)

    The first part is a chunked int64 contraction mod each q_l. The
    correction ``E = floor(S/q + 1/2)`` is a *small* integer
    (``|E| <= sum_i y_i + 1``), read in float64 from precomputed ``b_i/q``
    and ``B/q`` weights. Its error is provably below
    ``float_error_bound(L_ext + 1, max(q_ext))`` (``L_ext`` products and the
    ``k B/q`` term), about ``2^-14.2`` for the 18-prime extended basis of
    the 26-bit ``hhe_frame`` chain, so any coefficient whose fractional
    part lies within :attr:`band` (4x that bound) of 0/1 is recomputed with
    exact ints — the fast path is bit-exact, not approximately so.
    """

    #: Widest guard band the constructor accepts: past it the fallbacks
    #: would stop being rare.
    MAX_BAND = 1.0 / 64.0

    def __init__(self, ext: RnsContext, numerator: int, dst: RnsContext):
        self.ext = ext
        self.dst = dst
        ymax = max(ext.primes)
        self.band = 4 * float_error_bound(len(ext.primes) + 1, ymax)
        if self.band > self.MAX_BAND:
            raise ParameterError(
                f"extended basis too wide ({len(ext.primes)} primes) for the float guard"
            )
        q = dst.modulus
        self.q = q
        a_list, b_list = zip(*(divmod(numerator * mh, q) for mh in ext._crt_hat))
        self._a = np.array(
            [[a % ql for a in a_list] for ql in dst.primes], dtype=np.int64
        )  # (L_dst, L_ext)
        self._b = np.array(b_list, dtype=object)
        self._w = np.array([b / q for b in b_list])
        a_m, self._b_m = divmod(numerator * ext.modulus, q)
        self._a_m = np.array([a_m % ql for ql in dst.primes], dtype=np.int64).reshape(-1, 1)
        self._w_m = self._b_m / q
        self._q_col = np.array(dst.primes, dtype=np.int64).reshape(-1, 1)
        # The contraction starts from E - k A, whose positive part is at most E.
        addend = max(len(ext.primes) * ymax, max(dst.primes))
        self._chunk = _pair_chunk(ymax, max(dst.primes), addend)

    def rescale(self, mat: np.ndarray) -> np.ndarray:
        """``(..., L_ext, N)`` residues of num*x*... -> ``(..., L_dst, N)`` scaled residues.

        Input is the extended-basis residue matrix of the exact product;
        output is ``round_div(numerator * centered(x), q) mod q_l`` —
        bit-identical to the scalar reconstruct/center/round/reduce chain.
        """
        y, k = self.ext.project(mat, centered=True, transport="rescale")
        shifted = self._w @ y.astype(np.float64) - k * self._w_m + 0.5
        correction, ambiguous = _floor_in_band(shifted, self.band)
        if ambiguous.any():
            q = self.q
            exact = _columns(y, ambiguous) @ self._b - k[ambiguous].astype(object) * self._b_m
            correction[ambiguous] = [(2 * s + q) // (2 * q) for s in exact]
            _count_fallbacks("rescale", "quotient", len(exact))
        start = correction[..., None, :] - k[..., None, :] * self._a_m
        return _contract_mod(start, y, self._a, self._q_col, self._chunk)


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
