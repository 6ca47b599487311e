"""Polynomial-arithmetic engines backing the BFV scheme.

:class:`repro.fhe.bfv.Bfv` expresses every homomorphic operation against a
small engine interface; two interchangeable implementations exist:

* :class:`BigintEngine` — the scalar reference. Polynomials are plain
  ``List[int]`` coefficient vectors in [0, q); ring products go through the
  exact Kronecker-substitution multiplier (:mod:`repro.fhe.poly`). Correct
  for *any* modulus, slow at the ~250-bit ciphertext moduli the PASTA
  transciphering circuit needs.
* :class:`RnsEngine` — the RNS/CRT hot path. q must be a product of
  NTT-friendly primes the int64 kernels can host; polynomials are
  :class:`repro.fhe.rns.RnsPoly` eval-domain (NTT) residue matrices. Every
  CRT crossing runs on the fused :class:`CiphertextTensor` kernels: a
  per-ciphertext tensor product or relinearization digit decomposition is
  the kernel on a one-ciphertext stack, whose int64 base transports
  (:mod:`repro.fhe.rns`) build a big int only for the rare coefficients
  inside a float64 guard band (counted under ``fhe.crt.exact_fallbacks``).
  Only decryption reconstructs integers through CRT.

Both engines implement the same operations *exactly* mod q, so a scheme
instantiated from the same seed produces bit-identical keys, ciphertexts,
decryptions and noise budgets under either — pinned by
``tests/test_fhe_rns.py``. :class:`BigintEngine` is the arithmetic oracle,
and serves the moduli an int64 chain cannot; the packed HHE evaluator
(:mod:`repro.hhe.batched`) runs only on :class:`RnsEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.fhe.poly import Rq, negacyclic_mul_exact
from repro.fhe.rng import decode_uniform
from repro.fhe.rns import (
    ExactBaseDigits,
    ExactBaseLift,
    ExactModSwitch,
    ExactRescaler,
    RnsContext,
    RnsPoly,
    get_rns_context,
    ntt_prime_chain,
    uniform_residues,
)

#: Rows per forward transform when a key setup lifts a stack of
#: polynomials: about 40 rows of N = 512 keep a transform's working set in
#: cache, where one call per polynomial pays numpy's per-call cost and one
#: call for the whole stack spills (about 22 against 50 us per row).
SETUP_CHUNK_ROWS = 40


def round_div(numerator: int, denominator: int) -> int:
    """Round-to-nearest integer division (ties away from floor)."""
    return (2 * numerator + denominator) // (2 * denominator)


@dataclass(frozen=True)
class PreparedPlain:
    """An encoded plaintext pre-lifted into one engine's representation.

    ``kind`` is ``"mul"`` (centered, for plaintext products) or ``"add"``
    (Delta-scaled, for plaintext additions); a handle prepared for one
    purpose or engine cannot silently be consumed by another.
    """

    kind: str
    engine: str
    value: Any


@dataclass
class CiphertextTensor:
    """A stack of same-shape ciphertexts as one NTT-domain residue ndarray.

    ``data`` has shape ``(slots, parts, L, N)``: ``slots`` stacked
    ciphertexts (a packed PASTA state, or the 2t pre-rotated key
    ciphertexts of the HHE upload), each of ``parts`` ring
    polynomials held as eval-domain ``(L, N)`` residue matrices. Every
    fused kernel (diagonal contraction, elementwise add/neg, batched
    square/multiply) acts on the whole stack per numpy pass and *stays* in
    the eval domain; coefficients are only rematerialized inside
    ``tensor_scale_batch`` / relinearization, the CRT boundaries, which
    the per-ciphertext operations cross as one-ciphertext stacks.
    """

    ctx: RnsContext
    data: np.ndarray
    #: Worst-slot noise-ledger bound (:class:`repro.obs.noise.NoiseEstimate`);
    #: ``None`` when provenance is unknown. Engine kernels leave it unset —
    #: the :class:`~repro.fhe.bfv.Bfv` wrappers apply the growth rules.
    noise: Optional[Any] = None

    def __post_init__(self) -> None:
        expected = (len(self.ctx.primes), self.ctx.n)
        if self.data.ndim != 4 or self.data.shape[-2:] != expected:
            raise ParameterError(
                f"expected (slots, parts, {expected[0]}, {expected[1]}) residue "
                f"data, got {self.data.shape}"
            )

    @property
    def slots(self) -> int:
        return self.data.shape[0]

    @property
    def parts(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, index) -> "CiphertextTensor":
        """Slice along the slot axis (always returns a tensor, never a row)."""
        if isinstance(index, int):
            index = slice(index, index + 1)
        return CiphertextTensor(self.ctx, self.data[index], noise=self.noise)

    @classmethod
    def concat(cls, tensors: Sequence["CiphertextTensor"]) -> "CiphertextTensor":
        if not tensors:
            raise ParameterError("concat needs at least one tensor")
        ctx = tensors[0].ctx
        if any(t.ctx is not ctx for t in tensors):
            raise ParameterError("cannot concat tensors from different RNS contexts")
        noises = [t.noise for t in tensors]
        merged = None
        if all(n is not None for n in noises):
            merged = max(noises, key=lambda n: n.bits)
        return cls(ctx, np.concatenate([t.data for t in tensors], axis=0), noise=merged)


class BigintEngine:
    """Scalar big-int reference engine (the pre-RNS behavior, verbatim)."""

    name = "bigint"

    def __init__(self, n: int, q: int, p: int):
        self.n = n
        self.q = q
        self.p = p
        self.ring = Rq(n, q)

    # -- representation ----------------------------------------------------------

    def lift(self, coeffs: Sequence[int]) -> List[int]:
        if len(coeffs) != self.n:
            raise ParameterError(f"expected {self.n} coefficients, got {len(coeffs)}")
        return [int(c) % self.q for c in coeffs]

    # -- batched key setup ---------------------------------------------------------

    def switching_keys(
        self, s: List[int], targets: Sequence[List[int]], uniforms: np.ndarray,
        errors: np.ndarray, base: int,
    ) -> List[List[tuple]]:
        """Base-T key-switching parts for every target, one polynomial at a time.

        ``uniforms`` holds ``(len(targets) * D, N, nbytes)`` uniform
        candidates (``PolyRng.uniform_candidates``) and ``errors`` the
        matching ``(len(targets) * D, N)`` error draws; target k's part i is
        ``(-(a s + e) + T^i target, a)`` for draw ``k D + i``.
        """
        digits = len(uniforms) // len(targets)
        out = []
        for k, target in enumerate(targets):
            parts = []
            power = 1
            for i in range(k * digits, (k + 1) * digits):
                a = self.lift(decode_uniform(uniforms[i], self.q))
                b = self.add(
                    self.sub(self.neg(self.mul(a, s)), self.lift(errors[i])),
                    self.scalar_mul(power, target),
                )
                parts.append((b, a))
                power = (power * base) % self.q
            out.append(parts)
        return out

    def encrypt_stack(
        self, b: List[int], a: List[int], draws: Sequence[np.ndarray],
        plains: np.ndarray, delta: int,
    ) -> List[List[List[int]]]:
        """``[b u + e1 + delta m, a u + e2]`` per plaintext row ``m``, from the
        ``(K, N)`` draws ``(u, e1, e2)``, one ciphertext at a time."""
        out = []
        for u, e1, e2, m in zip(*draws, plains):
            u = self.lift(u)
            scaled = self.scalar_mul(delta, self.lift(m))
            c0 = self.add(self.add(self.mul(b, u), self.lift(e1)), scaled)
            out.append([c0, self.add(self.mul(a, u), self.lift(e2))])
        return out

    def to_ints(self, poly: List[int]) -> List[int]:
        return list(poly)

    def centered(self, poly: List[int]) -> List[int]:
        return self.ring.centered(poly)

    # -- ring operations mod q ----------------------------------------------------

    def add(self, a: List[int], b: List[int]) -> List[int]:
        return self.ring.add(a, b)

    def sub(self, a: List[int], b: List[int]) -> List[int]:
        return self.ring.sub(a, b)

    def neg(self, a: List[int]) -> List[int]:
        return self.ring.neg(a)

    def scalar_mul(self, c: int, a: List[int]) -> List[int]:
        return self.ring.scalar_mul(c, a)

    def mul(self, a: List[int], b: List[int]) -> List[int]:
        return self.ring.mul(a, b)

    def add_const(self, a: List[int], value: int) -> List[int]:
        out = list(a)
        out[0] = (out[0] + value) % self.q
        return out

    # -- plaintext handles ---------------------------------------------------------

    def prepare_mul_plain(self, centered_plain: List[int]) -> List[int]:
        return list(centered_plain)

    def mul_plain(self, poly: List[int], handle: List[int]) -> List[int]:
        product = negacyclic_mul_exact(self.ring.centered(poly), handle)
        return [c % self.q for c in product]

    # -- CRT-boundary operations ---------------------------------------------------

    def tensor_scale(self, a_parts: Sequence[Any], b_parts: Sequence[Any]) -> List[Any]:
        """BFV tensor product with p/q rounding: exact centered products."""
        a0, a1 = (self.ring.centered(p) for p in a_parts)
        b0, b1 = (self.ring.centered(p) for p in b_parts)
        d0 = negacyclic_mul_exact(a0, b0)
        cross1 = negacyclic_mul_exact(a0, b1)
        cross2 = negacyclic_mul_exact(a1, b0)
        d1 = [x + y for x, y in zip(cross1, cross2)]
        d2 = negacyclic_mul_exact(a1, b1)
        return [self._scale(d) for d in (d0, d1, d2)]

    def _scale(self, poly: Sequence[int]) -> List[int]:
        return [round_div(self.p * c, self.q) % self.q for c in poly]

    def relin_digits(self, poly: List[int], base: int, count: int) -> List[List[int]]:
        digits: List[List[int]] = []
        remainder = list(poly)
        for _ in range(count):
            digits.append([c % base for c in remainder])
            remainder = [c // base for c in remainder]
        return digits

    # -- RNS levels ----------------------------------------------------------------

    def mod_switch(self, poly: List[int], dst: "BigintEngine") -> List[int]:
        """``round(c / P) mod q_k`` for ``dst``'s modulus ``q_k = q / P``."""
        big_p = self.q // dst.q
        return [round_div(c, big_p) % dst.q for c in poly]

    def mod_raise(self, poly: List[int], dst: "BigintEngine") -> List[int]:
        """``P c mod q`` for ``dst``'s modulus ``q = P q_k``."""
        big_p = dst.q // self.q
        return [c * big_p % dst.q for c in poly]

    def reduce(self, poly: List[int]) -> List[int]:
        """A polynomial mod a multiple of q (a longer chain), reduced mod q."""
        return [c % self.q for c in poly]

    # -- Galois automorphisms --------------------------------------------------------

    def galois(self, poly: List[int], element: int) -> List[int]:
        """tau_g(a)(x) = a(x^g): signed monomial permutation of coefficients."""
        from repro.fhe.galois import coeff_automorphism_maps

        dest, negate = coeff_automorphism_maps(self.n, element)
        out = [0] * self.n
        for i, c in enumerate(poly):
            out[int(dest[i])] = (self.q - c) % self.q if negate[i] else c
        return out


class RnsEngine:
    """RNS/CRT engine: eval-domain residue-matrix polynomials, int64 kernels."""

    name = "rns"

    def __init__(
        self, n: int, q: int, p: int, primes: Sequence[int], relin_base_bits: int, relin_parts: int
    ):
        self.n = n
        self.q = q
        self.p = p
        self.ctx = get_rns_context(n, tuple(primes))
        if self.ctx.modulus != q:
            raise ParameterError("rns_primes product does not equal the ciphertext modulus")
        # Extended basis for exact tensor products: |coeff| of a product of
        # centered operands is <= N (q/2)^2, and d1 sums two such products.
        ext_bits = (n * (q // 2 + 1) ** 2).bit_length() + 3
        self.ext = get_rns_context(n, ntt_prime_chain(n, ext_bits))
        # The exact int64 base transports, all on the fast base conversion
        # RnsContext.project: the centered ctx -> ext lift into a tensor
        # product, the p/q rescale back, and the base-T digits of
        # relinearization and key switching. A base the digit transport
        # cannot host fails here, when the scheme is built, not mid-circuit.
        self._tensor_lift = ExactBaseLift(self.ctx, self.ext.primes)
        self._tensor_rescale = ExactRescaler(self.ext, p, self.ctx)
        try:
            self._digits = ExactBaseDigits(self.ctx, relin_base_bits, relin_parts)
        except ParameterError as exc:
            raise ParameterError(
                f"relinearization base 2^{relin_base_bits} does not fit the RNS engine's "
                f"int64 digit decomposition ({exc}); use engine='bigint'"
            ) from None
        #: Modulus-switch transports to shorter prefixes of this chain, by
        #: the prefix's context (:meth:`level_switch`).
        self._switches = {}

    # -- representation ----------------------------------------------------------

    def lift(self, coeffs: Sequence[int]) -> RnsPoly:
        return RnsPoly.from_ints(self.ctx, list(coeffs))

    # -- batched key setup ---------------------------------------------------------

    def _forward_stack(self, coeffs: np.ndarray, transform) -> np.ndarray:
        """K polynomials -> ``(K, L, N)`` eval-domain residues, transformed in
        cache-sized chunks (:data:`SETUP_CHUNK_ROWS`) by ``transform``:
        ``ctx.forward`` for (K, L, N) residues, ``ctx.forward_small`` for
        (K, N) small signed draws."""
        chunk = max(1, SETUP_CHUNK_ROWS // len(self.ctx.primes))
        out = np.empty((len(coeffs), len(self.ctx.primes), self.n), dtype=np.int64)
        for start in range(0, len(coeffs), chunk):
            out[start : start + chunk] = transform(coeffs[start : start + chunk])
        return out

    def switching_keys(
        self, s: RnsPoly, targets: Sequence[RnsPoly], uniforms: np.ndarray,
        errors: np.ndarray, base: int,
    ) -> List[List[tuple]]:
        """:meth:`BigintEngine.switching_keys` on stacks, residue for residue.

        The uniform candidates decode straight to residues
        (:func:`~repro.fhe.rns.uniform_residues`), each kind is transformed
        as one stack, and every part's ``T^i target - a s - e`` is one
        pointwise pass over all of them, reduced once: each product of
        residues stays below 2^62, so the sum fits int64.
        """
        ctx = self.ctx
        digits = len(uniforms) // len(targets)
        shape = (len(targets), digits, len(ctx.primes), self.n)
        residues = uniform_residues(uniforms, ctx.primes)
        a = self._forward_stack(residues, ctx.forward).reshape(shape)
        e = self._forward_stack(errors, ctx.forward_small).reshape(shape)
        powers = np.stack(
            [ctx.scalar_residues(pow(base, i, self.q)) for i in range(digits)]
        )  # (D, L, 1)
        target = np.stack([t.eval_mat() for t in targets])[:, None]  # (K, 1, L, N)
        b = (target * powers - a * s.eval_mat() - e) % ctx._q_col
        return [
            [(RnsPoly(ctx, b[k, i]), RnsPoly(ctx, a[k, i])) for i in range(digits)]
            for k in range(len(targets))
        ]

    def encrypt_stack(
        self, b: RnsPoly, a: RnsPoly, draws: Sequence[np.ndarray],
        plains: np.ndarray, delta: int,
    ) -> List[List[RnsPoly]]:
        """:meth:`BigintEngine.encrypt_stack` on stacks, residue for residue:
        ``e1 + delta m`` is formed per limb before its one transform, and
        each part is reduced once (a product of residues plus a residue
        fits int64)."""
        ctx = self.ctx
        u_rows, e1_rows, e2_rows = draws
        u = self._forward_stack(u_rows, ctx.forward_small)
        scaled = ctx.mod_mul(ctx.to_rns_batch(plains), ctx.scalar_residues(delta))
        noisy = self._forward_stack(
            scaled + np.asarray(e1_rows, dtype=np.int64)[:, None, :], ctx.forward
        )
        c0 = (b.eval_mat() * u + noisy) % ctx._q_col
        c1 = (a.eval_mat() * u + self._forward_stack(e2_rows, ctx.forward_small)) % ctx._q_col
        return [[RnsPoly(ctx, c0[k]), RnsPoly(ctx, c1[k])] for k in range(len(plains))]

    def to_ints(self, poly: RnsPoly) -> List[int]:
        return poly.to_ints()

    def centered(self, poly: RnsPoly) -> List[int]:
        return poly.centered()

    # -- ring operations mod q ----------------------------------------------------

    def add(self, a: RnsPoly, b: RnsPoly) -> RnsPoly:
        return a.add(b)

    def sub(self, a: RnsPoly, b: RnsPoly) -> RnsPoly:
        return a.sub(b)

    def neg(self, a: RnsPoly) -> RnsPoly:
        return a.neg()

    def scalar_mul(self, c: int, a: RnsPoly) -> RnsPoly:
        return a.scalar_mul(c)

    def mul(self, a: RnsPoly, b: RnsPoly) -> RnsPoly:
        return a.mul(b)

    def add_const(self, a: RnsPoly, value: int) -> RnsPoly:
        return a.add_const(value)

    # -- plaintext handles ---------------------------------------------------------

    def prepare_mul_plain(self, centered_plain: List[int]) -> RnsPoly:
        # The handle is the eval-domain matrix: one forward transform, here,
        # however often the handle is used.
        return self.lift(centered_plain)

    def mul_plain(self, poly: RnsPoly, handle: RnsPoly) -> RnsPoly:
        return poly.mul(handle)

    # -- CRT-boundary operations ---------------------------------------------------

    def tensor_scale(self, a_parts: Sequence[Any], b_parts: Sequence[Any]) -> List[Any]:
        """One ciphertext pair's tensor product: :meth:`tensor_scale_batch`
        on a one-ciphertext stack (``b_parts is a_parts`` squares)."""
        a = self.stack_polys([a_parts])
        b = None if b_parts is a_parts else self.stack_polys([b_parts])
        return [RnsPoly(self.ctx, part) for part in self.tensor_scale_batch(a, b)[0]]

    def relin_digits(self, poly: RnsPoly, base: int, count: int) -> List[RnsPoly]:
        """One polynomial's base-T digits: :meth:`_decompose_base_digits` on a one-row stack."""
        digits = self._decompose_base_digits(poly.eval_mat()[None], base, count)[0]
        return [RnsPoly(self.ctx, digit) for digit in digits]

    # -- RNS levels ----------------------------------------------------------------

    def level_switch(self, low: "RnsEngine") -> ExactModSwitch:
        """The transport between this chain and its prefix ``low``, built once."""
        switch = self._switches.get(low.ctx)
        if switch is None:
            switch = self._switches[low.ctx] = ExactModSwitch(self.ctx, low.ctx)
        return switch

    def switch_evals(self, data: np.ndarray, dst: "RnsEngine") -> np.ndarray:
        """``(..., L, N)`` eval-domain residues -> ``dst``'s prefix: round(c/P)."""
        from repro.obs import get_registry, get_tracer

        limbs = f"{len(self.ctx.primes)}->{len(dst.ctx.primes)}"
        get_registry().counter("fhe.mod_switch.calls", limbs=limbs).inc()
        with get_tracer().span("fhe.mod_switch", metric="fhe.mod_switch.seconds", limbs=limbs):
            return self.level_switch(dst).down(data)

    def raise_evals(self, data: np.ndarray, dst: "RnsEngine") -> np.ndarray:
        """``(..., k, N)`` eval-domain residues -> ``dst``'s longer chain: P c."""
        return dst.level_switch(self).up(data)

    def mod_switch(self, poly: RnsPoly, dst: "RnsEngine") -> RnsPoly:
        self._check_basis([poly], "polynomial")
        return RnsPoly(dst.ctx, self.switch_evals(poly.eval_mat(), dst))

    def mod_raise(self, poly: RnsPoly, dst: "RnsEngine") -> RnsPoly:
        self._check_basis([poly], "polynomial")
        return RnsPoly(dst.ctx, self.raise_evals(poly.eval_mat(), dst))

    def reduce(self, poly: RnsPoly) -> RnsPoly:
        """A polynomial over a chain this one is a prefix of, mod this chain:
        its first L limbs."""
        limbs = len(self.ctx.primes)
        if poly.ctx.n != self.ctx.n or poly.ctx.primes[:limbs] != self.ctx.primes:
            raise ParameterError(
                f"polynomial is not over a chain extending this RNS basis "
                f"(N={self.ctx.n}, primes {self.ctx.primes})"
            )
        return RnsPoly(self.ctx, poly.eval_mat()[:limbs])

    # -- Galois automorphisms --------------------------------------------------------

    def galois(self, poly: RnsPoly, element: int) -> RnsPoly:
        """tau_g as a pure eval-domain index permutation (no transform needed).

        The NTT slot at root exponent e holds a(psi^e), and tau_g(a)
        evaluates at psi^(e*g) — a fixed permutation of the residue columns,
        identical across every prime of the chain.
        """
        from repro.fhe.galois import eval_permutation

        self._check_basis([poly], "polynomial")
        perm = eval_permutation(self.n, element)
        return RnsPoly(self.ctx, poly.eval_mat()[:, perm])

    # -- fused ciphertext-tensor kernels -------------------------------------------

    def _check_basis(self, polys: Sequence[RnsPoly], what: str) -> None:
        """Refuse polynomials over another ring or prime chain."""
        for poly in polys:
            self.ctx.require_basis(getattr(poly, "ctx", None), what)

    def stack_polys(self, rows: Sequence[Sequence[RnsPoly]]) -> CiphertextTensor:
        """Stack ciphertext part lists into one eval-domain (slots, parts, L, N)."""
        if not rows:
            raise ParameterError("cannot stack zero ciphertexts")
        parts = len(rows[0])
        if any(len(row) != parts for row in rows):
            raise ParameterError("all stacked ciphertexts must have the same part count")
        self._check_basis([p for row in rows for p in row], "ciphertext")
        return CiphertextTensor(
            self.ctx, np.stack([np.stack([p.eval_mat() for p in row]) for row in rows])
        )

    def unstack_polys(self, tensor: CiphertextTensor) -> List[List[RnsPoly]]:
        """The inverse of :meth:`stack_polys`: per-slot lists of eval-domain polys."""
        return [
            [RnsPoly(self.ctx, np.array(tensor.data[s, p])) for p in range(tensor.parts)]
            for s in range(tensor.slots)
        ]

    def tensor_add(self, a: CiphertextTensor, b: CiphertextTensor) -> CiphertextTensor:
        return CiphertextTensor(self.ctx, self.ctx.mod_add(a.data, b.data))

    def tensor_neg(self, a: CiphertextTensor) -> CiphertextTensor:
        return CiphertextTensor(self.ctx, self.ctx.mod_neg(a.data))

    def tensor_add_rows(self, state: CiphertextTensor, rows: np.ndarray) -> CiphertextTensor:
        """Add a prepared (slots, L, N) Delta-scaled plaintext stack onto part 0."""
        if rows.shape[0] != state.slots:
            raise ParameterError(f"expected {state.slots} plaintext rows, got {rows.shape[0]}")
        out = np.array(state.data)
        out[:, 0] = self.ctx.mod_add(out[:, 0], rows)
        return CiphertextTensor(self.ctx, out)

    def _tensor_ext_forward(self, data: np.ndarray) -> np.ndarray:
        """Eval-domain ciphertext parts -> ext-basis NTT of the centered values."""
        return self.ext.forward(self._tensor_lift.lift_centered(self.ctx.inverse(data)))

    def tensor_scale_batch(
        self, a: CiphertextTensor, b: Optional[CiphertextTensor] = None
    ) -> np.ndarray:
        """Batched BFV tensor product: (B, 2, L, N) -> (B, 3, L, N) eval-domain.

        ``b=None`` squares. Exact: the centered parts lift into the
        extended basis, d1 = cross1 + cross2 is one modular sum, and the
        rescale is round_div(p*c, q) mod q, both on the int64 fast base
        conversion, so every slot equals :meth:`BigintEngine.tensor_scale`.
        """
        from repro.obs import get_registry, get_tracer

        slots = a.slots
        get_registry().counter("fhe.tensor_scale.calls", engine="tensor").inc(slots)
        with get_tracer().span(
            "fhe.tensor_scale",
            metric="fhe.tensor_scale.seconds",
            engine="tensor",
            slots=slots,
        ):
            return self._tensor_scale_batch(a, b)

    def _tensor_scale_batch(
        self, a: CiphertextTensor, b: Optional[CiphertextTensor]
    ) -> np.ndarray:
        if a.parts != 2 or (b is not None and b.parts != 2):
            raise ParameterError("tensor products expect 2-part ciphertext tensors")
        ext = self.ext
        fa = self._tensor_ext_forward(a.data)
        fb = fa if b is None else self._tensor_ext_forward(b.data)
        d0 = ext.mod_mul(fa[:, 0], fb[:, 0])
        d1 = ext.mod_add(ext.mod_mul(fa[:, 0], fb[:, 1]), ext.mod_mul(fa[:, 1], fb[:, 0]))
        d2 = ext.mod_mul(fa[:, 1], fb[:, 1])
        exact = ext.inverse(np.stack([d0, d1, d2], axis=1))
        return self.ctx.forward(self._tensor_rescale.rescale(exact))

    def relin_key_stacks(self, rlk_parts: Sequence[Sequence[RnsPoly]]) -> tuple:
        """(D, L, N) eval-domain stacks of the relinearization key halves."""
        self._check_basis([poly for pair in rlk_parts for poly in pair], "key-switching key")
        return (
            np.stack([b.eval_mat() for b, _ in rlk_parts]),
            np.stack([a.eval_mat() for _, a in rlk_parts]),
        )

    def _decompose_base_digits(self, component: np.ndarray, base: int, count: int) -> np.ndarray:
        """(B, L, N) eval-domain parts -> (B, D, L, N) eval-domain digit stacks.

        The shared front half of relinearization, keyswitching and hoisted
        rotation: the base-T digits of each canonical coefficient come
        straight from the residue stacks (:class:`ExactBaseDigits`: the
        canonical projection + limb contraction), equal to
        :meth:`BigintEngine.relin_digits`.
        """
        digits = self._digits
        if (base, count) != (1 << digits.base_bits, digits.count):
            raise ParameterError(
                f"this engine decomposes into {digits.count} base-2^{digits.base_bits} "
                f"digits, not {count} base-{base} digits"
            )
        return self.ctx.forward(digits.digits(self.ctx.inverse(component)))  # (B, D, L, N)

    def tensor_relin(
        self, parts3: np.ndarray, base: int, count: int, key_stacks: tuple
    ) -> CiphertextTensor:
        """Batched base-T relinearization of (B, 3, L, N) eval-domain parts.

        The c2 stack is digit-decomposed on the RNS-native path (each base-T
        digit fits int64 for base <= 2^62), so the digit lifts and the
        weighted key contraction stay on the vectorized path.
        """
        b_stack, a_stack = key_stacks
        digits = self._decompose_base_digits(parts3[:, 2], base, count)
        new0 = self.ctx.mod_add(parts3[:, 0], self.ctx.weighted_sum_mod(digits, b_stack))
        new1 = self.ctx.mod_add(parts3[:, 1], self.ctx.weighted_sum_mod(digits, a_stack))
        return CiphertextTensor(self.ctx, np.stack([new0, new1], axis=1))

    def tensor_mul_plain(self, state: CiphertextTensor, rows: np.ndarray) -> CiphertextTensor:
        """Slot-wise plaintext product: (B, parts, L, N) x prepared (B, L, N)."""
        if rows.shape[0] != state.slots:
            raise ParameterError(f"expected {state.slots} plaintext rows, got {rows.shape[0]}")
        return CiphertextTensor(self.ctx, self.ctx.mod_mul(state.data, rows[:, None]))

    def tensor_galois(self, state: CiphertextTensor, element: int) -> CiphertextTensor:
        """Apply tau_g to every part of every stacked ciphertext (no keyswitch)."""
        from repro.fhe.galois import eval_permutation

        perm = eval_permutation(self.ctx.n, element)
        return CiphertextTensor(self.ctx, np.ascontiguousarray(state.data[..., perm]))

    def galois_key_stacks(self, gk_parts: Sequence[Sequence[RnsPoly]]) -> tuple:
        """(D, L, N) eval-domain stacks of one Galois key element's halves."""
        return self.relin_key_stacks(gk_parts)

    def tensor_keyswitch(self, parts2: np.ndarray, base: int, count: int, key_stacks: tuple) -> CiphertextTensor:
        """Batched base-T key switch of (B, 2, L, N) parts under tau_g(s) -> s.

        ``parts2`` already carries tau_g applied to both components; the
        c1 component is digit-decomposed against a key encrypting
        ``T^i tau_g(s)`` (same transport as :meth:`tensor_relin`, minus the
        pass-through c1 term).
        """
        b_stack, a_stack = key_stacks
        digits = self._decompose_base_digits(parts2[:, 1], base, count)
        new0 = self.ctx.mod_add(parts2[:, 0], self.ctx.weighted_sum_mod(digits, b_stack))
        new1 = self.ctx.weighted_sum_mod(digits, a_stack)
        return CiphertextTensor(self.ctx, np.stack([new0, new1], axis=1))

    def hoisted_decompose(self, parts2: np.ndarray, base: int, count: int) -> np.ndarray:
        """Digit-decompose the c1 component once for reuse across rotations.

        Returns the (B, D, L, N) eval-domain digit stack of ``parts2[:, 1]``
        *before* any automorphism. tau_g is a ring automorphism, so
        ``sum_i tau_g(d_i) T^i = tau_g(c1) mod q``: applying tau_g to the
        digit stack (an eval-domain column permutation) and inner-producing
        against rotation g's key stacks keyswitches tau_g(c1) exactly, and
        each ``tau_g(d_i)`` keeps the < T magnitude bound, so per-rotation
        keyswitch noise is unchanged (Halevi-Shoup hoisting).
        """
        return self._decompose_base_digits(parts2[:, 1], base, count)

    def tensor_keyswitch_hoisted(
        self,
        parts2: np.ndarray,
        digits: np.ndarray,
        elements: Sequence[int],
        key_stacks: Sequence[tuple],
    ) -> np.ndarray:
        """Rotate via a pre-hoisted digit stack: permute, then one inner product.

        ``parts2`` and ``digits`` are both *unrotated* — each ``tau_g`` is
        applied here, to the c0 component and the digit stack, replacing
        the per-rotation decomposition with a coefficient permutation.
        Returns the (E * B, 2, L, N) stack of the B ciphertexts rotated by
        each of the E ``elements`` in turn, against their key stacks; the
        identity element 1 copies them.
        """
        from repro.fhe.galois import eval_permutation

        slots = parts2.shape[0]
        out = np.empty((len(elements) * slots,) + parts2.shape[1:], dtype=np.int64)
        for index, (element, stacks) in enumerate(zip(elements, key_stacks)):
            rotated = out[index * slots : (index + 1) * slots]
            if element == 1:
                rotated[...] = parts2
                continue
            b_stack, a_stack = stacks
            perm = eval_permutation(self.ctx.n, element)
            moved = digits[..., perm]
            rotated[:, 0] = self.ctx.mod_add(
                parts2[:, 0][..., perm], self.ctx.weighted_sum_mod(moved, b_stack)
            )
            rotated[:, 1] = self.ctx.weighted_sum_mod(moved, a_stack)
        return out


def make_engine(params: "Any", engine: str):
    """Build the requested engine (or the best default) for a parameter set.

    ``engine`` may be ``"rns"``, ``"bigint"``, or ``"auto"`` — auto picks
    RNS whenever the parameters carry a prime chain, which is what
    :func:`repro.fhe.bfv.toy_parameters` produces by default. The RNS
    engine refuses, with :class:`ParameterError`, a chain or relinearization
    base its int64 kernels cannot host; ``"bigint"`` serves any parameters.
    """
    if engine == "auto":
        engine = "rns" if params.rns_primes else "bigint"
    if engine == "rns":
        if not params.rns_primes:
            raise ParameterError(
                "RNS engine requires rns_primes (use toy_parameters, which "
                "builds an NTT-friendly prime-product modulus)"
            )
        return RnsEngine(
            params.n, params.q, params.p, params.rns_primes,
            params.relin_base_bits, params.relin_parts,
        )
    if engine == "bigint":
        return BigintEngine(params.n, params.q, params.p)
    raise ParameterError(f"unknown BFV engine {engine!r} (expected 'rns', 'bigint', 'auto')")
