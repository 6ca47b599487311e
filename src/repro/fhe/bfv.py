"""Textbook BFV (Fan-Vercauteren) over R_q = Z_q[x]/(x^N + 1).

Implemented from the original scheme description: RLWE keys, scale-Delta
encoding (Delta = floor(q/p)), ciphertext addition, plaintext
multiplication, tensor-product multiplication with p/q scaling, and
base-T relinearization.

Polynomial arithmetic is delegated to a pluggable engine
(:mod:`repro.fhe.engine`): the default is the RNS/CRT engine — q is a
product of machine-word NTT-friendly primes, ciphertext polynomials are
``(num_primes, N)`` residue matrices, and add/mul-plain chains run as
vectorized pointwise NTT-domain operations (the structure of hardware FHE
datapaths; see PAPERS.md on BASALISC/Medha). The scalar big-int engine
(exact Kronecker-substitution products) remains available via
``Bfv(..., engine="bigint")`` as the bit-exact reference.

This substrate exists to demonstrate the paper's HHE workflow (Fig. 1)
end-to-end. Parameters produced by :func:`toy_parameters` are sized for
*functional correctness and speed*, not for cryptographic security — the
module refuses nothing, but ``BfvParams.secure`` is honest about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import NoiseBudgetExhausted, ParameterError
from repro.fhe.engine import CiphertextTensor, PreparedPlain, make_engine, round_div
from repro.fhe.galois import rotation_element
from repro.fhe.rns import ntt_prime_chain
from repro.fhe.rng import PolyRng
from repro.obs.noise import NoiseEstimate, NoiseModel

_round_div = round_div  # kept under the historical private name


@dataclass(frozen=True)
class BfvParams:
    """BFV parameter set: ring degree N, ciphertext modulus q, plain modulus p.

    ``rns_primes``, when present, is the NTT-friendly prime chain whose
    product is q; it enables the RNS/CRT engine. Parameters without a chain
    (e.g. a power-of-two q) are served by the scalar big-int engine.
    """

    n: int
    q: int
    p: int
    eta: int = 2  #: centered-binomial noise parameter
    relin_base_bits: int = 62  #: T = 2^bits decomposition base
    secure: bool = False  #: toy parameters are never claimed secure
    rns_primes: Optional[Tuple[int, ...]] = field(default=None)

    def __post_init__(self) -> None:
        if self.q <= self.p:
            raise ParameterError("q must exceed the plaintext modulus")
        if self.n & (self.n - 1):
            raise ParameterError("N must be a power of two")
        if self.rns_primes is not None:
            product = 1
            for prime in self.rns_primes:
                if (prime - 1) % (2 * self.n):
                    raise ParameterError(
                        f"RNS prime {prime} does not support a 2N-th root of unity"
                    )
                product *= prime
            if product != self.q:
                raise ParameterError("rns_primes product must equal q")

    @property
    def delta(self) -> int:
        return self.q // self.p

    @property
    def relin_base(self) -> int:
        return 1 << self.relin_base_bits

    @property
    def relin_parts(self) -> int:
        return -(-self.q.bit_length() // self.relin_base_bits)

    @property
    def ciphertext_bytes(self) -> int:
        """Serialized size of a fresh 2-component ciphertext."""
        return 2 * self.n * ((self.q.bit_length() + 7) // 8)


def toy_parameters(
    plain_modulus: int,
    n: int = 1024,
    log2_q: int = 250,
    rns: bool = True,
    prime_bits: int = 30,
) -> BfvParams:
    """Functional parameters sized for the PASTA toy circuit depth.

    By default the ciphertext modulus is a product of ``prime_bits``-wide
    NTT-friendly primes covering at least ``log2_q`` bits, so the scheme
    runs on the RNS engine. ``rns=False`` reproduces the historical
    power-of-two modulus served by the scalar big-int engine.
    """
    if not rns:
        return BfvParams(n=n, q=1 << log2_q, p=plain_modulus)
    primes = ntt_prime_chain(n, log2_q, prime_bits)
    q = 1
    for prime in primes:
        q *= prime
    return BfvParams(n=n, q=q, p=plain_modulus, rns_primes=primes)


@dataclass
class Ciphertext:
    """A BFV ciphertext: a list of R_q polynomials (usually two).

    The polynomial representation is engine-native — coefficient lists for
    the big-int engine, lazily dual-domain residue matrices for RNS.

    ``noise`` is the ledger's modeled bound (see :mod:`repro.obs.noise`):
    every homomorphic op updates it via the scheme's closed-form growth
    rules, so the server can read headroom without the secret key. A
    ciphertext of unknown provenance simply carries ``None``.
    """

    parts: List[Any]
    noise: Optional[NoiseEstimate] = None

    @property
    def size(self) -> int:
        return len(self.parts)


@dataclass
class SecretKey:
    s: Any


@dataclass
class PublicKey:
    b: Any  #: -(a s + e)
    a: Any


@dataclass
class RelinKey:
    """Base-T key-switching key for s^2 -> s."""

    parts: List[Tuple[Any, Any]]


@dataclass
class GaloisKey:
    """Base-T key-switching keys for tau_g(s) -> s, one list per element g.

    Same digit decomposition as :class:`RelinKey` — element g's entry i is
    ``(-(a_i s + e_i) + T^i tau_g(s), a_i)`` — so applying an automorphism
    costs exactly one relinearization-shaped key switch.
    """

    keys: "dict[int, List[Tuple[Any, Any]]]"

    @property
    def elements(self) -> Tuple[int, ...]:
        return tuple(sorted(self.keys))

    def parts_for(self, element: int) -> List[Tuple[Any, Any]]:
        try:
            return self.keys[element]
        except KeyError:
            raise ParameterError(
                f"no Galois key material for element {element} "
                f"(have {sorted(self.keys)})"
            ) from None


class Bfv:
    """The BFV scheme instance (deterministic given the seed).

    ``engine`` selects the polynomial substrate: ``"auto"`` (default) uses
    RNS whenever the parameters carry a prime chain, ``"rns"`` /
    ``"bigint"`` force one. Both engines are bit-exact against each other:
    same seed, same parameters => identical keys, ciphertexts, decryptions
    and noise budgets.
    """

    def __init__(self, params: BfvParams, seed: bytes = b"bfv", engine: str = "auto"):
        self.params = params
        self.engine = make_engine(params, engine)
        self._rng = PolyRng(seed)
        self.noise_model = NoiseModel(params)

    @property
    def engine_name(self) -> str:
        return self.engine.name

    # -- key generation ---------------------------------------------------------

    def keygen(self) -> Tuple[SecretKey, PublicKey, RelinKey]:
        eng = self.engine
        params = self.params
        s = eng.lift(self._rng.ternary(params.n))
        a = eng.lift(self._rng.uniform_mod(params.q, params.n))
        e = eng.lift(self._rng.centered_binomial(params.eta, params.n))
        b = eng.sub(eng.neg(eng.mul(a, s)), e)
        sk = SecretKey(s=s)
        pk = PublicKey(b=b, a=a)

        # Relinearization key: rlk_i = (-(a_i s + e_i) + T^i s^2, a_i).
        s_sq = eng.mul(s, s)
        parts = []
        power = 1
        for _ in range(params.relin_parts):
            a_i = eng.lift(self._rng.uniform_mod(params.q, params.n))
            e_i = eng.lift(self._rng.centered_binomial(params.eta, params.n))
            b_i = eng.add(eng.sub(eng.neg(eng.mul(a_i, s)), e_i), eng.scalar_mul(power, s_sq))
            parts.append((b_i, a_i))
            power = (power * params.relin_base) % params.q
        return sk, pk, RelinKey(parts=parts)

    def galois_keygen(self, sk: SecretKey, elements: Sequence[int]) -> GaloisKey:
        """Generate key-switching material for the given Galois elements.

        The identity element 1 needs no key switch and is skipped; duplicate
        elements are generated once. Key material is deterministic given the
        scheme seed and the *order* of prior RNG draws, like every other
        keygen here.
        """
        eng = self.engine
        params = self.params
        keys: dict = {}
        for element in elements:
            g = int(element) % (2 * params.n)
            if g == 1 or g in keys:
                continue
            s_g = eng.galois(sk.s, g)
            parts = []
            power = 1
            for _ in range(params.relin_parts):
                a_i = eng.lift(self._rng.uniform_mod(params.q, params.n))
                e_i = eng.lift(self._rng.centered_binomial(params.eta, params.n))
                b_i = eng.add(eng.sub(eng.neg(eng.mul(a_i, sk.s)), e_i), eng.scalar_mul(power, s_g))
                parts.append((b_i, a_i))
                power = (power * params.relin_base) % params.q
            keys[g] = parts
        return GaloisKey(keys=keys)

    def rotation_keygen(self, sk: SecretKey, steps: Sequence[int]) -> GaloisKey:
        """Galois keys for slot rotations by each of ``steps`` (see rotate_slots)."""
        return self.galois_keygen(
            sk, [rotation_element(self.params.n, s) for s in steps]
        )

    # -- encryption / decryption ---------------------------------------------------

    def encrypt(self, pk: PublicKey, message: int) -> Ciphertext:
        """Encrypt a scalar in [0, p) as the constant coefficient."""
        return self.encrypt_poly(pk, self.ring_plain(message))

    def ring_plain(self, message: int) -> List[int]:
        if not 0 <= message < self.params.p:
            raise ParameterError(f"message {message} not in [0, {self.params.p})")
        plain = [0] * self.params.n
        plain[0] = message
        return plain

    def encrypt_poly(self, pk: PublicKey, plain: Sequence[int]) -> Ciphertext:
        eng = self.engine
        params = self.params
        u = eng.lift(self._rng.ternary(params.n))
        e1 = eng.lift(self._rng.centered_binomial(params.eta, params.n))
        e2 = eng.lift(self._rng.centered_binomial(params.eta, params.n))
        scaled = eng.scalar_mul(params.delta, eng.lift(self._reduced_plain(plain)))
        c0 = eng.add(eng.add(eng.mul(pk.b, u), e1), scaled)
        c1 = eng.add(eng.mul(pk.a, u), e2)
        return Ciphertext(parts=[c0, c1], noise=self.noise_model.fresh())

    def _phase(self, sk: SecretKey, ct: Ciphertext) -> Any:
        eng = self.engine
        acc = ct.parts[0]
        s_current = None
        for i, part in enumerate(ct.parts[1:], start=1):
            s_current = sk.s if i == 1 else eng.mul(s_current, sk.s)
            acc = eng.add(acc, eng.mul(part, s_current))
        return acc

    def decrypt_poly(self, sk: SecretKey, ct: Ciphertext) -> List[int]:
        params = self.params
        phase = self.engine.centered(self._phase(sk, ct))
        return [_round_div(params.p * c, params.q) % params.p for c in phase]

    def decrypt(self, sk: SecretKey, ct: Ciphertext) -> int:
        """Decrypt a scalar ciphertext (constant coefficient)."""
        return self.decrypt_poly(sk, ct)[0]

    def noise_budget_bits(self, sk: SecretKey, ct: Ciphertext) -> float:
        """Remaining noise budget: log2(q / (2 |v|_inf)); <= 0 means corrupted."""
        from math import log2

        params = self.params
        phase = self.engine.centered(self._phase(sk, ct))
        plain = [_round_div(params.p * c, params.q) % params.p for c in phase]
        noise = 1
        for c, m in zip(phase, plain):
            v = c - params.delta * m
            # account for wraparound: choose the representative closest to zero
            v = min((v % params.q, v % params.q - params.q), key=abs)
            noise = max(noise, abs(v))
        return log2(params.q) - 1 - log2(noise)

    # -- homomorphic operations ------------------------------------------------------

    def add(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        if ct1.size != ct2.size:
            raise ParameterError("ciphertext sizes differ; relinearize first")
        eng = self.engine
        return Ciphertext(
            parts=[eng.add(a, b) for a, b in zip(ct1.parts, ct2.parts)],
            noise=self.noise_model.add(ct1.noise, ct2.noise),
        )

    def neg(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext(
            parts=[self.engine.neg(p) for p in ct.parts],
            noise=self.noise_model.neg(ct.noise),
        )

    def add_plain(self, ct: Ciphertext, message: int) -> Ciphertext:
        params = self.params
        value = params.delta * (message % params.p) % params.q
        parts = list(ct.parts)
        parts[0] = self.engine.add_const(parts[0], value)
        return Ciphertext(parts=parts, noise=self.noise_model.add_plain(ct.noise))

    def mul_plain(self, ct: Ciphertext, constant: int) -> Ciphertext:
        """Multiply by a public scalar (centered lift minimizes noise growth)."""
        c = constant % self.params.p
        if c > self.params.p // 2:
            c -= self.params.p  # centered representative
        return Ciphertext(
            parts=[self.engine.scalar_mul(c, p) for p in ct.parts],
            noise=self.noise_model.mul_plain(ct.noise),
        )

    # -- plaintext-polynomial operations (used by slot batching) -----------------

    def _centered_plain(self, plain: Sequence[int]) -> List[int]:
        p = self.params.p
        half = p // 2
        return [(c % p) - p if (c % p) > half else (c % p) for c in plain]

    def _reduced_plain(self, plain: Sequence[int]) -> List[int]:
        if len(plain) != self.params.n:
            raise ParameterError(f"plaintext must have {self.params.n} coefficients")
        return [int(c) % self.params.p for c in plain]

    def _take_prepared(self, plain: Union[Sequence[int], PreparedPlain], kind: str) -> Any:
        if isinstance(plain, PreparedPlain):
            if plain.kind != kind or plain.engine != self.engine.name:
                raise ParameterError(
                    f"prepared plaintext is {plain.kind!r}/{plain.engine!r}, "
                    f"needed {kind!r}/{self.engine.name!r}"
                )
            return plain.value
        prepare = self.prepare_mul_plain if kind == "mul" else self.prepare_add_plain
        return prepare(plain).value

    def prepare_mul_plain(self, plain: Sequence[int]) -> PreparedPlain:
        """Pre-encode a plaintext polynomial for repeated ``mul_plain_poly``.

        Under the RNS engine the handle caches its NTT form after first use,
        so the per-round affine-matrix plaintexts of the PASTA circuit pay
        one forward transform no matter how often they recur.
        """
        self._reduced_plain(plain)  # length / coefficient validation
        handle = self.engine.prepare_mul_plain(self._centered_plain(plain))
        return PreparedPlain(kind="mul", engine=self.engine.name, value=handle)

    def prepare_add_plain(self, plain: Sequence[int]) -> PreparedPlain:
        """Pre-encode a Delta-scaled plaintext polynomial for ``add_plain_poly``."""
        scaled = self.engine.scalar_mul(self.params.delta, self.engine.lift(self._reduced_plain(plain)))
        return PreparedPlain(kind="add", engine=self.engine.name, value=scaled)

    def add_plain_poly(
        self, ct: Ciphertext, plain: Union[Sequence[int], PreparedPlain]
    ) -> Ciphertext:
        """Add a plaintext polynomial (e.g. an encoded slot vector)."""
        scaled = self._take_prepared(plain, "add")
        parts = list(ct.parts)
        parts[0] = self.engine.add(parts[0], scaled)
        return Ciphertext(parts=parts, noise=self.noise_model.add_plain(ct.noise))

    def mul_plain_poly(
        self, ct: Ciphertext, plain: Union[Sequence[int], PreparedPlain]
    ) -> Ciphertext:
        """Multiply by a plaintext polynomial (slot-wise product when the
        polynomial encodes a slot vector). Centered coefficients keep the
        noise growth at ||plain||_1 rather than p * N."""
        handle = self._take_prepared(plain, "mul")
        return Ciphertext(
            parts=[self.engine.mul_plain(part, handle) for part in ct.parts],
            noise=self.noise_model.mul_plain_poly(ct.noise),
        )

    def multiply_raw(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """Tensor multiplication -> 3-component ciphertext (no relin)."""
        if ct1.size != 2 or ct2.size != 2:
            raise ParameterError("multiply expects 2-component ciphertexts")
        return Ciphertext(
            parts=self.engine.tensor_scale(ct1.parts, ct2.parts),
            noise=self.noise_model.multiply_raw(ct1.noise, ct2.noise),
        )

    def relinearize(self, ct: Ciphertext, rlk: RelinKey) -> Ciphertext:
        """Key-switch a 3-component ciphertext back to two components."""
        if ct.size != 3:
            raise ParameterError("relinearize expects a 3-component ciphertext")
        eng = self.engine
        params = self.params
        c0, c1, c2 = ct.parts
        digits = eng.relin_digits(c2, params.relin_base, params.relin_parts)
        new0, new1 = c0, c1
        for d, (b_i, a_i) in zip(digits, rlk.parts):
            new0 = eng.add(new0, eng.mul(d, b_i))
            new1 = eng.add(new1, eng.mul(d, a_i))
        return Ciphertext(parts=[new0, new1], noise=self.noise_model.keyswitch(ct.noise))

    def multiply(self, ct1: Ciphertext, ct2: Ciphertext, rlk: RelinKey) -> Ciphertext:
        """Full homomorphic multiplication: tensor + relinearize."""
        return self.relinearize(self.multiply_raw(ct1, ct2), rlk)

    def square(self, ct: Ciphertext, rlk: RelinKey) -> Ciphertext:
        return self.multiply(ct, ct, rlk)

    # -- Galois automorphisms / slot rotations ------------------------------------

    def apply_galois(self, ct: Ciphertext, element: int, gk: GaloisKey) -> Ciphertext:
        """Apply tau_g to a 2-component ciphertext and switch back to s.

        tau_g maps an encryption under s to one under tau_g(s); the base-T
        key switch (same decomposition as relinearization) returns it to s,
        so the result decrypts to the slot-permuted plaintext.
        """
        if ct.size != 2:
            raise ParameterError("apply_galois expects a 2-component ciphertext")
        eng = self.engine
        params = self.params
        g = int(element) % (2 * params.n)
        if g == 1:
            return Ciphertext(parts=list(ct.parts), noise=ct.noise)
        c0 = eng.galois(ct.parts[0], g)
        c1 = eng.galois(ct.parts[1], g)
        digits = eng.relin_digits(c1, params.relin_base, params.relin_parts)
        new0 = c0
        new1 = None
        for d, (b_i, a_i) in zip(digits, gk.parts_for(g)):
            new0 = eng.add(new0, eng.mul(d, b_i))
            term = eng.mul(d, a_i)
            new1 = term if new1 is None else eng.add(new1, term)
        return Ciphertext(parts=[new0, new1], noise=self.noise_model.rotate(ct.noise))

    def rotate_slots(self, ct: Ciphertext, steps: int, gk: GaloisKey) -> Ciphertext:
        """Rotate both batching-hypercube rows LEFT by ``steps`` slots.

        Slots are organized as a (2, N/2) hypercube in generator order (see
        :func:`repro.fhe.galois.galois_slot_order`); negative steps rotate
        right. The required key is produced by :meth:`rotation_keygen`.
        """
        return self.apply_galois(ct, rotation_element(self.params.n, steps), gk)

    # -- fused ciphertext-tensor operations (RNS engine only) ---------------------

    def _tensor_engine(self):
        if self.engine.name != "rns":
            raise ParameterError(
                "ciphertext-tensor kernels require the RNS engine "
                f"(this scheme runs {self.engine.name!r})"
            )
        return self.engine

    def stack_ciphertexts(self, cts: Sequence[Ciphertext]) -> CiphertextTensor:
        """Stack same-size ciphertexts into one eval-domain residue tensor."""
        tensor = self._tensor_engine().stack_polys([ct.parts for ct in cts])
        tensor.noise = self.noise_model.merge(ct.noise for ct in cts)
        return tensor

    def unstack_ciphertexts(self, tensor: CiphertextTensor) -> List[Ciphertext]:
        # Every slot inherits the tensor's worst-slot bound.
        return [
            Ciphertext(parts=row, noise=tensor.noise)
            for row in self._tensor_engine().unstack_polys(tensor)
        ]

    def _take_prepared_tensor(self, prepared: PreparedPlain, kind: str) -> np.ndarray:
        if not isinstance(prepared, PreparedPlain) or prepared.kind != kind or (
            prepared.engine != self.engine.name
        ):
            got = (
                f"{prepared.kind!r}/{prepared.engine!r}"
                if isinstance(prepared, PreparedPlain)
                else type(prepared).__name__
            )
            raise ParameterError(
                f"prepared plaintext is {got}, needed {kind!r}/{self.engine.name!r}"
            )
        return prepared.value

    def prepare_matrix(self, encoded_rows: np.ndarray) -> PreparedPlain:
        """Prepare a (J, K, N) stack of encoded plaintext polynomials for
        :meth:`tensor_affine`.

        Each (j, k) polynomial is centered mod p (same lift as
        ``prepare_mul_plain``), reduced into the RNS basis, and forward
        transformed — one batched NTT for the whole matrix instead of J*K
        scalar handle transforms.
        """
        eng = self._tensor_engine()
        encoded = np.asarray(encoded_rows)
        if encoded.ndim != 3 or encoded.shape[-1] != self.params.n:
            raise ParameterError(
                f"expected a (J, K, {self.params.n}) encoded matrix, got {encoded.shape}"
            )
        p = self.params.p
        half = p // 2
        reduced = encoded % p
        centered = np.where(reduced > half, reduced - p, reduced)
        value = eng.ctx.forward(eng.ctx.to_rns_batch(centered))
        return PreparedPlain(kind="matmul", engine=eng.name, value=value)

    def prepare_mul_rows(self, encoded_rows: np.ndarray) -> PreparedPlain:
        """Prepare a (J, N) stack of encoded plaintexts for slot-wise products.

        Rows get the same centered-mod-p lift as ``prepare_mul_plain`` and
        one batched forward transform; consumed by
        :meth:`tensor_mul_plain_rows` (row j multiplies stacked ciphertext j).
        """
        eng = self._tensor_engine()
        encoded = np.asarray(encoded_rows)
        if encoded.ndim != 2 or encoded.shape[-1] != self.params.n:
            raise ParameterError(
                f"expected a (J, {self.params.n}) encoded row stack, got {encoded.shape}"
            )
        p = self.params.p
        half = p // 2
        reduced = encoded % p
        centered = np.where(reduced > half, reduced - p, reduced)
        value = eng.ctx.forward(eng.ctx.to_rns_batch(centered))
        return PreparedPlain(kind="mul_rows", engine=eng.name, value=value)

    def prepare_add_rows(self, encoded_rows: np.ndarray) -> PreparedPlain:
        """Prepare a (J, N) stack of encoded plaintexts for broadcast addition.

        Rows are reduced mod p, Delta-scaled per residue prime, and forward
        transformed — the batched analogue of ``prepare_add_plain``.
        """
        eng = self._tensor_engine()
        encoded = np.asarray(encoded_rows)
        if encoded.ndim != 2 or encoded.shape[-1] != self.params.n:
            raise ParameterError(
                f"expected a (J, {self.params.n}) encoded row stack, got {encoded.shape}"
            )
        residues = eng.ctx.to_rns_batch(encoded % self.params.p)
        delta = eng.ctx.scalar_residues(self.params.delta)
        value = eng.ctx.forward(eng.ctx.mod_mul(residues, delta))
        return PreparedPlain(kind="add_rows", engine=eng.name, value=value)

    def tensor_affine(
        self,
        state: CiphertextTensor,
        matrix: PreparedPlain,
        rc: Optional[PreparedPlain] = None,
    ) -> CiphertextTensor:
        """Fused affine layer: prepared matrix einsum + round-constant add."""
        eng = self._tensor_engine()
        rc_rows = self._take_prepared_tensor(rc, "add_rows") if rc is not None else None
        out = eng.tensor_affine(self._take_prepared_tensor(matrix, "matmul"), state, rc_rows)
        out.noise = self.noise_model.affine(
            state.noise, state.slots, round_constant=rc is not None
        )
        return out

    def tensor_add(self, a: CiphertextTensor, b: CiphertextTensor) -> CiphertextTensor:
        if a.data.shape != b.data.shape:
            raise ParameterError("tensor addition requires matching shapes")
        out = self._tensor_engine().tensor_add(a, b)
        out.noise = self.noise_model.add(a.noise, b.noise)
        return out

    def tensor_neg(self, a: CiphertextTensor) -> CiphertextTensor:
        out = self._tensor_engine().tensor_neg(a)
        out.noise = self.noise_model.neg(a.noise)
        return out

    def tensor_add_plain_rows(self, state: CiphertextTensor, rows: PreparedPlain) -> CiphertextTensor:
        out = self._tensor_engine().tensor_add_rows(
            state, self._take_prepared_tensor(rows, "add_rows")
        )
        out.noise = self.noise_model.add_plain(state.noise)
        return out

    def _relin_key_stacks(self, rlk: RelinKey):
        # Cached per RNS context, so a key stacked for one scheme is checked
        # again before another scheme uses it.
        eng = self._tensor_engine()
        cached = getattr(rlk, "_tensor_stacks", None)
        if cached is None or cached[0] is not eng.ctx:
            cached = (eng.ctx, eng.relin_key_stacks(rlk.parts))
            rlk._tensor_stacks = cached
        return cached[1]

    def tensor_square(self, state: CiphertextTensor, rlk: RelinKey) -> CiphertextTensor:
        """Batched square + relinearize of every slot of the tensor."""
        eng = self._tensor_engine()
        parts3 = eng.tensor_scale_batch(state)
        out = eng.tensor_relin(
            parts3, self.params.relin_base, self.params.relin_parts, self._relin_key_stacks(rlk)
        )
        out.noise = self.noise_model.multiply(state.noise, state.noise)
        return out

    def tensor_mul(
        self, a: CiphertextTensor, b: CiphertextTensor, rlk: RelinKey
    ) -> CiphertextTensor:
        """Batched slot-wise multiply + relinearize (a[s] * b[s] per slot)."""
        if a.slots != b.slots:
            raise ParameterError("tensor multiply requires matching slot counts")
        eng = self._tensor_engine()
        parts3 = eng.tensor_scale_batch(a, b)
        out = eng.tensor_relin(
            parts3, self.params.relin_base, self.params.relin_parts, self._relin_key_stacks(rlk)
        )
        out.noise = self.noise_model.multiply(a.noise, b.noise)
        return out

    def tensor_mul_plain_rows(self, state: CiphertextTensor, rows: PreparedPlain) -> CiphertextTensor:
        """Slot-wise plaintext product per stacked ciphertext (masking etc.)."""
        out = self._tensor_engine().tensor_mul_plain(
            state, self._take_prepared_tensor(rows, "mul_rows")
        )
        out.noise = self.noise_model.mul_plain_poly(state.noise)
        return out

    def _galois_key_stacks(self, gk: GaloisKey, element: int):
        eng = self._tensor_engine()
        cache = getattr(gk, "_tensor_stacks", None)
        if cache is None:
            cache = {}
            gk._tensor_stacks = cache
        cached = cache.get(element)
        if cached is None or cached[0] is not eng.ctx:
            cached = (eng.ctx, eng.galois_key_stacks(gk.parts_for(element)))
            cache[element] = cached
        return cached[1]

    def tensor_apply_galois(
        self, state: CiphertextTensor, element: int, gk: GaloisKey
    ) -> CiphertextTensor:
        """Batched tau_g + key switch over a (B, 2, L, N) ciphertext stack."""
        eng = self._tensor_engine()
        params = self.params
        g = int(element) % (2 * params.n)
        if g == 1:
            return state
        if state.parts != 2:
            raise ParameterError("tensor galois expects 2-part ciphertext tensors")
        rotated = eng.tensor_galois(state, g)
        out = eng.tensor_keyswitch(
            rotated.data,
            params.relin_base,
            params.relin_parts,
            self._galois_key_stacks(gk, g),
        )
        out.noise = self.noise_model.rotate(state.noise)
        return out

    def tensor_rotate(self, state: CiphertextTensor, steps: int, gk: GaloisKey) -> CiphertextTensor:
        """Batched slot rotation (left by ``steps``) of every stacked ciphertext."""
        return self.tensor_apply_galois(state, rotation_element(self.params.n, steps), gk)

    def hoisted_decompose(self, state: CiphertextTensor) -> np.ndarray:
        """Digit-decompose a ciphertext stack's c1 once, for many rotations.

        Returns the (B, D, L, N) eval-domain digit stack consumed by
        :meth:`tensor_rotate_hoisted`. Every rotation applied from the same
        stack pays only an automorphism permutation plus one key inner
        product (Halevi-Shoup hoisting) instead of a full decomposition,
        and adds a *single* keyswitch-noise term to the source estimate
        (:meth:`repro.obs.noise.NoiseModel.hoisted_rotation`).
        """
        eng = self._tensor_engine()
        if state.parts != 2:
            raise ParameterError("hoisted decomposition expects 2-part ciphertext tensors")
        return eng.hoisted_decompose(
            state.data, self.params.relin_base, self.params.relin_parts
        )

    def tensor_rotate_hoisted(
        self, state: CiphertextTensor, digits: np.ndarray, steps: int, gk: GaloisKey
    ) -> CiphertextTensor:
        """Rotate ``state`` by ``steps`` via its pre-hoisted digit stack.

        ``digits`` must come from :meth:`hoisted_decompose` of the same
        ``state``. Decrypts identically to :meth:`tensor_rotate` (the error
        cross terms differ below the same bound, so residues are not
        expected to match bit-for-bit — parity holds at the plaintext).
        """
        eng = self._tensor_engine()
        params = self.params
        g = rotation_element(params.n, steps)
        if g == 1:
            return CiphertextTensor(eng.ctx, np.array(state.data), noise=state.noise)
        if state.parts != 2:
            raise ParameterError("hoisted rotation expects 2-part ciphertext tensors")
        out = eng.tensor_keyswitch_hoisted(
            state.data, digits, g, self._galois_key_stacks(gk, g)
        )
        out.noise = self.noise_model.hoisted_rotation(state.noise)
        return out

    def expect_correct(self, sk: SecretKey, ct: Ciphertext, expected: int) -> None:
        """Raise :class:`NoiseBudgetExhausted` if decryption mismatches."""
        got = self.decrypt(sk, ct)
        if got != expected % self.params.p:
            raise NoiseBudgetExhausted(
                f"decrypted {got}, expected {expected % self.params.p} "
                f"(budget {self.noise_budget_bits(sk, ct):.1f} bits)"
            )
