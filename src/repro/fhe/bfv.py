"""Textbook BFV (Fan-Vercauteren) over R_q = Z_q[x]/(x^N + 1).

Implemented from the original scheme description: RLWE keys, scale-Delta
encoding (Delta = floor(q/p)), ciphertext addition, plaintext
multiplication, tensor-product multiplication with p/q scaling, and
base-T relinearization.

Polynomial arithmetic is delegated to a pluggable engine
(:mod:`repro.fhe.engine`): the default is the RNS/CRT engine — q is a
product of machine-word NTT-friendly primes, ciphertext polynomials are
``(num_primes, N)`` eval-domain residue matrices, ring operations are
vectorized pointwise NTT-domain operations, and every CRT crossing runs on
int64 base transports (the structure of hardware FHE datapaths; see
PAPERS.md on BASALISC/Medha). The scalar big-int engine (exact
Kronecker-substitution products) remains available via
``Bfv(..., engine="bigint")`` as the bit-exact reference, and serves
moduli too wide for an int64 prime chain.

This substrate exists to demonstrate the paper's HHE workflow (Fig. 1)
end-to-end. Parameters produced by :func:`toy_parameters` are sized for
*functional correctness and speed*, not for cryptographic security — the
module refuses nothing, but ``BfvParams.secure`` is honest about it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ParameterError
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

    @property
    def levels(self) -> int:
        """Length of the prime chain: the top RNS level."""
        if not self.rns_primes:
            raise ParameterError("RNS levels need a prime-chain modulus (rns_primes)")
        return len(self.rns_primes)

    def at_level(self, level: int) -> "BfvParams":
        """The parameters of the chain's first ``level`` primes.

        ``q_k`` is their product, so ``delta`` and ``relin_parts`` (``D_k``
        base-T digits) follow from it; ``N``, ``p``, ``eta`` and ``T`` stay.
        """
        if not 1 <= level <= self.levels:
            raise ParameterError(f"level {level} is not in [1, {self.levels}]")
        if level == self.levels:
            return self
        primes = self.rns_primes[:level]
        return replace(self, q=math.prod(primes), rns_primes=primes)


def toy_parameters(
    plain_modulus: int,
    n: int = 1024,
    log2_q: int = 250,
    prime_bits: int = 30,
) -> BfvParams:
    """Functional (not secure) BFV parameters with a prime-chain modulus.

    The ciphertext modulus is a product of ``prime_bits``-wide NTT-friendly
    primes covering at least ``log2_q`` bits, so the scheme runs on the RNS
    engine. The default 250 bits is sized for no circuit in particular: for
    a PASTA transcipher take
    :func:`repro.hhe.batched.transcipher_parameters`, the shortest chain the
    noise ledger admits, which the packed evaluator checks at construction.
    A modulus without a prime chain (``BfvParams(n, q, p)`` directly) runs
    on the big-int engine.
    """
    primes = ntt_prime_chain(n, log2_q, prime_bits)
    q = 1
    for prime in primes:
        q *= prime
    return BfvParams(n=n, q=q, p=plain_modulus, rns_primes=primes)


@dataclass
class Ciphertext:
    """A BFV ciphertext: a list of R_q polynomials (usually two).

    The polynomial representation is engine-native — coefficient lists for
    the big-int engine, eval-domain residue matrices (:class:`RnsPoly`) for
    RNS.

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
    ``"bigint"`` force one. The RNS engine refuses, with
    :class:`ParameterError`, a chain or relinearization base its int64
    kernels cannot host. Both engines are bit-exact against each other:
    same seed, same parameters => identical keys, ciphertexts, decryptions
    and noise budgets.
    """

    def __init__(self, params: BfvParams, seed: bytes = b"bfv", engine: str = "auto"):
        self.params = params
        self.engine = make_engine(params, engine)
        self._rng = PolyRng(seed)
        self.noise_model = NoiseModel(params)
        self._root = self
        self._views: dict = {}

    @property
    def engine_name(self) -> str:
        return self.engine.name

    # -- RNS levels -------------------------------------------------------------------

    @property
    def level(self) -> int:
        """Limbs of this scheme's chain (:attr:`BfvParams.levels`)."""
        return self.params.levels

    def at_level(self, level: int) -> "Bfv":
        """The scheme on the first ``level`` primes of the full chain, cached.

        A level view has its own ``q_k``, ``Delta_k``, engine (a prefix
        :class:`~repro.fhe.engine.RnsEngine` with its own extended basis and
        ``D_k`` digits) and noise model, and shares the full scheme's RNG
        and keys: its relinearization and Galois key stacks (the tensor
        ops' key switching) are the ``[:D_k, :k]`` slices of the full
        chain's (a key mod q reduces to a key mod q_k, and ``D_k`` digits
        cover ``q_k``), so no key material is made. The full level is the
        root scheme itself. A view
        is built on its first request; a server builds its views at
        construction, so evaluation only reads them.
        """
        root = self._root
        if level == root.level:
            return root
        view = root._views.get(level)
        if view is None:
            # A shallow copy shares every other field (RNG, root, view cache).
            view = copy.copy(root)
            view.params = root.params.at_level(level)  # refuses a level off the chain
            view.engine = make_engine(view.params, root.engine.name)
            view.noise_model = root.noise_model.at_level(level)
            root._views[level] = view
        return view

    def mod_switch(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Switch a ciphertext at this level down to ``level``: ``round(c/P)``."""
        dst = self._lower(level)
        return Ciphertext(
            parts=[self.engine.mod_switch(part, dst.engine) for part in ct.parts],
            noise=self.noise_model.mod_switch(ct.noise, dst.noise_model),
        )

    def mod_raise(self, ct: Ciphertext, level: Optional[int] = None) -> Ciphertext:
        """Raise a ciphertext at this level to ``level`` (default: the full
        chain) by the exact product ``P c``; it decrypts to the same plaintext."""
        dst = self._higher(level)
        return Ciphertext(
            parts=[self.engine.mod_raise(part, dst.engine) for part in ct.parts],
            noise=self.noise_model.mod_raise(ct.noise, dst.noise_model),
        )

    def tensor_mod_switch(self, state: CiphertextTensor, level: int) -> CiphertextTensor:
        """:meth:`mod_switch` of every stacked ciphertext, in the eval domain."""
        eng = self._tensor_engine()
        dst = self._lower(level)
        eng.ctx.require_basis(state.ctx, "ciphertext tensor")
        out = CiphertextTensor(dst.engine.ctx, eng.switch_evals(state.data, dst.engine))
        out.noise = self.noise_model.mod_switch(state.noise, dst.noise_model)
        return out

    def tensor_mod_raise(
        self, state: CiphertextTensor, level: Optional[int] = None
    ) -> CiphertextTensor:
        """:meth:`mod_raise` of every stacked ciphertext, in the eval domain."""
        eng = self._tensor_engine()
        dst = self._higher(level)
        eng.ctx.require_basis(state.ctx, "ciphertext tensor")
        out = CiphertextTensor(dst.engine.ctx, eng.raise_evals(state.data, dst.engine))
        out.noise = self.noise_model.mod_raise(state.noise, dst.noise_model)
        return out

    def _lower(self, level: int) -> "Bfv":
        if not 1 <= level < self.level:
            raise ParameterError(f"cannot switch from level {self.level} down to {level}")
        return self.at_level(level)

    def _higher(self, level: Optional[int]) -> "Bfv":
        level = self._root.level if level is None else level
        if not self.level < level <= self._root.level:
            raise ParameterError(
                f"cannot raise from level {self.level} to {level} "
                f"(full chain: {self._root.level})"
            )
        return self.at_level(level)

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
        (parts,) = self._switching_keys(s, [eng.mul(s, s)])
        return sk, pk, RelinKey(parts=parts)

    def _switching_keys(self, s, targets) -> List[List[Tuple[Any, Any]]]:
        """Base-T key-switching parts ``(-(a_i s + e_i) + T^i target, a_i)``
        for each target in turn.

        Each part draws ``a_i`` then ``e_i``, in the order of generating the
        keys one polynomial at a time, so the keys are bit for bit those;
        the engine lifts and combines all of them as stacks
        (:meth:`~repro.fhe.engine.RnsEngine.switching_keys`).
        """
        params = self.params
        draws = [
            (
                self._rng.uniform_candidates(params.q, params.n),
                self._rng.centered_binomial_array(params.eta, params.n),
            )
            for _ in range(len(targets) * params.relin_parts)
        ]
        return self.engine.switching_keys(
            s,
            targets,
            np.stack([raw for raw, _ in draws]),
            np.stack([err for _, err in draws]),
            params.relin_base,
        )

    def galois_keygen(self, sk: SecretKey, elements: Sequence[int]) -> GaloisKey:
        """Generate key-switching material for the given Galois elements.

        The identity element 1 needs no key switch and is skipped; duplicate
        elements are generated once. Key material is deterministic given the
        scheme seed and the *order* of prior RNG draws, like every other
        keygen here; all keys are made as one batch
        (:meth:`_switching_keys`), equal to making them one by one.
        """
        targets: List[int] = []
        for element in elements:
            g = int(element) % (2 * self.params.n)
            if g != 1 and g not in targets:
                targets.append(g)
        if not targets:
            return GaloisKey(keys={})
        parts = self._switching_keys(sk.s, [self.engine.galois(sk.s, g) for g in targets])
        return GaloisKey(keys=dict(zip(targets, parts)))

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
        return self.encrypt_polys(pk, [plain])[0]

    def encrypt_polys(self, pk: PublicKey, plains: Sequence[Sequence[int]]) -> List[Ciphertext]:
        """Encrypt plaintext polynomials as one batch.

        Each ciphertext draws ``u``, ``e1`` and ``e2`` in turn, in the order
        of one :meth:`encrypt_poly` call per plaintext, so the batch is bit
        for bit those calls; the engine lifts and combines the draws as
        stacks (:meth:`~repro.fhe.engine.RnsEngine.encrypt_stack`).
        """
        params = self.params
        plains = np.asarray(plains)
        if plains.ndim != 2 or plains.shape[1] != params.n:
            raise ParameterError(f"plaintext must have {params.n} coefficients")
        draws = [
            (
                self._rng.ternary_array(params.n),
                self._rng.centered_binomial_array(params.eta, params.n),
                self._rng.centered_binomial_array(params.eta, params.n),
            )
            for _ in plains
        ]
        stacks = [np.stack([draw[k] for draw in draws]) for k in range(3)]
        fresh = self.noise_model.fresh()
        return [
            Ciphertext(parts=parts, noise=fresh)
            for parts in self.engine.encrypt_stack(
                pk.b, pk.a, stacks, plains % params.p, params.delta
            )
        ]

    def _phase(self, sk: SecretKey, ct: Ciphertext) -> Any:
        eng = self.engine
        # A level view decrypts with the full chain's key, reduced mod q_k.
        s = sk.s if self._root is self else eng.reduce(sk.s)
        acc = ct.parts[0]
        s_current = None
        for i, part in enumerate(ct.parts[1:], start=1):
            s_current = s if i == 1 else eng.mul(s_current, s)
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
        """Remaining noise budget: log2(q / (2 |v|_inf)).

        Below about log2 p bits
        (:attr:`~repro.obs.noise.NoiseModel.decryption_floor_bits`) the
        decryption may be wrong. The budget is measured against the message
        the phase decrypts to, so a wrong decryption reads about log2 p too,
        not 0 or less.
        """
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

        Under the RNS engine the handle holds the plaintext's eval-domain
        matrix, transformed once here, so a plaintext that recurs pays one
        forward transform no matter how often it is used.
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

    def _forward_centered(self, encoded: np.ndarray) -> np.ndarray:
        """``(..., N)`` encoded plaintexts -> ``(..., L, N)`` eval-domain residues.

        Each coefficient is centered mod p into ``(-p/2, p/2]`` (the lift of
        ``prepare_mul_plain``) and transformed by
        :meth:`~repro.fhe.rns.RnsContext.forward_small`.
        """
        p = self.params.p
        reduced = encoded % p
        centered = np.where(reduced > p // 2, reduced - p, reduced)
        return self._tensor_engine().ctx.forward_small(centered)

    def prepare_matrix(self, encoded_rows: np.ndarray) -> PreparedPlain:
        """Prepare a (J, K, N) stack of encoded plaintext polynomials for a
        :meth:`RnsContext.matmul_mod` contraction (the packed evaluator's
        BSGS layers).

        Each (j, k) polynomial is centered mod p (same lift as
        ``prepare_mul_plain``) and forward transformed in the RNS basis —
        one batched NTT for the whole matrix instead of J*K scalar handle
        transforms.
        """
        eng = self._tensor_engine()
        encoded = np.asarray(encoded_rows)
        if encoded.ndim != 3 or encoded.shape[-1] != self.params.n:
            raise ParameterError(
                f"expected a (J, K, {self.params.n}) encoded matrix, got {encoded.shape}"
            )
        value = self._forward_centered(encoded)
        return PreparedPlain(kind="matmul", engine=eng.name, value=value)

    def prepare_mul_rows(self, encoded_rows: np.ndarray) -> PreparedPlain:
        """Prepare a (J, N) stack of encoded plaintexts for slot-wise products.

        Rows get the same centered-mod-p lift as ``prepare_mul_plain`` and
        one batched forward transform (:meth:`_forward_centered`); consumed by
        :meth:`tensor_mul_plain_rows` (row j multiplies stacked ciphertext j).
        """
        eng = self._tensor_engine()
        encoded = np.asarray(encoded_rows)
        if encoded.ndim != 2 or encoded.shape[-1] != self.params.n:
            raise ParameterError(
                f"expected a (J, {self.params.n}) encoded row stack, got {encoded.shape}"
            )
        value = self._forward_centered(encoded)
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

    def _key_stacks(self, key, element: Optional[int], build) -> tuple:
        """One key's (D, L, N) eval-domain stacks on this scheme's chain.

        Cached on the key per (element, RNS context), so a key stacked for
        one chain is checked again before another chain uses it. The full
        chain stacks the key's polynomials (``build``, which refuses a key
        from another chain); a level view slices the full stacks to
        ``[:D_k, :k]``.
        """
        eng = self._tensor_engine()
        cache = key.__dict__.setdefault("_tensor_stacks", {})
        stacks = cache.get((element, eng.ctx))
        if stacks is None:
            if self._root is self:
                stacks = build(eng)
            else:
                digits, limbs = self.params.relin_parts, self.level
                stacks = tuple(
                    half[:digits, :limbs] for half in self._root._key_stacks(key, element, build)
                )
            cache[(element, eng.ctx)] = stacks
        return stacks

    def _relin_key_stacks(self, rlk: RelinKey):
        return self._key_stacks(rlk, None, lambda eng: eng.relin_key_stacks(rlk.parts))

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
        return self._key_stacks(
            gk, element, lambda eng: eng.galois_key_stacks(gk.parts_for(element))
        )

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
        self, state: CiphertextTensor, digits: np.ndarray, steps: Sequence[int], gk: GaloisKey
    ) -> CiphertextTensor:
        """Rotate ``state`` by each of ``steps`` via its pre-hoisted digit stack.

        ``digits`` must come from :meth:`hoisted_decompose` of the same
        ``state``. One engine call returns the (len(steps) * B)-slot stack of
        the B ciphertexts rotated by each step in turn. Each decrypts like
        :meth:`tensor_rotate` (the error cross terms differ below the same
        bound, so residues are not expected to match bit-for-bit — parity
        holds at the plaintext) and carries one key-switch term over the
        source.
        """
        eng = self._tensor_engine()
        if state.parts != 2:
            raise ParameterError("hoisted rotation expects 2-part ciphertext tensors")
        elements = [rotation_element(self.params.n, step) for step in steps]
        stacks = [None if g == 1 else self._galois_key_stacks(gk, g) for g in elements]
        data = eng.tensor_keyswitch_hoisted(state.data, digits, elements, stacks)
        noise = self.noise_model.hoisted_rotation(state.noise)
        if all(g == 1 for g in elements):
            noise = state.noise
        return CiphertextTensor(eng.ctx, data, noise=noise)
