"""PASTA decryption as an explicit arithmetic circuit (for the HHE server).

The server holds the FHE-encrypted key and the *public* per-block material
(nonce, counter -> matrices and round constants). "Homomorphic HHE
decryption" (paper Fig. 1) evaluates the PASTA permutation over encrypted
state elements and subtracts the result from the symmetric ciphertext.

The circuit is expressed against an abstract :class:`ArithmeticBackend`, so
the same code path drives

* :class:`PlainBackend` — plain integers (used to cross-check the circuit
  against the reference cipher), and
* ``repro.hhe.BfvBackend`` — BFV ciphertexts (the actual HHE server).

Cost model: one affine layer costs t^2 plaintext multiplications; the
Feistel S-box costs one ciphertext-ciphertext square per element; the cube
S-box costs two. Multiplicative depth is ``rounds + 1`` (each Feistel round
adds one level, the cube adds two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, List, Sequence, TypeVar

from repro.errors import ParameterError
from repro.ff.prime import PrimeField
from repro.pasta.cipher import BlockMaterials, generate_block_materials
from repro.pasta.params import PastaParams

T = TypeVar("T")


class ArithmeticBackend(Generic[T]):
    """Operations the circuit needs; plug in plain or homomorphic values."""

    def add(self, a: T, b: T) -> T:
        raise NotImplementedError

    def add_plain(self, a: T, constant: int) -> T:
        raise NotImplementedError

    def mul_plain(self, a: T, constant: int) -> T:
        raise NotImplementedError

    def square(self, a: T) -> T:
        raise NotImplementedError

    def mul(self, a: T, b: T) -> T:
        raise NotImplementedError

    def neg(self, a: T) -> T:
        raise NotImplementedError


class PlainBackend(ArithmeticBackend[int]):
    """Reference backend over plain field elements."""

    def __init__(self, field: PrimeField):
        self.field = field

    def add(self, a: int, b: int) -> int:
        return self.field.add(a, b)

    def add_plain(self, a: int, constant: int) -> int:
        return self.field.add(a, constant)

    def mul_plain(self, a: int, constant: int) -> int:
        return self.field.mul(a, constant)

    def square(self, a: int) -> int:
        return self.field.square(a)

    def mul(self, a: int, b: int) -> int:
        return self.field.mul(a, b)

    def neg(self, a: int) -> int:
        return self.field.neg(a)


@dataclass
class CircuitCost:
    """Operation counters accumulated while evaluating the circuit."""

    plain_muls: int = 0
    plain_adds: int = 0
    ct_adds: int = 0
    ct_squares: int = 0
    ct_muls: int = 0


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


class KeystreamCircuit:
    """The keystream computation KS = Trunc(pi(K)) as a backend-generic circuit."""

    def __init__(self, params: PastaParams, materials: BlockMaterials):
        # Structural equality, not identity: materials deserialized or built
        # from an equal-but-distinct PastaParams instance are just as valid.
        if materials.params != params:
            raise ParameterError("materials were generated for different parameters")
        self.params = params
        self.materials = materials
        self.cost = CircuitCost()

    @classmethod
    def for_block(cls, params: PastaParams, nonce: int, counter: int) -> "KeystreamCircuit":
        """Build the circuit from public data only (what the server knows)."""
        return cls(params, generate_block_materials(params, nonce, counter))

    @staticmethod
    def multiplicative_depth(params: PastaParams) -> int:
        """Ciphertext-multiplication depth: one per Feistel round, two for cube."""
        return (params.rounds - 1) + 2

    # -- evaluation -----------------------------------------------------------

    def _affine(
        self, backend: ArithmeticBackend[T], matrix, state: List[T], rc
    ) -> List[T]:
        t = len(state)
        out: List[T] = []
        for j in range(t):
            acc = backend.mul_plain(state[0], int(matrix[j, 0]))
            self.cost.plain_muls += 1
            for k in range(1, t):
                acc = backend.add(acc, backend.mul_plain(state[k], int(matrix[j, k])))
                self.cost.plain_muls += 1
                self.cost.ct_adds += 1
            out.append(backend.add_plain(acc, int(rc[j])))
            self.cost.plain_adds += 1
        return out

    def _mix(self, backend: ArithmeticBackend[T], xl: List[T], xr: List[T]):
        s = [backend.add(a, b) for a, b in zip(xl, xr)]
        left = [backend.add(a, m) for a, m in zip(xl, s)]
        right = [backend.add(b, m) for b, m in zip(xr, s)]
        self.cost.ct_adds += 3 * len(xl)
        return left, right

    def _feistel(self, backend: ArithmeticBackend[T], state: List[T]) -> List[T]:
        out = [state[0]]
        for j in range(1, len(state)):
            out.append(backend.add(state[j], backend.square(state[j - 1])))
        self.cost.ct_squares += len(state) - 1
        self.cost.ct_adds += len(state) - 1
        return out

    def _cube(self, backend: ArithmeticBackend[T], state: List[T]) -> List[T]:
        out = [backend.mul(backend.square(x), x) for x in state]
        self.cost.ct_squares += len(state)
        self.cost.ct_muls += len(state)
        return out

    def evaluate(self, key: Sequence[T], backend: ArithmeticBackend[T]) -> List[T]:
        """Run the permutation on backend values; returns the t keystream values."""
        params = self.params
        if len(key) != params.key_size:
            raise ParameterError(f"expected {params.key_size} key values, got {len(key)}")
        t = params.t
        xl = list(key[:t])
        xr = list(key[t:])
        for i in range(params.rounds):
            layer = self.materials.layers[i]
            xl = self._affine(backend, self.materials.matrix_l(i), xl, layer.rc_l)
            xr = self._affine(backend, self.materials.matrix_r(i), xr, layer.rc_r)
            xl, xr = self._mix(backend, xl, xr)
            full = xl + xr
            full = self._feistel(backend, full) if i < params.rounds - 1 else self._cube(backend, full)
            xl, xr = full[:t], full[t:]
        final = self.materials.layers[params.rounds]
        xl = self._affine(backend, self.materials.matrix_l(params.rounds), xl, final.rc_l)
        xr = self._affine(backend, self.materials.matrix_r(params.rounds), xr, final.rc_r)
        xl, _ = self._mix(backend, xl, xr)
        return xl

    def decrypt(
        self, key: Sequence[T], ciphertext: Sequence[int], backend: ArithmeticBackend[T]
    ) -> List[T]:
        """Homomorphic HHE decryption of one block: ``m_j = c_j - KS_j``.

        The ciphertext elements are plain (public) integers; the key values
        live in the backend's domain. The result is t backend values
        encrypting/holding the message elements.
        """
        if len(ciphertext) > self.params.t:
            raise ParameterError(f"block holds at most t={self.params.t} elements")
        keystream = self.evaluate(key, backend)
        out: List[T] = []
        for c, ks in zip(ciphertext, keystream):
            out.append(backend.add_plain(backend.neg(ks), int(c)))
        return out
