"""BFV-backed arithmetic backend for the PASTA decryption circuit.

Plugging this into :class:`repro.pasta.decrypt_circuit.KeystreamCircuit`
turns the circuit into exactly the paper's "homomorphic HHE decryption":
state elements are BFV ciphertexts, public matrix/round-constant values are
plaintext scalars, S-boxes become ciphertext multiplications with
relinearization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.fhe.bfv import Bfv, Ciphertext, RelinKey
from repro.pasta.decrypt_circuit import ArithmeticBackend


@dataclass
class BfvOpCounts:
    """Homomorphic-operation counters (for the HHE cost benchmark)."""

    adds: int = 0
    plain_adds: int = 0
    plain_muls: int = 0
    squares: int = 0
    muls: int = 0
    relins: int = 0
    rotations: int = 0  #: Galois automorphism + key switch (packed evaluator only)
    decompositions: int = 0  #: Hoisted digit decompositions shared by rotations

    def merge(self, other: "BfvOpCounts") -> "BfvOpCounts":
        """Field-wise in-place accumulation of ``other``; returns ``self``.

        Iterates :func:`dataclasses.fields` rather than a hand-listed
        attribute tuple, so a counter field added later (the way
        ``rotations`` was) can never be silently dropped from multi-block
        totals again.
        """
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def total(self) -> int:
        """Sum of every counter field (fields-driven, like :meth:`merge`)."""
        return sum(getattr(self, f.name) for f in dataclasses.fields(self))


class BfvBackend(ArithmeticBackend[Ciphertext]):
    """Evaluate circuit operations on BFV ciphertexts."""

    def __init__(self, scheme: Bfv, rlk: RelinKey):
        self.scheme = scheme
        self.rlk = rlk
        self.counts = BfvOpCounts()

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counts.adds += 1
        return self.scheme.add(a, b)

    def add_plain(self, a: Ciphertext, constant: int) -> Ciphertext:
        self.counts.plain_adds += 1
        return self.scheme.add_plain(a, constant)

    def mul_plain(self, a: Ciphertext, constant: int) -> Ciphertext:
        self.counts.plain_muls += 1
        return self.scheme.mul_plain(a, constant)

    def square(self, a: Ciphertext) -> Ciphertext:
        self.counts.squares += 1
        self.counts.relins += 1
        return self.scheme.square(a, self.rlk)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counts.muls += 1
        self.counts.relins += 1
        return self.scheme.multiply(a, b, self.rlk)

    def neg(self, a: Ciphertext) -> Ciphertext:
        return self.scheme.neg(a)
