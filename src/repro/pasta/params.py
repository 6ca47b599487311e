"""PASTA parameter sets (paper Sec. II-B and Table I).

Two published variants:

* **PASTA-3**: state 2t = 256 coefficients (t = 128), 3 rounds;
* **PASTA-4**: state 2t = 64 coefficients (t = 32), 4 rounds;

both evaluated over Mersenne-structured primes of 17/33/54 bits. A *toy*
variant (t = 4, 3 rounds) is provided for the HHE end-to-end demonstration,
where the packed server carries its whole state in one BFV ciphertext per
packed group — it exercises the identical circuit structure at a size BFV
at toy ring sizes evaluates quickly. The toy variant offers no security
and is clearly marked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.ff.params import P17, P33, P54
from repro.ff.prime import PrimeField
from repro.ff.sampling import RejectionSampler

#: Random vectors consumed per affine layer: two matrix first-rows + two
#: round-constant vectors (paper Fig. 3 / Sec. IV-B).
VECTORS_PER_LAYER = 4


@dataclass(frozen=True)
class PastaParams:
    """Immutable description of one PASTA instance."""

    name: str
    t: int  #: block size = keystream elements per block = half the state
    rounds: int
    p: int  #: plaintext prime modulus
    secure: bool = True  #: False for reduced test-only instances

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ParameterError(f"t must be >= 2, got {self.t}")
        if self.rounds < 1:
            raise ParameterError(f"rounds must be >= 1, got {self.rounds}")
        object.__setattr__(self, "_field", PrimeField(self.p))
        object.__setattr__(self, "_sampler", RejectionSampler(self.p))

    # -- derived quantities --------------------------------------------------

    @property
    def field(self) -> PrimeField:
        return self._field  # type: ignore[attr-defined]

    @property
    def sampler(self) -> RejectionSampler:
        return self._sampler  # type: ignore[attr-defined]

    @property
    def state_size(self) -> int:
        """Total state coefficients 2t."""
        return 2 * self.t

    @property
    def key_size(self) -> int:
        """Secret key coefficients (the initial state)."""
        return 2 * self.t

    @property
    def affine_layers(self) -> int:
        """Affine layers per permutation = rounds + 1 (final layer included)."""
        return self.rounds + 1

    @property
    def coefficients_per_block(self) -> int:
        """Pseudo-random field elements the XOF must deliver per block.

        2048 for PASTA-3 and 640 for PASTA-4, as stated in Sec. III-A.
        """
        return self.affine_layers * VECTORS_PER_LAYER * self.t

    @property
    def modulus_bits(self) -> int:
        return self.p.bit_length()

    @property
    def keystream_bytes_per_block(self) -> int:
        """Serialized ciphertext bytes per full block (t packed elements)."""
        return (self.t * self.modulus_bits + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PastaParams({self.name}: t={self.t}, rounds={self.rounds}, "
            f"p={self.p} [{self.modulus_bits}-bit])"
        )


#: PASTA-3 over the 17-bit prime (the paper's default comparison point).
PASTA_3 = PastaParams(name="pasta3-17", t=128, rounds=3, p=P17)

#: PASTA-4 over the 17-bit prime.
PASTA_4 = PastaParams(name="pasta4-17", t=32, rounds=4, p=P17)

#: PASTA-4 at the wider datapaths of Table I.
PASTA_4_33 = PastaParams(name="pasta4-33", t=32, rounds=4, p=P33)
PASTA_4_54 = PastaParams(name="pasta4-54", t=32, rounds=4, p=P54)

#: Reduced instance for the HHE end-to-end demo and FHE tests. NOT SECURE.
PASTA_TOY = PastaParams(name="pasta-toy", t=4, rounds=3, p=P17, secure=False)

#: Minimal instance for fast unit tests of the homomorphic path. NOT SECURE.
PASTA_MICRO = PastaParams(name="pasta-micro", t=2, rounds=2, p=P17, secure=False)

ALL_PUBLISHED = (PASTA_3, PASTA_4, PASTA_4_33, PASTA_4_54)
