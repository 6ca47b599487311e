"""Keccak / SHAKE substrate: functional core plus hardware cycle models."""

from repro.keccak.hw_model import (
    OVERLAPPED_GAP_CYCLES,
    PERMUTATION_CYCLES,
    WORDS_PER_BATCH,
    KeccakCoreModel,
    NaiveKeccakCore,
    OverlappedKeccakCore,
    TimedWord,
    UnrolledNaiveKeccakCore,
)
from repro.keccak.permutation import KECCAK_ROUNDS, keccak_f1600, keccak_round
from repro.keccak.shake import (
    SHAKE128_RATE_BYTES,
    SHAKE256_RATE_BYTES,
    Shake,
    sha3_256,
    sha3_512,
    shake128,
    shake256,
)
from repro.keccak.sponge import KeccakSponge
from repro.keccak.vectorized import BatchedShake, batched_shake128

__all__ = [
    "KECCAK_ROUNDS",
    "OVERLAPPED_GAP_CYCLES",
    "PERMUTATION_CYCLES",
    "SHAKE128_RATE_BYTES",
    "SHAKE256_RATE_BYTES",
    "WORDS_PER_BATCH",
    "BatchedShake",
    "KeccakCoreModel",
    "KeccakSponge",
    "NaiveKeccakCore",
    "OverlappedKeccakCore",
    "Shake",
    "TimedWord",
    "UnrolledNaiveKeccakCore",
    "batched_shake128",
    "keccak_f1600",
    "keccak_round",
    "sha3_256",
    "sha3_512",
    "shake128",
    "shake256",
]
