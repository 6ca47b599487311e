"""Hybrid Homomorphic Encryption protocol (client / server / transciphering)."""

from repro.hhe.batched import (
    BatchedHheServer,
    BatchedTranscipherResult,
    BfvOpCounts,
    decrypt_batched_result,
    encrypt_key_batched,
    transcipher_parameters,
)
from repro.hhe.protocol import HheClient

__all__ = [
    "BatchedHheServer",
    "BatchedTranscipherResult",
    "BfvOpCounts",
    "HheClient",
    "decrypt_batched_result",
    "encrypt_key_batched",
    "transcipher_parameters",
]
