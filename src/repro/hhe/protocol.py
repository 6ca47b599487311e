"""The HHE protocol of paper Fig. 1, end to end.

Roles:

* :class:`HheClient` — the edge device. Generates the FHE keys and the
  PASTA key, uploads the key **once** under FHE (the only expensive
  client-side FHE operation), then encrypts data cheaply with PASTA.
* :class:`repro.hhe.batched.BatchedHheServer` — the cloud. Holds only
  public material (relinearization and Galois keys, the encrypted PASTA
  key) and *transciphers*: homomorphically evaluates PASTA decryption,
  turning symmetric ciphertexts into FHE ciphertexts of the same
  messages, ready for homomorphic processing. :meth:`HheClient.server`
  builds one from the client's public material.
* The client finally decrypts FHE results with its secret key.

Run with :data:`repro.pasta.params.PASTA_MICRO`- or ``PASTA_TOY``-sized
parameters; the structure is identical to the full-size scheme, only t
and the ring are reduced so that BFV finishes in under a second (see
DESIGN.md Sec. 2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.fhe.batching import BatchEncoder
from repro.fhe.bfv import Bfv, BfvParams, Ciphertext
from repro.hhe.batched import (
    BatchedHheServer,
    BatchedTranscipherResult,
    decrypt_batched_result,
    encrypt_key_batched,
    transcipher_parameters,
)
from repro.pasta.cipher import Pasta, random_key
from repro.pasta.params import PastaParams

#: Domain-separation tags for the client's two independent secrets. The FHE
#: secret key and the PASTA key must never derive from the same entropy
#: stream: leaking either one must not compromise the other.
FHE_SEED_DOMAIN = b"hhe-v1-fhe-keygen|"
PASTA_SEED_DOMAIN = b"hhe-v1-pasta-key|"


class HheClient:
    """Client side: symmetric encryption + the one-time packed key upload.

    Key setup makes the FHE secret, public and relinearization keys, the
    Galois keys for :meth:`BatchedHheServer.required_rotation_steps` and
    the slot encoder; :meth:`encrypted_key` is the pre-rotated packed key
    (:func:`encrypt_key_batched`). Without ``bfv_params`` the client takes
    the shortest chain the noise ledger admits for ``pasta_params`` at
    N = 1024 (:func:`transcipher_parameters`); pass
    ``transcipher_parameters(..., after=...)`` to size the chain for what
    the server evaluates on the result as well.
    """

    def __init__(
        self,
        pasta_params: PastaParams,
        bfv_params: Optional[BfvParams] = None,
        seed: bytes = b"hhe-demo",
    ):
        self.pasta_params = pasta_params
        self.bfv_params = bfv_params or transcipher_parameters(pasta_params, 1024)
        if self.bfv_params.p != pasta_params.p:
            raise ParameterError("BFV plaintext modulus must equal the PASTA prime")
        n = self.bfv_params.n
        # One master seed feeds two domain-separated derivations, so the
        # FHE and PASTA secrets are distinct streams even for equal seeds.
        self.scheme = Bfv(self.bfv_params, seed=FHE_SEED_DOMAIN + seed)
        self.sk, self.pk, self.rlk = self.scheme.keygen()
        self.galois_keys = self.scheme.rotation_keygen(
            self.sk, BatchedHheServer.required_rotation_steps(pasta_params, n)
        )
        self.encoder = BatchEncoder(n, pasta_params.p)
        self.key = random_key(pasta_params, PASTA_SEED_DOMAIN + seed)
        self.cipher = Pasta(pasta_params, self.key)

    def encrypted_key(self) -> List[Ciphertext]:
        """The packed key, pre-rotated 2t ways (sent to the server once)."""
        return encrypt_key_batched(
            self.scheme, self.pk, self.encoder, [int(k) for k in self.key]
        )

    def server(self) -> BatchedHheServer:
        """A server holding this client's public material only."""
        return BatchedHheServer(
            self.pasta_params,
            self.scheme,
            self.rlk,
            self.encoder,
            self.encrypted_key(),
            galois_keys=self.galois_keys,
        )

    def encrypt(self, message: Sequence[int], nonce: int) -> np.ndarray:
        """Cheap symmetric encryption of a message stream."""
        return self.cipher.encrypt(message, nonce)

    def decrypt_result(self, result: BatchedTranscipherResult) -> List[List[int]]:
        """Decrypt the server's packed result into one message per block."""
        return decrypt_batched_result(self.scheme, self.sk, self.encoder, result)

    def noise_budget_bits(self, ct: Ciphertext) -> float:
        return self.scheme.noise_budget_bits(self.sk, ct)
