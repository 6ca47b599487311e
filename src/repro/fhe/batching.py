"""BFV slot batching (SIMD) over the plaintext ring Z_p[x]/(x^N + 1).

PASTA's plaintext prime 65537 satisfies ``p = 1 (mod 2N)`` for every ring
degree this library uses, so ``x^N + 1`` splits completely mod p and the
plaintext ring is isomorphic to N independent Z_p *slots*. Encoding is the
inverse negacyclic NTT mod p; decoding the forward transform. Ciphertext
addition/multiplication then act slot-wise — the mechanism the HHE server
uses to transcipher many PASTA blocks with one circuit evaluation
(:mod:`repro.hhe.batched`).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.fhe.ntt_vec import get_vec_ntt


class BatchEncoder:
    """Encode/decode Z_p slot vectors into plaintext polynomials.

    Transforms run on the vectorized NTT (a one-prime residue "chain"),
    which is bit-identical to the scalar :class:`NegacyclicNtt` but turns
    each encode/decode from N log N Python butterflies into log N numpy
    passes — the per-round matrix/constant encodes of the batched HHE
    server are on this path.
    """

    def __init__(self, n: int, p: int):
        # get_vec_ntt validates the p = 1 (mod 2N) requirement.
        self.vec = get_vec_ntt(n, (p,))
        self.n = n
        self.p = p

    def encode(self, values: Sequence[int]) -> List[int]:
        """Slot vector (length <= N, zero-padded) -> plaintext polynomial."""
        if len(values) > self.n:
            raise ParameterError(f"at most {self.n} slots, got {len(values)}")
        padded = [int(v) % self.p for v in values] + [0] * (self.n - len(values))
        return [int(c) for c in self.vec.inverse([padded])[0]]

    def decode(self, poly: Sequence[int]) -> List[int]:
        """Plaintext polynomial -> full N-slot vector."""
        if len(poly) != self.n:
            raise ParameterError(f"expected {self.n} coefficients, got {len(poly)}")
        return [int(c) for c in self.vec.forward([[int(c) % self.p for c in poly]])[0]]

    def encode_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batch encode: ``(R, k <= N)`` slot rows -> ``(R, N)`` polynomial rows.

        One batched inverse NTT replaces R scalar :meth:`encode` calls — the
        path the prepared-matrix tensors of the batched HHE server take
        (R = t^2 slot vectors per affine layer side).
        """
        values = np.asarray(rows)
        if values.ndim != 2:
            raise ParameterError(f"encode_rows expects a 2-D slot matrix, got {values.shape}")
        if values.shape[1] > self.n:
            raise ParameterError(f"at most {self.n} slots, got {values.shape[1]}")
        padded = np.zeros((values.shape[0], self.n), dtype=self.vec.dtype)
        padded[:, : values.shape[1]] = values % self.p
        return self.vec.inverse(padded[:, None, :])[:, 0, :]

    def constant(self, value: int) -> List[int]:
        """Encode the same value into every slot (= the constant polynomial).

        A constant polynomial evaluates identically at every root, so no
        transform is needed — this is why scalar ``mul_plain`` composes
        with batched ciphertexts.
        """
        poly = [0] * self.n
        poly[0] = int(value) % self.p
        return poly
