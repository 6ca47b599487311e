"""Privacy-preserving ML inference over HHE (the paper's motivating use).

Sec. IV-C: *"For ML inference applications encrypting low amounts of data
(e.g., 32 coefficients), we deliver much better performance."* This module
runs that scenario end to end:

1. the client packs a feature vector into one PASTA block and encrypts it
   symmetrically (cheap, tiny ciphertext);
2. the server transciphers the blocks with the packed evaluator
   (:class:`repro.hhe.batched.BatchedHheServer`) and evaluates a *linear
   model* homomorphically on every block of a packed group at once — a
   dot product with plaintext weights plus a bias — never seeing features
   or key;
3. the client decrypts the encrypted scores.

Scores are computed over Z_p (exact integer arithmetic); fixed-point
scaling of real-valued models is the caller's concern, as in integer-FHE
practice.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.fhe.galois import rows_to_slots
from repro.hhe.batched import BatchedHheServer, BatchedTranscipherResult, require_headroom
from repro.hhe.protocol import HheClient
from repro.obs.noise import NoiseEstimate, NoiseModel


@dataclass(frozen=True)
class LinearModel:
    """A public linear model: score = <weights, x> + bias (mod p)."""

    weights: Sequence[int]
    bias: int = 0

    def evaluate_plain(self, features: Sequence[int], p: int) -> int:
        if len(features) != len(self.weights):
            raise ParameterError(
                f"feature count {len(features)} != weight count {len(self.weights)}"
            )
        acc = self.bias
        for w, x in zip(self.weights, features):
            acc += w * x
        return acc % p


def score_noise(
    model: NoiseModel, estimate: Optional[NoiseEstimate], t: int
) -> Optional[NoiseEstimate]:
    """The ledger's estimate of a score, from its transcipher result's.

    :meth:`HheInferenceServer.score_blocks`'s steps in closed form: the
    weight-row multiply, log2 t rotate-and-add steps and the bias add. With
    ``t`` bound (``functools.partial(score_noise, t=t)``) it is the
    ``after`` of :func:`~repro.hhe.batched.transcipher_parameters`.
    """
    acc = model.mul_plain_poly(estimate)
    for _ in range((t - 1).bit_length()):
        acc = model.add(acc, model.rotate(acc))
    return model.add_plain(acc)


class HheInferenceServer:
    """Server side: transcipher feature blocks, then score a packed group at once.

    The packed result holds feature j of block k at slot ``j * w + k % w``
    of hypercube row ``k // w``. One plaintext multiply by a weight row
    (weight j at every slot of feature j, zero in the R half and past the
    model's features) and a Halevi-Shoup rotate-and-sum over log2 t steps
    of ``w * 2^i`` slots leave each block's dot product at its feature-0
    slot; the bias is one scalar plaintext add. Those steps are a subset of
    the packed evaluator's key steps for t <= 16; the constructor refuses a
    server whose key steps miss one, and (with
    :class:`~repro.errors.NoiseBudgetExhausted`) a server whose planned
    score, :func:`score_noise` of its planned result, has less modeled
    headroom than the decryption floor.
    """

    def __init__(self, server: BatchedHheServer, model: LinearModel):
        params = server.params
        t = params.t
        if len(model.weights) > t:
            raise ParameterError(
                f"the model expects {len(model.weights)} features but a block holds t={t}"
            )
        n = server.scheme.params.n
        w = server.packed_capacity // 2
        steps = [w << i for i in range((t - 1).bit_length())]
        required = BatchedHheServer.required_rotation_steps(params, n)
        missing = sorted(set(steps) - set(required))
        if missing:
            raise ParameterError(
                f"score rotation steps {missing} are not among the packed "
                f"evaluator's key steps {required}"
            )
        weights = np.zeros((2, 2 * t, w), dtype=np.int64)
        weights[:, : len(model.weights)] = (
            np.asarray([int(v) % params.p for v in model.weights], dtype=np.int64)[:, None]
        )
        encoded = server.encoder.encode_rows(rows_to_slots(n, weights.reshape(1, 2, -1)))
        noise = server.scheme.noise_model
        require_headroom(noise, score_noise(noise, server.result_noise, t))
        self.server = server
        self.model = model
        self._steps = steps
        self._weights = server.scheme.prepare_mul_plain([int(c) for c in encoded[0]])

    def score_blocks(
        self, ciphertext_blocks: Sequence[Sequence[int]], nonce: int, counters: Sequence[int]
    ) -> BatchedTranscipherResult:
        """Transcipher full t-element blocks and score every one of them.

        The result is the transcipher result with each group's ciphertext
        replaced by its scores (block k's score in its feature-0 slot, read
        by :func:`decrypt_scores`) and ``ops`` extended by the score steps.
        Scores whose modeled headroom still ends below the decryption floor
        are refused with :class:`~repro.errors.NoiseBudgetExhausted`, as the
        transcipher's result is.
        """
        result = self.server.transcipher_blocks(ciphertext_blocks, nonce, counters)
        scheme, ops = self.server.scheme, result.ops
        scores = []
        for ct in result.ciphertexts:
            acc = scheme.mul_plain_poly(ct, self._weights)
            for step in self._steps:
                acc = scheme.add(acc, scheme.rotate_slots(acc, step, self.server.galois_keys))
            scores.append(scheme.add_plain(acc, int(self.model.bias)))
            ops.plain_muls += 1
            ops.rotations += len(self._steps)
            ops.adds += len(self._steps)
            ops.plain_adds += 1
        model = scheme.noise_model
        require_headroom(model, model.merge(ct.noise for ct in scores))
        return dataclasses.replace(result, ciphertexts=scores)


def decrypt_scores(client: HheClient, result: BatchedTranscipherResult) -> List[int]:
    """Client side: block k's score, from row ``k // w``, slot ``k % w``."""
    return [block[0] for block in client.decrypt_result(result)]


def run_inference(
    client: HheClient,
    model: LinearModel,
    features: Sequence[int],
    nonce: int = 0,
) -> int:
    """Full round trip: encrypt -> transcipher+score -> decrypt. Returns the
    score and verifies it against the plaintext evaluation."""
    params = client.pasta_params
    if len(features) > params.t:
        raise ParameterError(f"at most t={params.t} features per block")
    expected = model.evaluate_plain(features, params.p)
    # client.encrypt refuses a nonce this client already used: a second
    # feature vector under the same keystream would leak their difference.
    sym_ct = client.encrypt(list(features) + [0] * (params.t - len(features)), nonce)
    server = HheInferenceServer(client.server(), model)
    (score,) = decrypt_scores(client, server.score_blocks([[int(c) for c in sym_ct]], nonce, [0]))
    if score != expected:
        raise ParameterError(
            f"homomorphic score {score} != plaintext score {expected} "
            "(noise budget exhausted?)"
        )
    return score
