"""Tests for the HHE ML-inference application."""

import functools

import numpy as np
import pytest

from repro.apps.ml_inference import (
    HheInferenceServer,
    LinearModel,
    decrypt_scores,
    run_inference,
    score_noise,
)
from repro.errors import NoiseBudgetExhausted, ParameterError
from repro.fhe import toy_parameters
from repro.hhe import HheClient, transcipher_parameters
from repro.obs import get_tracer
from repro.pasta import PASTA_MICRO, PASTA_TOY, PastaParams, homomorphic_op_counts


def scoring_parameters(params, n):
    """The shortest chain whose modeled headroom covers the transcipher and
    the score above the decryption floor."""
    return transcipher_parameters(params, n, after=functools.partial(score_noise, t=params.t))


@pytest.fixture(scope="module")
def client():
    return HheClient(PASTA_MICRO, scoring_parameters(PASTA_MICRO, 256), seed=b"ml-tests")


class TestLinearModel:
    def test_plain_evaluation(self):
        model = LinearModel(weights=[2, 3], bias=10)
        assert model.evaluate_plain([5, 7], 65537) == 2 * 5 + 3 * 7 + 10

    def test_modular_wrap(self):
        model = LinearModel(weights=[65536], bias=0)
        assert model.evaluate_plain([65536], 65537) == (65536 * 65536) % 65537

    def test_dimension_check(self):
        with pytest.raises(ParameterError):
            LinearModel(weights=[1, 2]).evaluate_plain([1], 65537)


class TestInference:
    def test_end_to_end_score(self, client):
        model = LinearModel(weights=[3, 25], bias=500)
        features = [42, 7]
        score = run_inference(client, model, features, nonce=1)
        assert score == model.evaluate_plain(features, PASTA_MICRO.p)

    def test_negative_like_weights(self, client):
        """Weights near p act as negative integers."""
        p = PASTA_MICRO.p
        model = LinearModel(weights=[p - 2, 1], bias=0)  # -2*x0 + x1
        score = run_inference(client, model, [10, 100], nonce=2)
        assert score == (-2 * 10 + 100) % p

    def test_fewer_features_than_t_are_zero_padded(self, client):
        model = LinearModel(weights=[9], bias=4)
        assert run_inference(client, model, [1000], nonce=4) == 9004

    def test_server_never_sees_plaintext(self, client):
        """The server input is the symmetric ciphertext, not the features."""
        model = LinearModel(weights=[1, 1], bias=0)
        features = [111, 222]
        sym_ct = client.cipher.encrypt_block(features, 3, 0)
        assert [int(c) for c in sym_ct] != features
        server = HheInferenceServer(client.server(), model)
        result = server.score_blocks([[int(c) for c in sym_ct]], 3, [0])
        assert decrypt_scores(client, result) == [(111 + 222) % PASTA_MICRO.p]
        # One weight-row multiply and log2 t rotate-and-sum steps per group.
        counts = homomorphic_op_counts(PASTA_MICRO)
        assert result.ops.plain_muls == counts["plain_muls"] + 1
        assert result.ops.rotations == counts["rotations"] + 1

    def test_nonce_reuse_refused(self, client):
        """A second feature vector under one keystream would leak the difference."""
        model = LinearModel(weights=[1, 0])
        assert run_inference(client, model, [5, 6], nonce=5) == 5
        with pytest.raises(ParameterError, match="already consumed"):
            run_inference(client, model, [7, 8], nonce=5)

    def test_block_size_bound(self, client):
        model = LinearModel(weights=[1] * (PASTA_MICRO.t + 1))
        with pytest.raises(ParameterError):
            run_inference(client, model, [1] * (PASTA_MICRO.t + 1))

    def test_model_dimension_mismatch(self, client):
        model = LinearModel(weights=[1, 2, 3])
        with pytest.raises(ParameterError, match="expects"):
            HheInferenceServer(client.server(), model)


class TestPackedScoring:
    def test_every_block_of_two_groups_scores(self, client):
        """Block k's score lands at row k // w, slot k % w of its group."""
        p = PASTA_MICRO.p
        model = LinearModel(weights=[3, p - 5], bias=77)
        server = HheInferenceServer(client.server(), model)
        capacity = server.server.packed_capacity
        features = np.random.default_rng(7).integers(0, p, size=(capacity + 3, 2)).tolist()
        blocks = [
            [int(c) for c in client.cipher.encrypt_block(f, 11, k)]
            for k, f in enumerate(features)
        ]
        result = server.score_blocks(blocks, 11, list(range(len(blocks))))
        assert len(result.ciphertexts) == 2
        assert decrypt_scores(client, result) == [model.evaluate_plain(f, p) for f in features]

    @pytest.mark.parametrize("t", [2, 4, 8, 16, 32])
    def test_score_steps_need_the_evaluator_keys(self, t):
        """Up to t = 16 the rotate-and-sum steps are evaluator key steps; not at 32."""
        params = PastaParams(name=f"t{t}", t=t, rounds=2, p=PASTA_MICRO.p, secure=False)
        client = HheClient(params, scoring_parameters(params, 128), seed=b"steps")
        model = LinearModel(weights=[1] * t)
        if t <= 16:
            assert HheInferenceServer(client.server(), model).model is model
        else:
            with pytest.raises(ParameterError, match="score rotation steps"):
                HheInferenceServer(client.server(), model)

    @pytest.mark.parametrize("log2_q", [None, 330])
    def test_score_past_the_modeled_budget_is_refused(self, log2_q):
        """Refused at construction, before anything is evaluated. The
        client's default chain (12 limbs, the transcipher's) leaves the score
        +6.0 bits of modeled headroom, under the 16-bit decryption floor; on
        11 limbs the transcipher itself is refused (+3.8 bits)."""
        bfv = None if log2_q is None else toy_parameters(PASTA_TOY.p, log2_q=log2_q)
        client = HheClient(PASTA_TOY, bfv, seed=b"ml-budget")
        assert client.scheme.level == (12 if log2_q is None else 11)
        headroom = "6.0" if log2_q is None else "3.8"
        with pytest.raises(NoiseBudgetExhausted, match=f"modeled headroom {headroom} bits"):
            HheInferenceServer(client.server(), LinearModel(weights=[3, 25, 7, 11]))
        assert get_tracer().spans_named("hhe.transcipher") == []

    def test_score_noise_is_the_tracked_estimate(self, client):
        """The closed form equals, bit for bit, what the score's ledger carries."""
        server = HheInferenceServer(client.server(), LinearModel(weights=[4, 9], bias=2))
        blocks = [
            [int(c) for c in client.cipher.encrypt_block([k, 2 * k], 21, k)] for k in range(3)
        ]
        transciphered = server.server.transcipher_blocks(blocks, 21, [0, 1, 2])
        (score,) = server.score_blocks(blocks, 21, [0, 1, 2]).ciphertexts
        model = client.scheme.noise_model
        assert score_noise(model, transciphered.ciphertexts[0].noise, 2) == score.noise
        assert score_noise(model, server.server.result_noise, 2).bits == pytest.approx(
            score.noise.bits
        )
        assert model.headroom_bits(score.noise) >= model.decryption_floor_bits
