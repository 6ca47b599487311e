"""End-to-end HHE protocol tests at reduced (micro) parameters."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fhe import toy_parameters
from repro.fhe.galois import slots_to_rows
from repro.hhe import BatchedHheServer, HheClient
from repro.pasta import PASTA_MICRO, homomorphic_op_counts

#: The streaming service's hhe-mode chain at N = 256 (8 limbs).
BFV_MICRO = toy_parameters(PASTA_MICRO.p, n=256, log2_q=230)


@pytest.fixture(scope="module")
def client():
    return HheClient(PASTA_MICRO, BFV_MICRO, seed=b"hhe-tests")


@pytest.fixture(scope="module")
def server(client):
    return client.server()


def _blocks(client, messages, nonce):
    return [
        [int(x) for x in client.cipher.encrypt_block(m, nonce=nonce, counter=k)]
        for k, m in enumerate(messages)
    ]


class TestClient:
    def test_symmetric_roundtrip(self, client):
        msg = [5, 65000, 1, 0, 17]
        ct = client.encrypt(msg, nonce=8)
        assert [int(x) for x in client.cipher.decrypt(ct, 8)] == msg

    def test_encrypted_key_count(self, client):
        assert len(client.encrypted_key()) == PASTA_MICRO.key_size

    def test_encrypted_key_decrypts_to_key(self, client):
        """Upload d holds the key rotated left by d elements at every block slot."""
        width = PASTA_MICRO.key_size
        n = BFV_MICRO.n
        w = (n // 2) // width
        key = [int(k) for k in client.key]
        for d, ct in enumerate(client.encrypted_key()):
            slots = np.asarray([client.encoder.decode(client.scheme.decrypt_poly(client.sk, ct))])
            rows = slots_to_rows(n, slots)[0].reshape(2, width, w)  # [row, j, k % w]
            expected = np.asarray([key[(j + d) % width] for j in range(width)])
            assert (rows == expected[None, :, None]).all()

    def test_plain_modulus_must_match(self):
        with pytest.raises(ParameterError):
            HheClient(PASTA_MICRO, toy_parameters(12289, n=256, log2_q=230))


class TestTranscipher:
    def test_single_block(self, client, server):
        msg = [123, 45678]
        result = server.transcipher_blocks(_blocks(client, [msg], 1), nonce=1, counters=[0])
        assert client.decrypt_result(result) == [msg]

    def test_multi_block_stream(self, client, server):
        msg = [1, 2, 3, 4, 5, 6]  # three whole blocks at t=2
        sym = [int(c) for c in client.encrypt(msg, nonce=2)]
        blocks = [sym[i : i + PASTA_MICRO.t] for i in range(0, len(sym), PASTA_MICRO.t)]
        result = server.transcipher_blocks(blocks, nonce=2, counters=[0, 1, 2])
        assert client.decrypt_result(result) == [[1, 2], [3, 4], [5, 6]]

    def test_noise_budget_positive(self, client, server):
        result = server.transcipher_blocks(_blocks(client, [[9, 10]], 3), nonce=3, counters=[0])
        for ct in result.ciphertexts:
            assert client.noise_budget_bits(ct) > 5

    def test_op_counts_match_circuit_cost(self, client, server):
        result = server.transcipher_blocks(_blocks(client, [[7, 8]], 4), nonce=4, counters=[0])
        expected = homomorphic_op_counts(PASTA_MICRO)
        assert {k: getattr(result.ops, k) for k in expected} == expected

    def test_wrong_nonce_garbles(self, client, server):
        msg = [11, 22]
        result = server.transcipher_blocks(_blocks(client, [msg], 5), nonce=6, counters=[0])
        assert client.decrypt_result(result) != [msg]


class TestServerConstruction:
    def test_wrong_key_count_rejected(self, client):
        with pytest.raises(ParameterError, match="encrypted key elements"):
            BatchedHheServer(
                PASTA_MICRO,
                client.scheme,
                client.rlk,
                client.encoder,
                client.encrypted_key()[:-1],
                galois_keys=client.galois_keys,
            )


class TestKeySeparation:
    """Regression: one master seed must yield *independent* FHE and PASTA secrets."""

    def test_derivations_are_domain_separated(self):
        from repro.hhe.protocol import FHE_SEED_DOMAIN, PASTA_SEED_DOMAIN
        from repro.pasta import random_key

        seed = b"one-master-seed"
        client = HheClient(PASTA_MICRO, BFV_MICRO, seed=seed)
        # The PASTA key comes from its own tagged stream, not the raw seed
        # (which, pre-fix, also fed BFV keygen).
        assert [int(k) for k in client.key] == [
            int(k) for k in random_key(PASTA_MICRO, PASTA_SEED_DOMAIN + seed)
        ]
        assert [int(k) for k in client.key] != [
            int(k) for k in random_key(PASTA_MICRO, seed)
        ]
        assert FHE_SEED_DOMAIN != PASTA_SEED_DOMAIN

    def test_same_seed_clients_are_deterministic(self):
        a = HheClient(PASTA_MICRO, BFV_MICRO, seed=b"det")
        b = HheClient(PASTA_MICRO, BFV_MICRO, seed=b"det")
        assert [int(k) for k in a.key] == [int(k) for k in b.key]

    def test_bfv_params_default_is_derived(self):
        client = HheClient(PASTA_MICRO, seed=b"defaults")
        assert client.bfv_params.p == PASTA_MICRO.p
