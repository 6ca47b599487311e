"""Bench: the HHE workflow of paper Figs. 1-2 (transciphering on BFV).

Times one homomorphic block decryption at reduced (micro) parameters and
prints the HHE cost table (depth, multiplication counts, ciphertext
expansion), including a fully executed reduced-size transcipher.
"""

import pytest

from repro.eval import EXPERIMENTS
from repro.fhe import toy_parameters
from repro.hhe import HheClient, HheServer
from repro.pasta import PASTA_MICRO


@pytest.fixture(scope="module")
def session():
    client = HheClient(PASTA_MICRO, toy_parameters(PASTA_MICRO.p, n=256, log2_q=190), seed=b"bench")
    server = HheServer.from_client(client)
    return client, server


def test_hhe_transcipher_block(benchmark, session, capsys):
    client, server = session
    message = [321, 54321]
    sym = client.encrypt(message, nonce=1)

    result = benchmark.pedantic(
        server.transcipher_block, args=(list(sym), 1, 0), rounds=2, iterations=1
    )
    assert client.decrypt_result(result.ciphertexts) == message
    with capsys.disabled():
        print()
        print(EXPERIMENTS["hhe_cost"](run_transcipher=False).render())


def test_bfv_multiply(benchmark, session):
    client, _ = session
    scheme = client.scheme
    ct = scheme.encrypt(client.pk, 7)
    out = benchmark(scheme.multiply, ct, ct, client.rlk)
    assert scheme.decrypt(client.sk, out) == 49


def test_hhe_batched_transcipher(benchmark):
    """SIMD amortization: three blocks in one circuit evaluation."""
    from repro.fhe import BatchEncoder, Bfv
    from repro.hhe import BatchedHheServer, decrypt_batched_result, encrypt_key_batched
    from repro.pasta import Pasta, random_key

    bfv = toy_parameters(PASTA_MICRO.p, n=256, log2_q=230)
    scheme = Bfv(bfv, seed=b"batched-bench")
    sk, pk, rlk = scheme.keygen()
    galois = scheme.rotation_keygen(
        sk, BatchedHheServer.required_rotation_steps(PASTA_MICRO, bfv.n)
    )
    encoder = BatchEncoder(bfv.n, PASTA_MICRO.p)
    key = random_key(PASTA_MICRO, b"batched-bench")
    cipher = Pasta(PASTA_MICRO, key)
    server = BatchedHheServer(
        PASTA_MICRO, scheme, rlk, encoder,
        encrypt_key_batched(scheme, pk, encoder, [int(k) for k in key]),
        galois_keys=galois,
    )
    blocks = [[1, 2], [3, 4], [5, 6]]
    cts = [[int(x) for x in cipher.encrypt_block(b, 9, c)] for c, b in enumerate(blocks)]

    result = benchmark.pedantic(
        server.transcipher_blocks, args=(cts, 9, [0, 1, 2]), rounds=2, iterations=1
    )
    assert decrypt_batched_result(scheme, sk, encoder, result) == blocks
