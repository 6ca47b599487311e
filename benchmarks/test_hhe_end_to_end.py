"""Bench: the HHE workflow of paper Figs. 1-2 (transciphering on BFV).

Times one packed transcipher of three blocks at reduced (micro)
parameters and prints the HHE cost table (depth, multiplication and
rotation counts, ciphertext expansion).
"""

import pytest

from repro.eval import EXPERIMENTS
from repro.hhe import HheClient, transcipher_parameters
from repro.pasta import PASTA_MICRO


@pytest.fixture(scope="module")
def client():
    return HheClient(PASTA_MICRO, transcipher_parameters(PASTA_MICRO, 256), seed=b"bench")


def test_bfv_multiply(benchmark, client):
    scheme = client.scheme
    ct = scheme.encrypt(client.pk, 7)
    out = benchmark(scheme.multiply, ct, ct, client.rlk)
    assert scheme.decrypt(client.sk, out) == 49


def test_hhe_batched_transcipher(benchmark, client, capsys):
    """SIMD amortization: three blocks in one circuit evaluation."""
    server = client.server()
    blocks = [[1, 2], [3, 4], [5, 6]]
    cts = [[int(x) for x in client.cipher.encrypt_block(b, 9, c)] for c, b in enumerate(blocks)]

    result = benchmark.pedantic(
        server.transcipher_blocks, args=(cts, 9, [0, 1, 2]), rounds=2, iterations=1
    )
    assert client.decrypt_result(result) == blocks
    with capsys.disabled():
        print()
        print(EXPERIMENTS["hhe_cost"](run_transcipher=False).render())
