"""Known-answer pins for the seeded host streams and batched client frames.

The key digests below were captured from the scalar-sponge implementation
of :class:`repro.fhe.rng.PolyRng` and :func:`repro.pasta.random_key`,
which read ``repro.keccak.shake.shake256`` one permutation at a time. They
pin that the sized ``hashlib`` digests those streams read now leave every
key and ciphertext unchanged, on both polynomial engines.

The frame digests pin whole batched ``Pasta.encrypt`` ciphertexts: a
300-block PASTA-4 frame (the benchmark's client frame), a few PASTA-3
blocks (t = 128) and a few PASTA-4 blocks over the 33-bit prime (the
big-int path). They were captured before the client keystream's 32-bit
sampling, float64 recurrence and constant-divisor reductions, which must
leave every ciphertext bit unchanged.
"""

import hashlib

import pytest

from repro.fhe import Bfv, toy_parameters
from repro.pasta import PASTA_3, PASTA_4, PASTA_4_33, PASTA_MICRO, Pasta, random_key

#: Small RNS scheme: q ~ 240 bits (four 62-bit relinearization digits), N = 32.
PARAMS = toy_parameters(65537, n=32, log2_q=240)
STEPS = (1, 3)

FHE_PINS = {
    "sk": "f2578fa98601597402ac3f60d9c70eb5c2155c4a948b9c30c6b7ea03b6062aa9",
    "pk": "b31e50f9a3b35d3290982fb713b97b83208ad58cb21261b03a7f24f3d585d521",
    "rlk": "e25528481dbc2275ebf61445c2f798859c093d9c356a71effe5d0329503ef591",
    "galois": "89c17c671993d24b8b0181450eb4224eafc2a6605040b84718e0127d8cef936e",
    "ct": "80cb5163586e1fef35253f4ce20eb9d9eb0ff93c4ef1338e1220c13214178597",
}

KEY_PINS = {
    ("pasta3-17", b"pasta-key"):
        "4fbe86d64eb5b7682ee174a7f96a0787d4438da3d40c2c7f33a53943b9682fd3",
    ("pasta3-17", bytes(range(200))):
        "746614b9ea2fcd7fc5f8a9b2af6435241e36485a64bf67a28edb1e1be48dd390",
    ("pasta4-17", b"pasta-key"):
        "d1f5f9d25ee79489b9e7c11bf3c7556d0154f1c205e29ad27961e094742ef40b",
    ("pasta4-17", bytes(range(200))):
        "74bd200fc481b1006f2e1c75a72bc6153d6dcc8028042bc29f6c04dfd8ee07ea",
    ("pasta-micro", b"pasta-key"):
        "5e09a352076b7983feb0c8538fdda7df13da80b64d8ea8d85294d3e31b875c5f",
    ("pasta-micro", bytes(range(200))):
        "d5a8da13903bdd427ed7828a8235bf8a7edbe0b90da4ed7ef72bd87fe65646c1",
}

#: (parameter set, blocks) -> digest of the frame's ciphertext.
FRAME_PINS = {
    ("pasta4-17", 300): "af8eded776adfce800a192fe6884c7e276684d578a6825206454e397603d2fb5",
    ("pasta3-17", 3): "edac8dd2388c86e1254b29c3864671c97dd7ee0c6f0845872895cd4e978535a4",
    ("pasta4-33", 3): "619981cfb85208a3599947ef22382b2b39eb4c5193a6193e4e4bc0f67e982c71",
}
FRAME_NONCE = 0x5EED


def sha256_of(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def fhe_digests(engine: str) -> dict:
    """Digests of sk, pk, rlk, two Galois keys and one ciphertext."""
    scheme = Bfv(PARAMS, seed=b"known-answer", engine=engine)
    ints = scheme.engine.to_ints
    sk, pk, rlk = scheme.keygen()
    galois = scheme.rotation_keygen(sk, STEPS)
    ct = scheme.encrypt_poly(pk, [(7 * i + 1) % PARAMS.p for i in range(PARAMS.n)])
    return {
        "sk": sha256_of(ints(sk.s)),
        "pk": sha256_of([ints(pk.b), ints(pk.a)]),
        "rlk": sha256_of([[ints(b), ints(a)] for b, a in rlk.parts]),
        "galois": sha256_of(
            [[g, [[ints(b), ints(a)] for b, a in galois.keys[g]]] for g in sorted(galois.keys)]
        ),
        "ct": sha256_of([ints(part) for part in ct.parts]),
    }


@pytest.mark.parametrize("engine", ["rns", "bigint"])
def test_fhe_key_setup_known_answers(engine):
    assert fhe_digests(engine) == FHE_PINS


@pytest.mark.parametrize("params", [PASTA_3, PASTA_4, PASTA_MICRO], ids=lambda p: p.name)
@pytest.mark.parametrize("seed", [b"pasta-key", bytes(range(200))], ids=["default", "200-byte"])
def test_random_key_known_answers(params, seed):
    key = random_key(params, seed)
    assert len(key) == params.key_size
    assert sha256_of([int(k) for k in key]) == KEY_PINS[(params.name, seed)]


@pytest.mark.parametrize(
    "params, blocks",
    [(PASTA_4, 300), (PASTA_3, 3), (PASTA_4_33, 3)],
    ids=["pasta4-17-300", "pasta3-17-3", "pasta4-33-3"],
)
def test_client_frame_known_answers(params, blocks):
    """``Pasta.encrypt`` of ``blocks`` full blocks, element i = (7 i + 1) mod p."""
    message = [(7 * i + 1) % params.p for i in range(blocks * params.t)]
    ciphertext = Pasta(params, random_key(params)).encrypt(message, FRAME_NONCE)
    assert sha256_of([int(c) for c in ciphertext]) == FRAME_PINS[(params.name, blocks)]
