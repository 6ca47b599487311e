"""The two benchmark workloads: seeded inputs, one timed call per frame, checks.

Each workload splits a frame into calls the harness can keep apart, so
set-up, input generation and checking stay out of the timed (and traced)
region:

* ``build(i)`` is the set-up a user pays (keys, engines, servers). The
  harness times it before each of the first ``setups`` frames, or before
  every frame when ``setups`` is None. The run reports the builds' median,
  so one build slowed by the host does not move it.
* ``make_input(i)`` builds frame ``i``'s inputs, with a fresh nonce. Each
  input records the system it runs on, so checks stay exact across rebuilds.
* ``execute(inp)`` is the timed call into the program's public API; every
  call encrypts or transciphers ``blocks`` PASTA blocks.
* ``check(done, stats)`` runs after the timed loop. It returns how many
  frames failed: a frame fails when its output is not bit-exact with an
  independent reference or when an invariant does not hold (fresh nonces,
  noise budget, modeled <= measured headroom).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.apps.packing import pixels_per_element
from repro.apps.video import QQVGA, NonceSequence, synthetic_frames_batch
from repro.fhe import BatchEncoder, Bfv, toy_parameters
from repro.hhe import BatchedHheServer, decrypt_batched_result, encrypt_key_batched
from repro.pasta import PASTA_4, PASTA_MICRO, Pasta, PastaParams, random_key
from repro.pasta.batch import KeystreamEngine
from repro.service.pipeline import pack_frames

#: PASTA-4's state size (t = 32, BSGS split (8, 4)) with rounds and modulus
#: small enough for a sub-second frame. NOT SECURE; benchmark-only.
PASTA_BSGS = PastaParams(name="pasta-bsgs", t=32, rounds=2, p=PASTA_MICRO.p, secure=False)
HHE_N = 512
HHE_LOG2_Q = 240
HHE_PRIME_BITS = 26
HHE_BLOCKS = 8  #: the packed capacity, (N/2) / t

#: Blocks of each client frame checked against the reference keystream: the
#: first, the last (partial when t does not divide the frame) and a seeded
#: sample of the rest. Checking all 300 would cost as much as the encryption.
CHECKED_BLOCKS = 16


def _nonce_base(seed: int) -> int:
    """Disjoint nonce ranges per seed, so no two runs share a (nonce, counter)."""
    return (seed % 2**31) << 32


def _blocks(elements: int, t: int) -> int:
    return -(-elements // t)


def _reused_nonces(nonces: Sequence[int]) -> int:
    return len(nonces) - len(set(nonces))


class ClientEncrypt:
    """The edge camera: ``Pasta(PASTA_4).encrypt`` of one QQVGA frame."""

    name = "client_encrypt"
    params = PASTA_4
    blocks = _blocks(QQVGA.pixels // pixels_per_element(PASTA_4.p), PASTA_4.t)
    setups = None  #: a build takes milliseconds, so one before every frame
    warmup = 3

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.nonces = NonceSequence(start=_nonce_base(seed))
        self.rng = np.random.default_rng(seed)
        if quick:
            self.warmup = 1

    def build(self, index: int) -> None:
        key = random_key(self.params, b"bench-client|%d|%d" % (self.seed, index))
        self.cipher = Pasta(self.params, key)

    def make_input(self, index: int):
        pixels = synthetic_frames_batch(QQVGA, [self.seed * 100_003 + index])
        return self.cipher, self.nonces.next(), pack_frames(pixels, self.params.p)[0]

    def execute(self, inp):
        cipher, nonce, elements = inp
        return cipher.encrypt(elements, nonce)

    def check(self, done: Sequence[Tuple[object, object]], stats: Dict[str, float]) -> int:
        """:data:`CHECKED_BLOCKS` of every ciphertext against an independent
        cache-less keystream; the whole ciphertext's length and range."""
        params, t = self.params, self.params.t
        reference = KeystreamEngine(params, cache_size=0)
        failed = _reused_nonces([inp[1] for inp, _ in done])
        last = self.blocks - 1
        for (cipher, nonce, elements), ciphertext in done:
            ciphertext = np.asarray(ciphertext)
            sample = self.rng.choice(np.arange(1, last), CHECKED_BLOCKS - 2, replace=False)
            counters = [0, last, *sorted(sample.tolist())]
            keystream = reference.keystream_pairs(cipher.key, [(nonce, c) for c in counters])
            ok = (
                ciphertext.shape == (len(elements),)
                and _blocks(len(elements), t) == self.blocks
                and bool(np.all((0 <= ciphertext) & (ciphertext < params.p)))
            )
            for c, row in zip(counters, keystream):
                block = slice(c * t, (c + 1) * t)
                m = elements[block]
                ok = ok and np.array_equal(ciphertext[block], (m + row[: len(m)]) % params.p)
            failed += not ok
        return failed


class HheFrame:
    """The HHE server: packed-BSGS ``transcipher_blocks`` on a fresh nonce."""

    name = "hhe_frame"
    params = PASTA_BSGS
    blocks = HHE_BLOCKS
    setups = 3
    warmup = 3

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.nonces = NonceSequence(start=_nonce_base(seed))
        self.rng = np.random.default_rng(seed)
        if quick:
            self.setups, self.warmup = 1, 1

    def build(self, index: int) -> None:
        params = self.params
        tag = b"bench-hhe|%d|%d" % (self.seed, index)
        bfv = toy_parameters(params.p, n=HHE_N, log2_q=HHE_LOG2_Q, prime_bits=HHE_PRIME_BITS)
        scheme = Bfv(bfv, seed=tag)
        sk, pk, rlk = scheme.keygen()
        galois = scheme.rotation_keygen(
            sk, BatchedHheServer.required_rotation_steps(params, HHE_N)
        )
        encoder = BatchEncoder(bfv.n, params.p)
        key = random_key(params, tag)
        server = BatchedHheServer(
            params, scheme, rlk, encoder,
            encrypt_key_batched(scheme, pk, encoder, key),
            engine="bsgs", galois_keys=galois,
        )
        # The client encrypts with a private cache-less engine: the shared
        # get_engine(params) LRU behind the server must stay cold.
        self.system = SimpleNamespace(
            scheme=scheme, sk=sk, encoder=encoder, key=key, server=server,
            client=KeystreamEngine(params, cache_size=0),
        )

    def make_input(self, index: int):
        params, system = self.params, self.system
        messages = self.rng.integers(0, params.p, size=(HHE_BLOCKS, params.t))
        nonce = self.nonces.next()
        keystream = system.client.keystream_pairs(
            system.key, [(nonce, c) for c in range(HHE_BLOCKS)]
        )
        return system, nonce, messages, ((messages + keystream) % params.p).tolist()

    def execute(self, inp):
        system, nonce, _, blocks = inp
        return system.server.transcipher_blocks(blocks, nonce, list(range(HHE_BLOCKS)))

    def check(self, done: Sequence[Tuple[object, object]], stats: Dict[str, float]) -> int:
        """Bit-exact decryption, a positive budget, and a sound noise model."""
        failed = _reused_nonces([inp[1] for inp, _ in done])
        budgets, headrooms = [], []
        for (system, _, messages, _), result in done:
            scheme, model = system.scheme, system.scheme.noise_model
            decrypted = decrypt_batched_result(scheme, system.sk, system.encoder, result)
            budget = min(scheme.noise_budget_bits(system.sk, ct) for ct in result.ciphertexts)
            headroom = model.headroom_bits(model.merge(ct.noise for ct in result.ciphertexts))
            budgets.append(budget)
            if headroom is not None:
                headrooms.append(headroom)
            failed += not (
                decrypted == messages.tolist()
                and budget > 0
                and headroom is not None
                and headroom <= budget
            )
        last = done[-1][1]
        for op in ("rotations", "decompositions", "relins", "plain_muls"):
            stats[f"ops.{op}"] = getattr(last.ops, op)
        polys = [poly for ct in last.ciphertexts for poly in ct.parts]
        stats["rns_limbs"] = max(len(poly.ctx.primes) for poly in polys)
        # Wire size of the response: every part at the width of the modulus it carries.
        stats["response_bytes_per_block"] = sum(
            poly.ctx.n * ((poly.ctx.modulus.bit_length() + 7) // 8) for poly in polys
        ) / len(last.counters)
        stats["measured_budget_bits"] = min(budgets)
        stats["modeled_headroom_bits"] = min(headrooms, default=0.0)
        return failed


WORKLOADS = {w.name: w for w in (ClientEncrypt, HheFrame)}
