"""No host path runs the pure-Python Keccak permutation.

The scalar sponge (:mod:`repro.keccak.sponge`) is the reference oracle and
the hardware model's datapath. Every stream a host reads is a ``hashlib``
SHAKE digest instead: FHE key setup and the encrypted PASTA key, the
client's keystream, the server's per-frame materials, tenant keys, and the
service's fault, jitter and routing draws. Here the permutation raises, and
each of those paths must still run to completion.

The one sanctioned host use is the hardware model: the client's keystream
spans carry modeled accelerator cycles, which run the hardware model (its
datapath is the scalar sponge) once per parameter set and memoize them.
The fixture fills that memo for the service's parameters before patching
and removes the HHE frame's entry, so the server path must run without it.
"""

import numpy as np
import pytest

from repro.apps.video import synthetic_frames_batch
from repro.fhe import BatchEncoder, Bfv
from repro.hhe import (
    BatchedHheServer,
    decrypt_batched_result,
    encrypt_key_batched,
    transcipher_parameters,
)
from repro.keccak.hw_model import OverlappedKeccakCore
from repro.obs.cycles import _block_cycles_cache, modeled_block_cycles
from repro.pasta import PASTA_MICRO, PASTA_TOY, PastaParams, random_key
from repro.pasta.batch import KeystreamEngine
from repro.service import TILE8, FaultPlan, Service, ServiceConfig, TenantSpec, derive_tenant_key

#: The frame benchmark's server shape: t = 32, N = 512, q >= 2^240, one
#: packed group of 8 blocks.
PARAMS = PastaParams(name="pasta-bsgs", t=32, rounds=2, p=PASTA_MICRO.p, secure=False)
RING_N = 512
BLOCKS = 8

#: The HHE frame's entry in the process-wide cycle memo.
FRAME_CYCLES = (PARAMS.name, OverlappedKeccakCore.name)


@pytest.fixture
def no_scalar_permutation(monkeypatch):
    modeled_block_cycles(PASTA_TOY)  # the service's client keystream
    # The memo is process-wide: whatever ran before, each test starts
    # without the HHE frame's entry.
    monkeypatch.delitem(_block_cycles_cache, FRAME_CYCLES, raising=False)

    def refuse(state):
        raise AssertionError("the pure-Python Keccak-f[1600] ran on a host path")

    monkeypatch.setattr("repro.keccak.sponge.keccak_f1600", refuse)


def test_hhe_setup_and_frame(no_scalar_permutation, monkeypatch):
    bfv = transcipher_parameters(PARAMS, RING_N, prime_bits=26)
    scheme = Bfv(bfv, seed=b"sponge-guard")
    sk, pk, rlk = scheme.keygen()
    galois = scheme.rotation_keygen(sk, BatchedHheServer.required_rotation_steps(PARAMS, RING_N))
    encoder = BatchEncoder(bfv.n, PARAMS.p)
    key = random_key(PARAMS, b"sponge-guard")
    server = BatchedHheServer(
        PARAMS, scheme, rlk, encoder,
        encrypt_key_batched(scheme, pk, encoder, key),
        engine="bsgs", galois_keys=galois,
    )
    nonce, counters = 11, list(range(BLOCKS))
    messages = np.random.default_rng(0).integers(0, PARAMS.p, size=(BLOCKS, PARAMS.t))
    # The client's keystream span reads its modeled cycles from the memo;
    # give it an entry for this call only.
    with monkeypatch.context() as client:
        client.setitem(_block_cycles_cache, FRAME_CYCLES, 1)
        keystream = KeystreamEngine(PARAMS, cache_size=0).keystream_pairs(
            key, [(nonce, c) for c in counters]
        )
    result = server.transcipher_blocks(((messages + keystream) % PARAMS.p).tolist(), nonce, counters)
    assert decrypt_batched_result(scheme, sk, encoder, result) == messages.tolist()
    assert FRAME_CYCLES not in _block_cycles_cache  # the server never asked


def test_tenant_key(no_scalar_permutation):
    assert len(derive_tenant_key(PASTA_MICRO, "tenant")) == PASTA_MICRO.key_size


def test_faulted_service_run(no_scalar_permutation):
    frames = 16
    config = ServiceConfig(
        tenants=(TenantSpec("camera", frames_per_session=frames, ladder=(TILE8,)),),
        workers_per_shard=2,
        batch_frames=8,
        timeout_seconds=0.002,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.01,
    )
    result = Service(config, FaultPlan(seed=5, drop_rate=0.2, corrupt_rate=0.1)).run()
    assert len(result.frames) == frames
    expected = synthetic_frames_batch(TILE8, [f.frame_id for f in result.frames])
    assert [f.pixels for f in result.frames] == [bytes(row) for row in expected]
    assert sum(result.attempts.values()) > frames  # the faults bit
