"""The HHE server's overlapped schedule: concurrency, failures and spans.

:meth:`BatchedHheServer.transcipher_blocks` runs one round per packed
group: each group's layer 0 is prepared on the calling thread and its
layers 1..r on one ``hhe-prepare`` thread per call. These tests pin what
the thread hop must not change: concurrent calls on one server each get
exact results and their own op counts, an error on either side of the hop
surfaces from the call with no helper left running and the server still
serving, the helper never prepares past the group being evaluated, the
server reads no keystream engine, and every prepared layer is one
``hhe.prepare`` span in the call's trace.
"""

import dataclasses
import os
import resource
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fhe import BatchEncoder, Bfv
from repro.hhe import (
    BatchedHheServer,
    decrypt_batched_result,
    encrypt_key_batched,
    transcipher_parameters,
)
from repro.hhe import batched
from repro.obs import get_tracer
from repro.obs.trace import FAULTS_ATTR
from repro.pasta import PASTA_MICRO, Pasta, PastaParams, homomorphic_op_counts, random_key
from repro.pasta.batch import DEFAULT_CACHE_BLOCKS, KeystreamEngine

N = 256
#: t = 4: two groups of (N/2)/t = 32 blocks make the 2-group rig.
QUAD = PastaParams(name="quad-17", t=4, rounds=2, p=PASTA_MICRO.p, secure=False)


def _rig(pasta, seed):
    params = transcipher_parameters(pasta, N)
    scheme = Bfv(params, seed=seed)
    sk, pk, rlk = scheme.keygen()
    galois = scheme.rotation_keygen(sk, BatchedHheServer.required_rotation_steps(pasta, N))
    encoder = BatchEncoder(N, pasta.p)
    key = random_key(pasta, seed=seed)
    server = BatchedHheServer(
        pasta, scheme, rlk, encoder, encrypt_key_batched(scheme, pk, encoder, key),
        galois_keys=galois,
    )
    return SimpleNamespace(
        pasta=pasta, scheme=scheme, sk=sk, encoder=encoder, cipher=Pasta(pasta, key),
        server=server,
    )


@pytest.fixture(scope="module")
def micro():
    return _rig(PASTA_MICRO, b"overlap-micro")


@pytest.fixture(scope="module")
def quad():
    return _rig(QUAD, b"overlap-quad")


def _frame(rig, nonce, n_blocks):
    """Messages and their PASTA ciphertext blocks under (nonce, 0..n-1)."""
    messages = np.random.default_rng(nonce).integers(0, rig.pasta.p, (n_blocks, rig.pasta.t))
    blocks = [
        [int(x) for x in rig.cipher.encrypt_block(m, nonce=nonce, counter=c)]
        for c, m in enumerate(messages.tolist())
    ]
    return messages.tolist(), blocks


def _serve(rig, nonce, n_blocks):
    messages, blocks = _frame(rig, nonce, n_blocks)
    return messages, rig.server.transcipher_blocks(blocks, nonce, list(range(n_blocks)))


def _closed_form(rig, result):
    groups = len(result.ciphertexts)
    return {k: groups * v for k, v in homomorphic_op_counts(rig.pasta).items()}


def _assert_exact(rig, messages, result):
    assert decrypt_batched_result(rig.scheme, rig.sk, rig.encoder, result) == messages
    assert dataclasses.asdict(result.ops) == _closed_form(rig, result)


def _on_helper(thread=None):
    """True on a call's ``hhe-prepare`` thread (the executor numbers it)."""
    return (thread or threading.current_thread()).name.startswith("hhe-prepare")


def _live_helpers(timeout=5.0):
    """``hhe-prepare`` threads still alive after waiting up to ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [t for t in threading.enumerate() if _on_helper(t)]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.01)


class TestConcurrentCalls:
    def test_calls_on_one_server_keep_their_own_ops(self, micro):
        """More callers than cores, switching threads as often as the
        interpreter allows: a count kept on the server would be reset and
        added to by every call at once."""
        workers = max(4, (os.cpu_count() or 1) + 2)
        calls = 2
        nonces = [[7000 + 10 * i + k for k in range(calls)] for i in range(workers)]
        frames = {nonce: _frame(micro, nonce, 3) for row in nonces for nonce in row}
        results, errors = {}, []

        def work(row):
            try:
                for nonce in row:
                    blocks = frames[nonce][1]
                    results[nonce] = micro.server.transcipher_blocks(blocks, nonce, [0, 1, 2])
            except BaseException as exc:  # reported by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(row,)) for row in nonces]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert sorted(results) == sorted(frames)
        for nonce, result in results.items():
            _assert_exact(micro, frames[nonce][0], result)
        assert len({id(result.ops) for result in results.values()}) == len(results)
        assert _live_helpers() == []


class TestFailClosed:
    def test_preparation_error_surfaces_from_the_call(self, micro, monkeypatch):
        server = micro.server
        last = micro.pasta.rounds
        prepare = server._prepared_diags
        failed_on = []

        def failing(nonce, counters, layer, schedule):
            if layer == last:
                failed_on.append(_on_helper())
                raise ParameterError("injected preparation failure")
            return prepare(nonce, counters, layer, schedule)

        monkeypatch.setattr(server, "_prepared_diags", failing)
        _, blocks = _frame(micro, 8001, 3)
        with pytest.raises(ParameterError, match="injected preparation failure"):
            server.transcipher_blocks(blocks, 8001, [0, 1, 2])
        assert failed_on == [True]
        assert _live_helpers() == []

        monkeypatch.undo()
        _assert_exact(micro, *_serve(micro, 8002, 3))

    def test_evaluation_error_stops_a_helper_one_group_ahead(self, micro, monkeypatch):
        """Three packed groups: the evaluator fails in group 0's first
        S-box once the helper has prepared the group's layers 1..r, all it
        may run ahead; the helper prepares nothing further and is joined."""
        server, scheme = micro.server, micro.scheme
        bound = micro.pasta.rounds
        prepare_rc = server._prepared_rc
        prepared_ahead = []
        helper_full = threading.Event()

        def counting(nonce, counters, layer, schedule):
            out = prepare_rc(nonce, counters, layer, schedule)
            if _on_helper():
                prepared_ahead.append(layer)
                if len(prepared_ahead) == bound:
                    helper_full.set()
            return out

        def failing_square(*args, **kwargs):
            assert helper_full.wait(timeout=60)
            raise RuntimeError("injected evaluation failure")

        monkeypatch.setattr(server, "_prepared_rc", counting)
        monkeypatch.setattr(scheme, "tensor_square", failing_square)
        n_blocks = 2 * server.packed_capacity + 1
        _, blocks = _frame(micro, 8003, n_blocks)
        with pytest.raises(RuntimeError, match="injected evaluation failure"):
            server.transcipher_blocks(blocks, 8003, list(range(n_blocks)))
        assert _live_helpers() == []
        assert len(prepared_ahead) == bound

        monkeypatch.undo()
        _assert_exact(micro, *_serve(micro, 8004, n_blocks))


class TestMaterialDerivation:
    def test_every_block_is_derived_once_above_the_lru(self, micro, monkeypatch):
        """Three packed groups, more blocks than a keystream engine's LRU
        holds: each group's schedule is derived once, in its own round,
        so no block is derived twice."""
        server = micro.server
        n_blocks = 3 * server.packed_capacity
        assert n_blocks > DEFAULT_CACHE_BLOCKS
        messages, blocks = _frame(micro, 8005, n_blocks)
        derive = batched.generate_block_materials_pairs
        lanes = []

        def counting(params, pairs):
            lanes.append(len(pairs))
            return derive(params, pairs)

        monkeypatch.setattr(batched, "generate_block_materials_pairs", counting)
        result = server.transcipher_blocks(blocks, 8005, list(range(n_blocks)))
        assert lanes == [server.packed_capacity] * 3
        _assert_exact(micro, messages, result)

    def test_no_keystream_engine_is_read(self, micro, monkeypatch):
        """Three packed groups stay exact with every keystream engine's
        materials LRU refusing to serve: the server derives each group's
        schedule itself."""
        n_blocks = 2 * micro.server.packed_capacity + 1
        messages, blocks = _frame(micro, 8006, n_blocks)

        def refuse(self, pairs):
            raise AssertionError("the server read a keystream engine")

        monkeypatch.setattr(KeystreamEngine, "_entries_pairs", refuse)
        result = micro.server.transcipher_blocks(blocks, 8006, list(range(n_blocks)))
        _assert_exact(micro, messages, result)


class TestSpans:
    def test_each_prepared_layer_is_one_span_under_the_call(self, quad):
        capacity = quad.server.packed_capacity
        messages, result = _serve(quad, 91, capacity + 1)
        _assert_exact(quad, messages, result)

        tracer = get_tracer()
        (call,) = tracer.spans_named("hhe.transcipher")
        groups, layers = len(result.ciphertexts), QUAD.rounds + 1
        assert groups == 2
        prepares = tracer.spans_named("hhe.prepare")
        where = sorted((s.attributes["group"], s.attributes["layer"]) for s in prepares)
        assert where == [(g, layer) for g in range(groups) for layer in range(layers)]
        caller = threading.current_thread().name
        if hasattr(resource, "RUSAGE_THREAD"):
            # Each span counts the minor faults of the thread it ran on.
            assert all(span.attributes[FAULTS_ATTR] >= 0 for span in [call, *prepares])
        for span in prepares:
            assert (span.trace_id, span.parent_id) == (call.trace_id, call.span_id)
            if span.attributes["layer"] == 0:
                assert span.thread_name == caller
            else:
                assert span.thread_name.startswith("hhe-prepare")
        for wait in tracer.spans_named("hhe.prepare_wait"):
            assert (wait.trace_id, wait.parent_id) == (call.trace_id, call.span_id)
            assert wait.thread_name == caller
