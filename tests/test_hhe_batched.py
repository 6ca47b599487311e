"""Tests for BFV slot batching and batched (SIMD) transciphering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ff.params import P33
from repro.fhe import Bfv, toy_parameters
from repro.fhe.batching import BatchEncoder
from repro.hhe import BatchedHheServer, decrypt_batched_result, encrypt_key_batched
from repro.pasta import PASTA_MICRO, Pasta, PastaParams, random_key

P = PASTA_MICRO.p

#: PASTA_MICRO at the 33-bit datapath — the omega variant of the parity sweep.
MICRO_33 = PastaParams(name="micro-33", t=2, rounds=2, p=P33, secure=False)


@pytest.fixture(scope="module")
def ctx():
    bfv = toy_parameters(P, n=256, log2_q=230)  # RNS engine, the default path
    scheme = Bfv(bfv, seed=b"batch-tests")
    sk, pk, rlk = scheme.keygen()
    encoder = BatchEncoder(bfv.n, P)
    return scheme, sk, pk, rlk, encoder


class TestBatchEncoder:
    def test_roundtrip(self, ctx):
        _, _, _, _, encoder = ctx
        values = [0, 1, 65536, 12345]
        assert encoder.decode(encoder.encode(values))[:4] == values

    def test_padding(self, ctx):
        _, _, _, _, encoder = ctx
        decoded = encoder.decode(encoder.encode([5]))
        assert decoded[0] == 5
        assert decoded[1:] == [0] * (encoder.n - 1)

    def test_constant_fills_all_slots(self, ctx):
        _, _, _, _, encoder = ctx
        assert encoder.decode(encoder.constant(7)) == [7] * encoder.n

    def test_too_many_slots(self, ctx):
        _, _, _, _, encoder = ctx
        with pytest.raises(ParameterError):
            encoder.encode([1] * (encoder.n + 1))

    def test_requires_batching_friendly_prime(self):
        with pytest.raises(Exception):
            BatchEncoder(256, 65539)  # 65538 not divisible by 512


class TestSlotwiseHomomorphism:
    def test_slotwise_add(self, ctx):
        scheme, sk, pk, _, encoder = ctx
        a = scheme.encrypt_poly(pk, encoder.encode([1, 2, 3]))
        b = scheme.encrypt_poly(pk, encoder.encode([10, 20, 30]))
        got = encoder.decode(scheme.decrypt_poly(sk, scheme.add(a, b)))[:3]
        assert got == [11, 22, 33]

    def test_slotwise_ct_mult(self, ctx):
        scheme, sk, pk, rlk, encoder = ctx
        a = scheme.encrypt_poly(pk, encoder.encode([2, 3, 65536]))
        b = scheme.encrypt_poly(pk, encoder.encode([5, 7, 65536]))
        got = encoder.decode(scheme.decrypt_poly(sk, scheme.multiply(a, b, rlk)))[:3]
        assert got == [10, 21, (65536 * 65536) % P]

    def test_slotwise_plain_mult(self, ctx):
        scheme, sk, pk, _, encoder = ctx
        ct = scheme.encrypt_poly(pk, encoder.encode([1, 2, 3, 4]))
        out = scheme.mul_plain_poly(ct, encoder.encode([9, 9, 0, 1]))
        got = encoder.decode(scheme.decrypt_poly(sk, out))[:4]
        assert got == [9, 18, 0, 4]

    def test_slotwise_plain_add(self, ctx):
        scheme, sk, pk, _, encoder = ctx
        ct = scheme.encrypt_poly(pk, encoder.encode([1, 2]))
        out = scheme.add_plain_poly(ct, encoder.encode([100, 65536]))
        got = encoder.decode(scheme.decrypt_poly(sk, out))[:2]
        assert got == [101, (2 + 65536) % P]

    def test_plain_poly_length_checked(self, ctx):
        scheme, _, pk, _, encoder = ctx
        ct = scheme.encrypt_poly(pk, encoder.encode([1]))
        with pytest.raises(ParameterError):
            scheme.mul_plain_poly(ct, [1, 2, 3])


class TestBatchedTransciphering:
    @pytest.fixture(scope="class")
    def session(self, ctx):
        scheme, sk, pk, rlk, encoder = ctx
        key = random_key(PASTA_MICRO, b"batched-victim")
        enc_key = encrypt_key_batched(scheme, pk, encoder, [int(k) for k in key])
        server = BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key)
        return Pasta(PASTA_MICRO, key), server, sk

    def test_three_blocks_one_evaluation(self, ctx, session):
        scheme, sk, _, _, encoder = ctx
        cipher, server, _ = session
        blocks = [[7, 8], [9, 10], [11, 12]]
        cts = [cipher.encrypt_block(b, 5, c) for c, b in enumerate(blocks)]
        result = server.transcipher_blocks([[int(x) for x in ct] for ct in cts], 5, [0, 1, 2])
        assert decrypt_batched_result(scheme, sk, encoder, result) == blocks

    def test_op_count_independent_of_batch_size(self, ctx, session):
        """The amortization claim: B blocks cost the ops of one evaluation."""
        scheme, sk, _, _, encoder = ctx
        cipher, server, _ = session
        one = server.transcipher_blocks(
            [[int(x) for x in cipher.encrypt_block([1, 2], 6, 0)]], 6, [0]
        )
        two = server.transcipher_blocks(
            [
                [int(x) for x in cipher.encrypt_block([1, 2], 6, 0)],
                [int(x) for x in cipher.encrypt_block([3, 4], 6, 1)],
            ],
            6,
            [0, 1],
        )
        assert one.ops == two.ops

    def test_partial_block_rejected(self, session):
        _, server, _ = session
        with pytest.raises(ParameterError, match="full t-element"):
            server.transcipher_blocks([[1]], 0, [0])

    def test_counter_count_mismatch(self, session):
        _, server, _ = session
        with pytest.raises(ParameterError, match="one counter per block"):
            server.transcipher_blocks([[1, 2]], 0, [0, 1])

    def test_noise_budget_survives(self, ctx, session):
        scheme, sk, _, _, encoder = ctx
        cipher, server, _ = session
        ct = cipher.encrypt_block([5, 6], 7, 0)
        result = server.transcipher_blocks([[int(x) for x in ct]], 7, [0])
        for out in result.ciphertexts:
            assert scheme.noise_budget_bits(sk, out) > 10


class TestElementRangeCheck:
    """The server refuses what ``Pasta.decrypt`` refuses: every element must
    be an integer in [0, p), on every engine, before any evaluation."""

    @pytest.fixture(scope="class")
    def servers(self, ctx):
        scheme, sk, pk, rlk, encoder = ctx
        key = random_key(PASTA_MICRO, b"range-check")
        enc_key = encrypt_key_batched(scheme, pk, encoder, key)
        galois = scheme.rotation_keygen(
            sk, BatchedHheServer.required_rotation_steps(PASTA_MICRO, encoder.n)
        )
        return {
            eng: BatchedHheServer(
                PASTA_MICRO, scheme, rlk, encoder, enc_key,
                engine=eng, galois_keys=galois if eng == "bsgs" else None,
            )
            for eng in ("scalar", "tensor", "bsgs")
        }

    @pytest.mark.parametrize("engine", ["scalar", "tensor", "bsgs"])
    @pytest.mark.parametrize("bad", [P, -1, P + 5, 1.5], ids=["p", "minus-one", "p-plus-c", "float"])
    def test_bad_element_rejected(self, servers, engine, bad):
        with pytest.raises(ParameterError, match="elements must"):
            servers[engine].transcipher_blocks([[5, 6], [7, bad]], 3, [0, 1])


class TestEvalEngineSelection:
    def test_unknown_engine_rejected(self, ctx):
        scheme, _, pk, rlk, encoder = ctx
        key = random_key(PASTA_MICRO, b"sel")
        enc_key = encrypt_key_batched(scheme, pk, encoder, key)
        with pytest.raises(ParameterError, match="unknown evaluation engine"):
            BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key, engine="simd")

    def test_auto_picks_tensor_on_rns(self, ctx):
        scheme, _, pk, rlk, encoder = ctx
        key = random_key(PASTA_MICRO, b"sel")
        enc_key = encrypt_key_batched(scheme, pk, encoder, key)
        server = BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key)
        assert server.eval_engine == "tensor"

    def test_tensor_requires_rns_scheme(self):
        bfv = toy_parameters(P, n=256, log2_q=190, rns=False)
        scheme = Bfv(bfv, seed=b"sel-bigint")
        _, pk, rlk = scheme.keygen()
        encoder = BatchEncoder(bfv.n, P)
        key = random_key(PASTA_MICRO, b"sel")
        enc_key = encrypt_key_batched(scheme, pk, encoder, key)
        with pytest.raises(ParameterError, match="requires the RNS"):
            BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key, engine="tensor")
        # auto falls back to the scalar evaluator on the big-int engine.
        server = BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key)
        assert server.eval_engine == "scalar"


def _ciphertext_ints(scheme, result):
    return [
        [scheme.engine.to_ints(part) for part in ct.parts] for ct in result.ciphertexts
    ]


class TestTensorScalarParity:
    """Property: both evaluation engines are the SAME function, bit-exact.

    Identical ciphertext residues (not merely identical decryptions),
    identical op counts, over random messages/nonces/counter schedules and
    both prime widths (17-bit and 33-bit omega).
    """

    @pytest.fixture(scope="class")
    def servers(self, ctx):
        scheme, sk, pk, rlk, encoder = ctx
        key = random_key(PASTA_MICRO, b"parity-17")
        enc_key = encrypt_key_batched(scheme, pk, encoder, key)
        cipher = Pasta(PASTA_MICRO, key)
        built = {
            eng: BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key, engine=eng)
            for eng in ("scalar", "tensor")
        }
        return scheme, sk, encoder, cipher, built

    @pytest.fixture(scope="class")
    def servers_33(self):
        bfv = toy_parameters(P33, n=256, log2_q=340, prime_bits=26)
        scheme = Bfv(bfv, seed=b"parity-33")
        sk, pk, rlk = scheme.keygen()
        encoder = BatchEncoder(bfv.n, P33)
        key = random_key(MICRO_33, b"parity-33")
        enc_key = encrypt_key_batched(scheme, pk, encoder, key)
        cipher = Pasta(MICRO_33, key)
        built = {
            eng: BatchedHheServer(MICRO_33, scheme, rlk, encoder, enc_key, engine=eng)
            for eng in ("scalar", "tensor")
        }
        return scheme, sk, encoder, cipher, built

    def _assert_parity(self, params, bundle, messages, nonce, counters):
        scheme, sk, encoder, cipher, servers = bundle
        blocks = [
            [int(x) for x in cipher.encrypt_block(m, nonce, c)]
            for c, m in zip(counters, messages)
        ]
        results = {
            eng: server.transcipher_blocks(blocks, nonce, counters)
            for eng, server in servers.items()
        }
        assert results["scalar"].ops == results["tensor"].ops
        assert _ciphertext_ints(scheme, results["scalar"]) == _ciphertext_ints(
            scheme, results["tensor"]
        )
        assert decrypt_batched_result(scheme, sk, encoder, results["tensor"]) == messages

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_parity_17(self, servers, data):
        n_blocks = data.draw(st.integers(min_value=1, max_value=4), label="blocks")
        nonce = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="nonce")
        start = data.draw(st.integers(min_value=0, max_value=1000), label="counter0")
        counters = list(range(start, start + n_blocks))
        messages = [
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=PASTA_MICRO.p - 1),
                    min_size=PASTA_MICRO.t,
                    max_size=PASTA_MICRO.t,
                ),
                label=f"block{b}",
            )
            for b in range(n_blocks)
        ]
        self._assert_parity(PASTA_MICRO, servers, messages, nonce, counters)

    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_parity_33(self, servers_33, data):
        n_blocks = data.draw(st.integers(min_value=1, max_value=2), label="blocks")
        nonce = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="nonce")
        counters = list(range(n_blocks))
        messages = [
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=MICRO_33.p - 1),
                    min_size=MICRO_33.t,
                    max_size=MICRO_33.t,
                ),
                label=f"block{b}",
            )
            for b in range(n_blocks)
        ]
        self._assert_parity(MICRO_33, servers_33, messages, nonce, counters)


class TestPreparedPlaintextBudget:
    """Per-tenant servers share ONE prepared-plaintext budget, fairly.

    The pre-budget servers hid unbounded ``lru_cache`` closures (maxsize
    8192/4096) — per-server bounds that multiply with the tenant count.
    Here two tenants' servers draw from a single :class:`CacheBudget`; a
    hot tenant flooding it must evict its own rows, never a quiet tenant
    sitting at or below its fair share.
    """

    def _server(self, ctx, key, tenant, budget):
        scheme, _, pk, rlk, encoder = ctx
        encrypted_key = encrypt_key_batched(scheme, pk, encoder, [int(k) for k in key])
        return BatchedHheServer(
            PASTA_MICRO, scheme, rlk, encoder, encrypted_key,
            tenant=tenant, prepared_budget=budget,
        )

    def test_hot_tenant_cannot_evict_quiet_fair_share(self, ctx):
        from repro.utils.budget import CacheBudget

        key_q = random_key(PASTA_MICRO, b"budget-quiet")
        key_h = random_key(PASTA_MICRO, b"budget-hot")

        # Measure one block's prepared cost on a throwaway budget first.
        probe = CacheBudget(100_000)
        probing = self._server(ctx, key_q, "probe", probe)
        cipher = Pasta(PASTA_MICRO, key_q)
        block_q = [int(v) for v in cipher.encrypt(list(range(PASTA_MICRO.t)), nonce=1)]
        probing.transcipher_blocks([block_q], nonce=1, counters=[0])
        cost_per_block = probe.usage("probe")
        assert cost_per_block > 0

        # Real budget: room for exactly two blocks' rows, two owners — one
        # cached block each is precisely the fair share.
        budget = CacheBudget(2 * cost_per_block)
        quiet = self._server(ctx, key_q, "quiet", budget)
        hot = self._server(ctx, key_h, "hot", budget)

        quiet.transcipher_blocks([block_q], nonce=1, counters=[0])
        assert budget.usage("quiet") == cost_per_block

        hot_cipher = Pasta(PASTA_MICRO, key_h)
        for nonce in range(10, 16):  # 6 distinct blocks >> capacity
            block_h = [
                int(v) for v in hot_cipher.encrypt(list(range(PASTA_MICRO.t)), nonce=nonce)
            ]
            hot.transcipher_blocks([block_h], nonce=nonce, counters=[0])

        assert budget.total <= budget.capacity, "global prepared budget exceeded"
        assert budget.usage("quiet") == cost_per_block, (
            "hot tenant evicted the quiet tenant's fair-share rows"
        )
        assert budget.evictions("quiet") == 0
        assert budget.evictions("hot") > 0

    def test_prepared_cache_info_reports_budget(self, ctx):
        from repro.utils.budget import CacheBudget

        budget = CacheBudget(500)
        key = random_key(PASTA_MICRO, b"budget-info")
        server = self._server(ctx, key, "solo", budget)
        cipher = Pasta(PASTA_MICRO, key)
        block = [int(v) for v in cipher.encrypt(list(range(PASTA_MICRO.t)), nonce=2)]
        server.transcipher_blocks([block], nonce=2, counters=[0])
        info = server.prepared_cache_info()
        assert info["budget"]["capacity"] == 500
        assert info["budget"]["owners"]["solo"] > 0
        assert sum(c["misses"] for k, c in info.items() if k != "budget") > 0
