"""Tests for BFV slot batching and batched (SIMD) transciphering."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fhe import Bfv, BfvParams, toy_parameters
from repro.fhe.batching import BatchEncoder
from repro.hhe import (
    BatchedHheServer,
    decrypt_batched_result,
    encrypt_key_batched,
    transcipher_parameters,
)
from repro.obs import get_registry
from repro.pasta import PASTA_MICRO, Pasta, PastaParams, random_key

P = PASTA_MICRO.p

#: Nonces and counters the server must refuse rather than truncate or parse.
NON_INTEGERS = [7.5, "7", np.float64(7.0)]
NON_INTEGER_IDS = ["float", "str", "np-float64"]


@pytest.fixture(scope="module")
def ctx():
    bfv = transcipher_parameters(PASTA_MICRO, 256)  # RNS engine, the default path
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


@pytest.fixture(scope="module")
def galois(ctx):
    scheme, sk, _, _, encoder = ctx
    return scheme.rotation_keygen(
        sk, BatchedHheServer.required_rotation_steps(PASTA_MICRO, encoder.n)
    )


def _server(ctx, galois, key, **kwargs):
    scheme, _, pk, rlk, encoder = ctx
    enc_key = encrypt_key_batched(scheme, pk, encoder, [int(k) for k in key])
    return BatchedHheServer(
        PASTA_MICRO, scheme, rlk, encoder, enc_key, galois_keys=galois, **kwargs
    )


class TestBatchedTransciphering:
    @pytest.fixture(scope="class")
    def session(self, ctx, galois):
        _, sk, _, _, _ = ctx
        key = random_key(PASTA_MICRO, b"batched-victim")
        return Pasta(PASTA_MICRO, key), _server(ctx, galois, key), sk

    def test_three_blocks_one_evaluation(self, ctx, session):
        scheme, sk, _, _, encoder = ctx
        cipher, server, _ = session
        blocks = [[7, 8], [9, 10], [11, 12]]
        cts = [cipher.encrypt_block(b, 5, c) for c, b in enumerate(blocks)]
        result = server.transcipher_blocks([[int(x) for x in ct] for ct in cts], 5, [0, 1, 2])
        assert len(result.ciphertexts) == 1
        assert decrypt_batched_result(scheme, sk, encoder, result) == blocks

    def test_op_count_independent_of_batch_size(self, ctx, session):
        """The amortization claim: B blocks in one group cost the ops of one evaluation."""
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

    def test_exact_fallbacks_stay_rare(self, ctx, session):
        """The CRT transports leave the float64 path only inside their guard
        bands: never for the projection of ciphertext coefficients, and for
        under 1% of the rescaled tensor-product coefficients. A band widened
        by mistake fails here instead of slowing the evaluation unseen."""
        scheme, sk, _, _, encoder = ctx
        cipher, server, _ = session
        messages = [[c, c + 1] for c in range(4)]
        cts = [cipher.encrypt_block(m, 8, c) for c, m in enumerate(messages)]
        result = server.transcipher_blocks([[int(x) for x in ct] for ct in cts], 8, [0, 1, 2, 3])
        assert decrypt_batched_result(scheme, sk, encoder, result) == messages
        registry = get_registry()
        fallbacks = {
            (c.labels["transport"], c.labels["stage"]): c.value
            for c in registry.collect("fhe.crt.exact_fallbacks")
        }
        products = registry.counter("fhe.tensor_scale.calls", engine="tensor").value
        rescaled = 3 * encoder.n * products
        assert products > 0
        assert sum(v for (_, stage), v in fallbacks.items() if stage == "projection") == 0
        assert fallbacks.get(("rescale", "quotient"), 0) < 0.01 * rescaled

    def test_partial_block_rejected(self, session):
        _, server, _ = session
        with pytest.raises(ParameterError, match="full t-element"):
            server.transcipher_blocks([[1]], 0, [0])

    def test_oversized_block_rejected(self, session):
        _, server, _ = session
        with pytest.raises(ParameterError, match="full t-element"):
            server.transcipher_blocks([[1] * (PASTA_MICRO.t + 1)], 0, [0])

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

    def test_empty_batch_rejected(self, session):
        _, server, _ = session
        with pytest.raises(ParameterError, match="empty batch"):
            server.transcipher_blocks([], 0, [])

    @pytest.mark.parametrize("bad", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_non_integer_nonce_rejected(self, session, bad):
        cipher, server, _ = session
        block = [int(x) for x in cipher.encrypt_block([1, 2], 7, 0)]
        with pytest.raises(ParameterError, match="nonce must be an integer"):
            server.transcipher_blocks([block], bad, [0])

    @pytest.mark.parametrize("bad", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_non_integer_counter_rejected(self, session, bad):
        cipher, server, _ = session
        block = [int(x) for x in cipher.encrypt_block([1, 2], 7, 0)]
        with pytest.raises(ParameterError, match="counter must be an integer"):
            server.transcipher_blocks([block], 7, [bad])


class TestElementRangeCheck:
    """The server refuses what ``Pasta.decrypt`` refuses: every element must
    be an integer in [0, p), in every packed group, before any evaluation."""

    @pytest.fixture(scope="class")
    def server(self, ctx, galois):
        return _server(ctx, galois, random_key(PASTA_MICRO, b"range-check"))

    @pytest.mark.parametrize("n_blocks", [2, 65], ids=["one-group", "two-groups"])
    @pytest.mark.parametrize("bad", [P, -1, P + 5, 1.5], ids=["p", "minus-one", "p-plus-c", "float"])
    def test_bad_element_rejected(self, server, bad, n_blocks):
        blocks = [[5, 6]] * (n_blocks - 1) + [[7, bad]]
        with pytest.raises(ParameterError, match="elements must"):
            server.transcipher_blocks(blocks, 3, list(range(n_blocks)))


class TestEvalEngineSelection:
    def test_unknown_engine_rejected(self, ctx, galois):
        key = random_key(PASTA_MICRO, b"sel")
        for engine in ("simd", "tensor", "scalar", "auto"):
            with pytest.raises(ParameterError, match="unknown evaluation engine"):
                _server(ctx, galois, key, engine=engine)

    def test_requires_rns_scheme(self):
        bfv = BfvParams(n=256, q=1 << 190, p=P)  # no prime chain: the big-int engine
        scheme = Bfv(bfv, seed=b"sel-bigint")
        sk, pk, rlk = scheme.keygen()
        encoder = BatchEncoder(bfv.n, P)
        key = random_key(PASTA_MICRO, b"sel")
        enc_key = encrypt_key_batched(scheme, pk, encoder, key)
        with pytest.raises(ParameterError, match="requires the RNS"):
            BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key)

    def test_t_must_divide_the_slot_row(self, ctx, galois):
        # 2t = 6 does not divide N/2 = 128: the upload and the server refuse.
        scheme, _, pk, rlk, encoder = ctx
        odd = PastaParams(name="t3", t=3, rounds=2, p=P, secure=False)
        key = random_key(odd, b"sel")
        with pytest.raises(ParameterError, match="divide the slot-row width"):
            encrypt_key_batched(scheme, pk, encoder, key)
        enc_key = [scheme.encrypt_poly(pk, encoder.constant(int(k))) for k in key]
        with pytest.raises(ParameterError, match="divide the slot-row width"):
            BatchedHheServer(odd, scheme, rlk, encoder, enc_key, galois_keys=galois)


class TestEncoderCompatibility:
    """A slot encoder for another ring or plaintext modulus is refused.

    51713 is a batching prime for N = 256 other than p: its slots encrypt,
    evaluate and decode, but every block then decrypts to garbage.
    """

    @pytest.mark.parametrize("n,p", [(256, 51713), (512, P)], ids=["other-p", "other-n"])
    def test_upload_server_and_decrypt_refuse(self, ctx, galois, n, p):
        scheme, sk, pk, rlk, encoder = ctx
        foreign = BatchEncoder(n, p)
        key = random_key(PASTA_MICRO, b"encoder")
        with pytest.raises(ParameterError, match="slot encoder"):
            encrypt_key_batched(scheme, pk, foreign, key)
        enc_key = encrypt_key_batched(scheme, pk, encoder, key)
        with pytest.raises(ParameterError, match=rf"\({n}, {p}\).*\(256, {P}\)"):
            BatchedHheServer(PASTA_MICRO, scheme, rlk, foreign, enc_key, galois_keys=galois)
        server = BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key, galois_keys=galois)
        block = [int(x) for x in Pasta(PASTA_MICRO, key).encrypt_block([1, 2], 4, 0)]
        result = server.transcipher_blocks([block], 4, [0])
        with pytest.raises(ParameterError, match="slot encoder"):
            decrypt_batched_result(scheme, sk, foreign, result)


class TestKeyCompatibility:
    """Key material from another prime chain fails at setup, not mid-frame.

    Both schemes have N = 256 and 10 limbs (26-bit primes for log2 q 240,
    30-bit primes for log2 q 280), so their keys stack to the same shape;
    only the primes differ.
    """

    @pytest.fixture(scope="class")
    def schemes(self):
        def build(log2_q, prime_bits, seed):
            bfv = toy_parameters(P, n=256, log2_q=log2_q, prime_bits=prime_bits)
            scheme = Bfv(bfv, seed=seed)
            sk, pk, rlk = scheme.keygen()
            steps = BatchedHheServer.required_rotation_steps(PASTA_MICRO, bfv.n)
            return scheme, pk, rlk, scheme.rotation_keygen(sk, steps)

        own, other = build(240, 26, b"compat-own"), build(280, 30, b"compat-other")
        assert len(own[0].params.rns_primes) == len(other[0].params.rns_primes)
        assert own[0].params.rns_primes != other[0].params.rns_primes
        return own, other

    def _build(self, schemes, foreign):
        (scheme, pk, rlk, galois), (other, other_pk, other_rlk, other_galois) = schemes
        encoder = BatchEncoder(scheme.params.n, P)
        key = random_key(PASTA_MICRO, b"compat")
        enc_key = encrypt_key_batched(
            *((other, other_pk) if foreign == "key" else (scheme, pk)), encoder, key
        )
        return BatchedHheServer(
            PASTA_MICRO,
            scheme,
            other_rlk if foreign == "rlk" else rlk,
            encoder,
            enc_key,
            galois_keys=other_galois if foreign == "galois" else galois,
        )

    def test_matching_material_is_accepted(self, schemes):
        assert self._build(schemes, None).packed_capacity == 64

    @pytest.mark.parametrize("foreign", ["key", "rlk", "galois"])
    def test_material_from_other_primes_rejected(self, schemes, foreign):
        with pytest.raises(ParameterError, match="RNS basis"):
            self._build(schemes, foreign)


class TestPreparedPlaintextBudget:
    """Per-tenant servers share ONE prepared-plaintext budget, fairly.

    The pre-budget servers hid unbounded ``lru_cache`` closures (maxsize
    8192/4096) — per-server bounds that multiply with the tenant count.
    Here two tenants' servers draw from a single :class:`CacheBudget`; a
    hot tenant flooding it must evict its own rows, never a quiet tenant
    sitting at or below its fair share.
    """

    def test_hot_tenant_cannot_evict_quiet_fair_share(self, ctx, galois):
        from repro.utils.budget import CacheBudget

        key_q = random_key(PASTA_MICRO, b"budget-quiet")
        key_h = random_key(PASTA_MICRO, b"budget-hot")

        # Measure one block's prepared cost on a throwaway budget first.
        probe = CacheBudget(100_000)
        probing = _server(ctx, galois, key_q, tenant="probe", prepared_budget=probe)
        cipher = Pasta(PASTA_MICRO, key_q)
        block_q = [int(v) for v in cipher.encrypt(list(range(PASTA_MICRO.t)), nonce=1)]
        probing.transcipher_blocks([block_q], nonce=1, counters=[0])
        cost_per_block = probe.usage("probe")
        assert cost_per_block > 0

        # Real budget: room for exactly two blocks' rows, two owners — one
        # cached block each is precisely the fair share.
        budget = CacheBudget(2 * cost_per_block)
        quiet = _server(ctx, galois, key_q, tenant="quiet", prepared_budget=budget)
        hot = _server(ctx, galois, key_h, tenant="hot", prepared_budget=budget)

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

    def test_prepared_cache_info_reports_budget(self, ctx, galois):
        from repro.utils.budget import CacheBudget

        budget = CacheBudget(500)
        key = random_key(PASTA_MICRO, b"budget-info")
        server = _server(ctx, galois, key, tenant="solo", prepared_budget=budget)
        cipher = Pasta(PASTA_MICRO, key)
        block = [int(v) for v in cipher.encrypt(list(range(PASTA_MICRO.t)), nonce=2)]
        server.transcipher_blocks([block], nonce=2, counters=[0])
        info = server.prepared_cache_info()
        assert info["budget"]["capacity"] == 500
        assert info["budget"]["owners"]["solo"] > 0
        assert sum(c["misses"] for k, c in info.items() if k != "budget") > 0


def _counting_derivations(monkeypatch):
    """Count the block lanes and layer matrices the server derives: lists
    appended to by stand-ins for the packed server's batched material
    derivation and matrix recurrence."""
    from repro.hhe import batched

    lanes, matrices = [], []
    derive = batched.generate_block_materials_pairs
    recur = batched.batched_sequential_matrices

    def counting_lanes(params, pairs):
        lanes.append(len(pairs))
        return derive(params, pairs)

    def counting_matrices(params, alphas):
        matrices.append(len(alphas))
        return recur(params, alphas)

    monkeypatch.setattr(batched, "generate_block_materials_pairs", counting_lanes)
    monkeypatch.setattr(batched, "batched_sequential_matrices", counting_matrices)
    return lanes, matrices


class TestGroupScheduleDerivedOnce:
    @pytest.fixture(scope="class")
    def wide(self):
        """A server at N = 512, t = 2: one packed group of 128 blocks, twice
        the 64-block keystream LRU, and a 128-block frame for it."""
        from repro.pasta import batch

        bfv = transcipher_parameters(PASTA_MICRO, 512)
        scheme = Bfv(bfv, seed=b"derive-once")
        sk, pk, rlk = scheme.keygen()
        galois = scheme.rotation_keygen(
            sk, BatchedHheServer.required_rotation_steps(PASTA_MICRO, bfv.n)
        )
        encoder = BatchEncoder(bfv.n, P)
        key = random_key(PASTA_MICRO, seed=b"derive-once")
        server = BatchedHheServer(
            PASTA_MICRO, scheme, rlk, encoder,
            encrypt_key_batched(scheme, pk, encoder, key), galois_keys=galois,
        )
        assert server.packed_capacity == 128 > batch.DEFAULT_CACHE_BLOCKS
        nonce, counters = 2**45 + 17, list(range(128))
        messages = np.random.default_rng(4).integers(0, P, size=(128, PASTA_MICRO.t))
        keystream = batch.KeystreamEngine(PASTA_MICRO, cache_size=0).keystream_pairs(
            key, [(nonce, c) for c in counters]
        )
        blocks = ((messages + keystream) % P).tolist()
        return scheme, sk, encoder, server, nonce, counters, messages.tolist(), blocks

    def test_a_group_larger_than_the_lru_is_derived_once(self, wide, monkeypatch):
        """One 128-block call derives each block's materials once: 128
        lanes, where re-reading the LRU per layer side derived 704; and
        every layer's matrices in one batched pass."""
        scheme, sk, encoder, server, nonce, counters, messages, blocks = wide
        lanes, matrices = _counting_derivations(monkeypatch)
        result = server.transcipher_blocks(blocks, nonce, counters)
        assert sum(lanes) == 128
        assert matrices == [2 * (PASTA_MICRO.rounds + 1) * 128]
        assert decrypt_batched_result(scheme, sk, encoder, result) == messages

    def test_a_fully_cached_call_derives_nothing(self, wide, monkeypatch):
        """Repeating a (nonce, counters) whose prepared plaintexts are all
        cached derives no block materials and no matrices."""
        scheme, sk, encoder, server, nonce, counters, messages, blocks = wide
        server.transcipher_blocks(blocks, nonce, counters)
        lanes, matrices = _counting_derivations(monkeypatch)
        result = server.transcipher_blocks(blocks, nonce, counters)
        assert (lanes, matrices) == ([], [])
        assert decrypt_batched_result(scheme, sk, encoder, result) == messages

    def test_a_group_schedule_is_dropped_once_its_layers_are_prepared(
        self, ctx, galois, monkeypatch
    ):
        """Three packed groups: when a group's schedule is derived, every
        earlier group's has been released, so a call holds at most one
        schedule however many blocks it carries."""
        import weakref

        scheme, sk, _, _, encoder = ctx
        key = random_key(PASTA_MICRO, b"schedule-drop")
        server = _server(ctx, galois, key)
        derive = server._schedule
        released = []

        def tracking(nonce, counters):
            assert all(ref() is None for ref in released)
            materials, matrices = derive(nonce, counters)
            released.append(weakref.ref(matrices))
            return materials, matrices

        monkeypatch.setattr(server, "_schedule", tracking)
        n_blocks = 2 * server.packed_capacity + 1
        cipher = Pasta(PASTA_MICRO, key)
        messages = np.random.default_rng(5).integers(0, P, size=(n_blocks, PASTA_MICRO.t))
        blocks = [
            [int(x) for x in cipher.encrypt_block(m.tolist(), nonce=41, counter=c)]
            for c, m in enumerate(messages)
        ]
        result = server.transcipher_blocks(blocks, 41, list(range(n_blocks)))
        assert len(released) == 3
        assert all(ref() is None for ref in released)
        assert decrypt_batched_result(scheme, sk, encoder, result) == messages.tolist()
