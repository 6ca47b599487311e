"""Batched keystream engine vs the scalar golden model (bit-exactness).

Every value the batch path produces — sampler decisions, block materials,
sampler statistics, permutation counts, matrices, keystream words — must be
word-for-word identical to the scalar reference in
:mod:`repro.pasta.cipher`. These tests enforce that, plus the LRU cache
semantics and the nonce-reuse guard that rides along in this change.
"""

import hashlib
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.video import QQVGA, synthetic_frames_batch
from repro.errors import ParameterError
from repro.ff.sampling import RejectionSampler, SamplerStats
from repro.keccak.vectorized import BatchedShake
from repro.pasta import (
    PASTA_3,
    PASTA_4,
    PASTA_4_33,
    PASTA_4_54,
    PASTA_MICRO,
    PASTA_TOY,
    KeystreamEngine,
    Pasta,
    PastaParams,
    batched_sequential_matrices,
    generate_block_materials,
    generate_block_materials_batch,
    generate_block_materials_pairs,
    random_key,
)
from repro.pasta.batch import _digest_blocks, _rank, _sample_lanes
from repro.pasta.matgen import generate_matrix
from repro.pasta.xof import encode_block_seed
from repro.service.pipeline import pack_frames


def _assert_materials_equal(batched, scalar):
    assert batched.params == scalar.params
    assert batched.nonce == scalar.nonce
    assert batched.counter == scalar.counter
    assert batched.stats == scalar.stats
    assert batched.permutations == scalar.permutations
    for bl, sl in zip(batched.layers, scalar.layers):
        for name in ("alpha_l", "alpha_r", "rc_l", "rc_r"):
            b, s = getattr(bl, name), getattr(sl, name)
            assert b.dtype == s.dtype
            assert [int(x) for x in b] == [int(x) for x in s]


def _xof_words(params, nonce, counter):
    """Block (nonce, counter)'s XOF words from hashlib, far past any demand
    (``tests/test_keccak_vectorized.py`` pins them to the scalar sponge)."""
    seed = encode_block_seed(params, nonce, counter)
    raw = hashlib.shake_128(seed).digest(32 * params.coefficients_per_block)
    return np.frombuffer(raw, dtype="<u8")


def _zero_rerank_counters(params, nonce, counters):
    """Counters whose lane the one-pass sampler must re-rank: ranking the
    accepted words with zero allowed puts a zero candidate in an alpha slot."""
    slots = params.coefficients_per_block
    alpha_slot = np.arange(slots) // params.t % 4 < 2
    found = []
    for counter in counters:
        values = _xof_words(params, nonce, counter) & np.uint64(params.sampler.mask)
        ranked = values[values < params.p][:slots]
        if np.any(ranked[alpha_slot] == 0):
            found.append(counter)
    return found


class TestBatchedSampler:
    @given(
        st.integers(min_value=2, max_value=1 << 40),
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=200),
        st.sampled_from([0, 1]),
    )
    def test_candidates_batch_matches_scalar_decisions(self, p, words, min_value):
        sampler = RejectionSampler(p)
        values, ok = sampler.candidates_batch(np.array(words, dtype=np.uint64), min_value)
        for i, word in enumerate(words):
            value, accepted = sampler.candidate(word, min_value)
            assert int(values[i]) == value
            assert bool(ok[i]) == accepted

    @given(
        st.integers(min_value=2, max_value=1 << 40),
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=8, max_size=300),
        st.sampled_from([0, 1]),
    )
    def test_stats_match_scalar_sample(self, p, words, min_value):
        """Accept/reject statistics equal the scalar sampler's word-for-word."""
        sampler = RejectionSampler(p)
        values, ok = sampler.candidates_batch(np.array(words, dtype=np.uint64), min_value)
        n_accepted = int(np.count_nonzero(ok))
        if n_accepted == 0:
            return
        count = min(n_accepted, 5)
        scalar_values, stats = sampler.sample(iter(words), count, min_value)
        idx = np.flatnonzero(ok)[:count]
        assert [int(v) for v in values[idx]] == scalar_values
        assert stats.accepted == count
        assert stats.rejected == int(idx[-1]) + 1 - count


class TestBatchedMaterials:
    @pytest.mark.parametrize("params", [PASTA_TOY, PASTA_4, PASTA_4_33])
    def test_bit_exact_with_scalar(self, params):
        counters = [0, 1, 5]
        batched = generate_block_materials_batch(params, nonce=3, counters=counters)
        for materials, counter in zip(batched, counters):
            _assert_materials_equal(materials, generate_block_materials(params, 3, counter))

    def test_empty_counter_list(self):
        assert generate_block_materials_batch(PASTA_TOY, 0, []) == []

    def test_batch_size_does_not_change_values(self):
        alone = generate_block_materials_batch(PASTA_TOY, 1, [4])[0]
        in_batch = generate_block_materials_batch(PASTA_TOY, 1, [2, 4, 9])[1]
        _assert_materials_equal(in_batch, alone)


class TestBatchedMatrices:
    @pytest.mark.parametrize("params", [PASTA_TOY, PASTA_4_33])
    def test_matches_scalar_generate_matrix(self, params):
        materials = generate_block_materials_batch(params, 0, [0, 1])
        alphas = np.stack([m.layers[0].alpha_l for m in materials])
        batch = batched_sequential_matrices(params, alphas)
        for n, m in enumerate(materials):
            expected = generate_matrix(params.field, m.layers[0].alpha_l)
            assert np.array_equal(np.asarray(batch[n]), np.asarray(expected))


class TestKeystreamEngine:
    def test_keystream_bit_exact(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        engine = KeystreamEngine(PASTA_TOY)
        ks = engine.keystream_blocks(cipher.key, nonce=7, counter0=2, n_blocks=5)
        assert ks.shape == (5, PASTA_TOY.t)
        for i in range(5):
            expected = cipher.keystream_block(7, 2 + i)
            assert [int(x) for x in ks[i]] == [int(x) for x in expected]

    @pytest.mark.parametrize("params", [PASTA_4_33, PASTA_4_54], ids=lambda p: p.name)
    def test_keystream_object_dtype_params(self, params):
        key = random_key(params)
        cipher = Pasta(params, key)
        engine = KeystreamEngine(params)
        ks = engine.keystream_blocks(key, nonce=0, counter0=0, n_blocks=2)
        for i in range(2):
            expected = cipher.keystream_block(0, i)
            assert [int(x) for x in ks[i]] == [int(x) for x in expected]

    def test_qqvga_frame_against_scalar_cipher(self, pasta4_key):
        """A whole packed QQVGA frame (300 PASTA-4 blocks) in one encrypt:
        first, last and two middle blocks against the scalar cipher, and
        every block whose lane took the zero re-rank (nonce 7 has two)."""
        pixels = synthetic_frames_batch(QQVGA, [17])
        elements = pack_frames(pixels, PASTA_4.p)[0]
        cipher = Pasta(PASTA_4, pasta4_key)
        nonce = 7
        ciphertext = cipher.encrypt(elements, nonce=nonce)
        t = PASTA_4.t
        assert len(elements) == 300 * t
        rerank = _zero_rerank_counters(PASTA_4, nonce, range(300))
        assert rerank
        for counter in (0, 137, 211, 299, *rerank):
            block = slice(counter * t, (counter + 1) * t)
            keystream = cipher.keystream_block(nonce, counter)
            expected = (elements[block] + keystream) % PASTA_4.p
            assert [int(x) for x in ciphertext[block]] == [int(x) for x in expected]

    def test_frame_is_one_sampling_pass(self, pasta4_key):
        """A 300-block keystream masks its words in one ``candidates_batch``
        call, re-rank lanes included; per-draw passes would make 20."""
        engine = KeystreamEngine(PASTA_4, cache_size=0)
        assert _zero_rerank_counters(PASTA_4, 7, range(300))
        with mock.patch.object(
            RejectionSampler, "candidates_batch", autospec=True,
            side_effect=RejectionSampler.candidates_batch,
        ) as calls:
            engine.keystream_pairs(pasta4_key, [(7, c) for c in range(300)])
        assert calls.call_count == 1

    def test_zero_blocks(self):
        engine = KeystreamEngine(PASTA_TOY)
        assert engine.keystream_blocks(random_key(PASTA_TOY), 0, 0, 0).shape == (0, PASTA_TOY.t)

    def test_pasta_keystream_blocks_api(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        ks = cipher.keystream_blocks(nonce=1, counter0=0, n_blocks=3)
        for i in range(3):
            assert [int(x) for x in ks[i]] == [int(x) for x in cipher.keystream_block(1, i)]

    def test_cache_hits_and_misses(self):
        engine = KeystreamEngine(PASTA_TOY, cache_size=8)
        engine.materials(0, range(4))
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 4, 4)
        engine.materials_pairs([(0, c) for c in range(4)])
        info = engine.cache_info()
        assert (info.hits, info.misses) == (4, 4)
        engine.materials(0, range(2, 6))  # counters 2-5: two hits, two misses
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size) == (6, 6, 6)
        # The keystream path derives fresh and leaves the LRU alone.
        engine.keystream_blocks(random_key(PASTA_TOY), 0, 0, 4)
        assert engine.cache_info() == info

    def test_cache_eviction_lru(self):
        engine = KeystreamEngine(PASTA_TOY, cache_size=2)
        engine.materials(0, [0])
        engine.materials(0, [1])
        engine.materials(0, [0])  # refresh 0 -> 1 is now least recent
        engine.materials(0, [2])  # evicts 1
        assert engine.cache_info().size == 2
        engine.materials(0, [0, 2])
        assert engine.cache_info().hits >= 3
        misses_before = engine.cache_info().misses
        engine.materials(0, [1])  # was evicted -> re-derived
        assert engine.cache_info().misses == misses_before + 1

    def test_cache_size_zero_disables_caching(self):
        engine = KeystreamEngine(PASTA_TOY, cache_size=0)
        engine.materials(0, [0])
        engine.materials(0, [0])
        info = engine.cache_info()
        assert info.size == 0
        assert info.misses == 2

    def test_cached_results_stay_bit_exact(self, toy_key):
        """A warm cache must return the same keystream as a cold engine."""
        cipher = Pasta(PASTA_TOY, toy_key)
        warm = KeystreamEngine(PASTA_TOY, cache_size=16)
        first = warm.keystream_blocks(cipher.key, 5, 0, 4)
        second = warm.keystream_blocks(cipher.key, 5, 0, 4)
        assert np.array_equal(np.asarray(first), np.asarray(second))
        cold = KeystreamEngine(PASTA_TOY, cache_size=0)
        assert np.array_equal(
            np.asarray(cold.keystream_blocks(cipher.key, 5, 0, 4)), np.asarray(first)
        )

    def test_matrix_accessors_match_scalar(self):
        engine = KeystreamEngine(PASTA_TOY)
        scalar = generate_block_materials(PASTA_TOY, 1, 2)
        for layer in range(PASTA_TOY.affine_layers):
            ml = engine.matrix(1, 2, layer, "l")
            mr = engine.matrix(1, 2, layer, "r")
            assert np.array_equal(
                np.asarray(ml), np.asarray(generate_matrix(PASTA_TOY.field, scalar.layers[layer].alpha_l))
            )
            assert np.array_equal(
                np.asarray(mr), np.asarray(generate_matrix(PASTA_TOY.field, scalar.layers[layer].alpha_r))
            )

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ParameterError):
            KeystreamEngine(PASTA_TOY, cache_size=-1)

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=6))
    def test_keystream_hypothesis(self, counter0, n_blocks):
        key = random_key(PASTA_TOY)
        cipher = Pasta(PASTA_TOY, key)
        engine = KeystreamEngine(PASTA_TOY, cache_size=0)
        ks = engine.keystream_blocks(key, 11, counter0, n_blocks)
        for i in range(n_blocks):
            expected = cipher.keystream_block(11, counter0 + i)
            assert [int(x) for x in ks[i]] == [int(x) for x in expected]


#: A 5-bit prime: 1 in 32 masked words is a zero candidate, which every
#: alpha draw must reject (at p = 65537 that happens once per 2^17 words).
PASTA_P17 = PastaParams(name="pasta-p17", t=4, rounds=2, p=17, secure=False)


class _WordSource:
    """Hand-built lane words standing in for ``BatchedShake``: the first
    ``digested`` blocks are readable ahead of the squeezes, and ``extend``
    doubles them."""

    def __init__(self, lanes: np.ndarray, rate_words: int, digested: int):
        self.lanes = lanes
        self.rate_words = rate_words
        self.digested = digested
        self.extends = 0
        self.squeezed = 0

    def digested_words(self) -> np.ndarray:
        return self.lanes[:, : self.digested * self.rate_words]

    def extend(self) -> None:
        self.digested *= 2
        self.extends += 1
        assert self.digested * self.rate_words <= self.lanes.shape[1]

    def squeeze_words_block(self) -> None:
        self.squeezed += 1
        assert self.squeezed <= self.digested


class _CountingSampler(RejectionSampler):
    """Counts ``candidates_batch`` passes."""

    passes = 0

    def candidates_batch(self, words, min_value=0):
        self.passes += 1
        return super().candidates_batch(words, min_value)


def _full_buffer_blocks(lanes, draws, count, sampler, rate_words, blocks):
    """Blocks a full-buffer scan squeezes: grow one block while any lane
    has fewer than ``count`` accepted words left in the buffer."""
    pos = [0] * len(lanes)
    for min_value in draws:
        while any(
            sum(sampler.candidate(w, min_value)[1] for w in lane[pos[i] : blocks * rate_words])
            < count
            for i, lane in enumerate(lanes)
        ):
            blocks += 1
        for i, lane in enumerate(lanes):
            taken = 0
            while taken < count:
                taken += sampler.candidate(lane[pos[i]], min_value)[1]
                pos[i] += 1
    return blocks


#: Every parameter set the batched sampler serves: both field widths, the
#: object-dtype variants, the HHE shapes and a 5-bit prime.
SAMPLER_PARAMS = [PASTA_3, PASTA_4, PASTA_4_33, PASTA_4_54, PASTA_MICRO, PASTA_TOY, PASTA_P17]


class TestRareSamplerBranches:
    """Zero candidates in alpha slots, re-digests, and the squeeze count."""

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8)
    def test_five_bit_prime_matches_scalar(self, lanes, seed):
        """Every lane's materials and keystream equal the scalar cipher's.
        The first lane's scalar materials come from the pure-Python sponge,
        the others' from the hashlib words that
        ``tests/test_keccak_vectorized.py`` pins to it."""
        params = PASTA_P17
        rng = np.random.default_rng(seed)
        pairs = [(int(n), int(c)) for n, c in rng.integers(0, 2**63, size=(lanes, 2))]
        key = random_key(params, b"p17|%d" % seed)
        cipher = Pasta(params, key)
        batched = generate_block_materials_pairs(params, pairs)
        keystream = KeystreamEngine(params, cache_size=0).keystream_pairs(key, pairs)
        for lane, ((nonce, counter), materials, row) in enumerate(zip(pairs, batched, keystream)):
            words = None if lane == 0 else iter(_xof_words(params, nonce, counter).tolist())
            scalar = generate_block_materials(params, nonce, counter, words=words)
            _assert_materials_equal(materials, scalar)
            expected = cipher.keystream_block(nonce, counter, materials=scalar)
            assert [int(x) for x in row] == [int(x) for x in expected]

    @pytest.mark.parametrize("params", SAMPLER_PARAMS, ids=lambda p: p.name)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=4)
    def test_one_pass_matches_scalar_sampler(self, params, lanes, seed):
        """Every lane's materials, statistics and permutations equal the
        scalar derivation over the same words, and the stream squeezes what
        on-demand squeezing after the pre-squeeze would."""
        rng = np.random.default_rng(seed)
        nonce = int(rng.integers(0, 2**63))
        counters = [int(c) for c in rng.integers(0, 2**63, size=lanes)]
        with mock.patch.object(
            BatchedShake, "squeeze_words_block", autospec=True,
            side_effect=BatchedShake.squeeze_words_block,
        ) as squeezes:
            batched = generate_block_materials_batch(params, nonce, counters)
        for counter, materials in zip(counters, batched):
            words = iter(_xof_words(params, nonce, counter).tolist())
            scalar = generate_block_materials(params, nonce, counter, words=words)
            _assert_materials_equal(materials, scalar)
        expected_words = params.coefficients_per_block * params.sampler.expected_words_per_element
        presqueezed = max(1, int(np.ceil(expected_words * 1.05 / 21)))
        longest = max(m.permutations for m in batched)
        assert squeezes.call_count == max(presqueezed, longest)

    def test_hand_built_stream(self):
        """A zero candidate in an alpha slot is rejected and one in an rc
        slot of the same lane accepted; a second zero that the first one's
        rejection shifts into an alpha slot is rejected too; a lane short of
        the digest re-digests twice; the stream squeezes what a full-buffer
        scan would."""
        rate_words, t, layers = 4, 2, 1
        zero = (1 << 40) | 32  # masks to the zero candidate
        reject = 31  # >= p after masking
        filler = [7] * 32
        lanes = [
            # alpha_L 3, 4 (the zero is rejected), alpha_R 5, 6, rc_L 0, 7.
            ([3, zero, 4, 5, 6, zero] + filler)[:32],
            # Ranked with zero allowed, the second zero is rc_L's first
            # word; once the first zero is rejected it is alpha_R's second.
            ([1, zero, 2, 3, zero] + filler)[:32],
            # 18 words: past the two digested blocks and past four.
            ([reject] * 10 + filler)[:32],
        ]
        source = _WordSource(np.array(lanes, dtype=np.uint64), rate_words, digested=2)
        sampler = _CountingSampler(17)
        values, consumed = _sample_lanes(source, sampler, t, layers, blocks=1)

        draws = (1, 1, 0, 0)  # alpha_L, alpha_R, rc_L, rc_R
        for i, lane in enumerate(lanes):
            words = iter(lane)
            used = 0
            for vector, min_value in enumerate(draws):
                expected, stats = sampler.sample(words, t, min_value)
                assert [int(v) for v in values[i, 0, vector]] == expected
                used += stats.words_consumed
            assert int(consumed[i]) == used
        assert values[0, 0, 0].tolist() == [3, 4] and values[0, 0, 2].tolist() == [0, 7]
        assert values[1, 0, 1].tolist() == [3, 7] and consumed.tolist() == [9, 10, 18]
        assert source.extends == 2 and sampler.passes == 3
        assert source.squeezed == _full_buffer_blocks(
            lanes, draws, t, sampler, rate_words, blocks=1
        ) == 5


class TestSamplingWidth:
    """The 17-bit sets mask and rank the low 32-bit halves of their digest
    words, and each lane's digest is sized from its demand's spread."""

    def test_32_bit_sampling_matches_64_bit(self):
        """Values, consumed words, statistics and permutations are the
        64-bit ranking's, on the zero re-rank lanes too."""
        params, nonce = PASTA_4, 7
        rerank = _zero_rerank_counters(params, nonce, range(300))
        assert rerank
        counters = [0, 1, 299, *rerank]
        _, digested = _digest_blocks(params)
        wide = np.stack([_xof_words(params, nonce, c)[: digested * 21] for c in counters])
        alpha_slot = np.arange(params.coefficients_per_block) // params.t % 4 < 2
        sampler = params.sampler
        values64, consumed64 = _rank(*sampler.candidates_batch(wide, 0), alpha_slot)
        narrow = wide.view("<u4")[:, ::2]
        values32, consumed32 = _rank(*sampler.candidates_batch(narrow, 0), alpha_slot)
        assert values64.dtype == np.uint64 and values32.dtype == np.uint32
        assert np.array_equal(values32, values64)
        assert np.array_equal(consumed32, consumed64)

        with mock.patch.object(
            RejectionSampler, "candidates_batch", autospec=True,
            side_effect=RejectionSampler.candidates_batch,
        ) as calls:
            materials = generate_block_materials_pairs(params, [(nonce, c) for c in counters])
        assert calls.call_args.args[1].dtype == np.uint32
        accepted = params.coefficients_per_block
        for lane, m in enumerate(materials):
            sampled = [
                v for layer in m.layers for v in (layer.alpha_l, layer.alpha_r, layer.rc_l, layer.rc_r)
            ]
            assert np.concatenate(sampled).tolist() == values64[lane].tolist()
            consumed = int(consumed64[lane])
            assert m.stats == SamplerStats(accepted=accepted, rejected=consumed - accepted)
            assert m.permutations == -(-consumed // 21)

    def test_digest_size_covers_a_frame(self):
        """PASTA-4 digests 70 blocks a lane (61 on average), and a 300-lane
        frame finds some lane short of them with probability below 1e-4:
        a lane needs more than n words when n words hold fewer than k
        accepted ones, P(Binomial(n, p / 2^17) < k), summed exactly."""
        params = PASTA_4
        assert _digest_blocks(params) == (64, 70)
        n, k, p, span = 70 * 21, params.coefficients_per_block, params.p, 1 << 17
        short = Fraction(
            sum(comb(n, j) * p**j * (span - p) ** (n - j) for j in range(k)), span**n
        )
        assert 300 * short < Fraction(1, 10**4)

    def test_large_derivation_digests_once(self):
        """2,400 PASTA-4 lanes fit in their first digest, and the stream
        squeezes the lockstep count the 1.05x-plus-an-eighth digest gave:
        67 blocks, set by the longest lane."""
        pairs = [(11, c) for c in range(2400)]
        with mock.patch.object(
            BatchedShake, "extend", autospec=True, side_effect=BatchedShake.extend
        ) as extends, mock.patch.object(
            BatchedShake, "squeeze_words_block", autospec=True,
            side_effect=BatchedShake.squeeze_words_block,
        ) as squeezes:
            materials = generate_block_materials_pairs(PASTA_4, pairs)
        assert extends.call_count == 0
        assert squeezes.call_count == 67 == max(m.permutations for m in materials)


class TestConcurrentAccess:
    """One engine may serve several threads at once.

    Before the lock, interleaved ``move_to_end`` / ``popitem`` calls could
    corrupt the LRU order, raise KeyError mid-eviction, or lose counter
    increments. The regression: many barrier-started threads hammering
    overlapping schedules must produce exact keystreams and consistent
    cache accounting (the LRU serves ``materials_pairs``; the keystream
    path never touches it).
    """

    def test_concurrent_keystreams_are_exact(self):
        import threading

        key = random_key(PASTA_TOY, seed=b"threads")
        cipher = Pasta(PASTA_TOY, key)
        engine = KeystreamEngine(PASTA_TOY, cache_size=8)  # smaller than the
        # working set, so eviction churns while other threads look up
        n_threads = 8
        schedules = [
            [(7, (i + k) % 12) for k in range(6)] for i in range(n_threads)
        ]
        expected = {
            pair: [int(x) for x in cipher.keystream_block(*pair)]
            for sched in schedules for pair in sched
        }
        barrier = threading.Barrier(n_threads)
        failures = []

        def worker(sched):
            barrier.wait()
            try:
                for _ in range(5):
                    ks = engine.keystream_pairs(key, sched)
                    for row, pair in zip(ks, sched):
                        if [int(x) for x in row] != expected[pair]:
                            failures.append((pair, [int(x) for x in row]))
                    for m, pair in zip(engine.materials_pairs(sched), sched):
                        if (m.nonce, m.counter) != pair:
                            failures.append((pair, (m.nonce, m.counter)))
            except Exception as exc:  # KeyError from racing eviction, etc.
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in schedules]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
        assert not failures, failures[:3]

        info = engine.cache_info()
        total_lookups = sum(len(s) for s in schedules) * 5
        assert info.hits + info.misses == total_lookups
        assert 0 < info.size <= info.maxsize == 8


class TestNonceReuseGuard:
    def test_reuse_raises(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        cipher.encrypt(list(range(PASTA_TOY.t)), nonce=1)
        with pytest.raises(ParameterError, match="nonce"):
            cipher.encrypt(list(range(PASTA_TOY.t)), nonce=1)

    def test_distinct_nonces_fine(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        cipher.encrypt([1, 2, 3], nonce=1)
        cipher.encrypt([1, 2, 3], nonce=2)

    def test_override_reproduces_ciphertext(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        first = cipher.encrypt([5, 6, 7], nonce=9)
        second = cipher.encrypt([5, 6, 7], nonce=9, allow_nonce_reuse=True)
        assert [int(x) for x in first] == [int(x) for x in second]

    def test_decrypt_not_guarded(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        ct = cipher.encrypt([1, 2, 3], nonce=4)
        assert [int(x) for x in cipher.decrypt(ct, 4)] == [1, 2, 3]
        assert [int(x) for x in cipher.decrypt(ct, 4)] == [1, 2, 3]

    def test_guard_is_per_instance(self, toy_key):
        Pasta(PASTA_TOY, toy_key).encrypt([1], nonce=3)
        Pasta(PASTA_TOY, toy_key).encrypt([1], nonce=3)

    def test_encrypt_block_not_guarded(self, toy_key):
        """The low-level block API stays guard-free (HHE tests drive it)."""
        cipher = Pasta(PASTA_TOY, toy_key)
        msg = list(range(PASTA_TOY.t))
        ct1 = cipher.encrypt_block(msg, 8, 0)
        ct2 = cipher.encrypt_block(msg, 8, 0)
        assert [int(x) for x in ct1] == [int(x) for x in ct2]
