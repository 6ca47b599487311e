"""Batched SHAKE vs the scalar sponge vs hashlib (ground truth).

The batched engine reads its XOF words from :class:`BatchedShake`, which
squeezes every lane with one sized C digest. Each lane must be bit-exact
with the scalar :func:`repro.keccak.shake.shake128` word stream (the
reference oracle, itself cross-checked against FIPS 202 vectors) and with
``hashlib``'s SHAKE128, over hypothesis-generated batch sizes and
messages, including reads past the sized digest.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.keccak import (
    SHAKE128_RATE_BYTES,
    BatchedShake,
    batched_shake128,
    shake128,
)


class TestBatchedShake:
    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BatchedShake(SHAKE128_RATE_BYTES, [])

    def test_rejects_long_seed(self):
        with pytest.raises(ValueError):
            BatchedShake(SHAKE128_RATE_BYTES, [b"x" * SHAKE128_RATE_BYTES])

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BatchedShake(7, [b"x"])

    @given(
        st.lists(st.binary(min_size=0, max_size=SHAKE128_RATE_BYTES - 1), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_scalar_word_stream(self, seeds, blocks):
        batch = batched_shake128(seeds)
        got = np.concatenate(
            [batch.squeeze_words_block() for _ in range(blocks)], axis=1
        )
        for n, seed in enumerate(seeds):
            words = shake128(seed).words()
            expected = [next(words) for _ in range(got.shape[1])]
            assert [int(w) for w in got[n]] == expected

    @given(st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=4))
    def test_matches_hashlib_shake128(self, seeds):
        """Squeezed bytes equal hashlib's SHAKE128 digest for every lane."""
        batch = batched_shake128(seeds)
        words = np.concatenate(
            [batch.squeeze_words_block() for _ in range(2)], axis=1
        )
        for n, seed in enumerate(seeds):
            raw = words[n].astype("<u8").tobytes()
            assert raw == hashlib.shake_128(seed).digest(len(raw))

    @given(
        st.lists(st.binary(min_size=0, max_size=SHAKE128_RATE_BYTES - 1), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=5),
    )
    def test_squeeze_past_sized_digest(self, seeds, sized, extra):
        """Reading past the digest re-digests longer: same words, same cadence."""
        batch = batched_shake128(seeds, sized)
        blocks = sized + extra
        got = np.concatenate([batch.squeeze_words_block() for _ in range(blocks)], axis=1)
        assert got.shape == (len(seeds), blocks * batch.rate_words)
        assert batch.permutation_count == blocks
        for n, seed in enumerate(seeds):
            words = shake128(seed).words()
            assert [int(w) for w in got[n]] == [next(words) for _ in range(got.shape[1])]

    def test_permutation_cadence_matches_scalar(self):
        """One permutation per 21-word block, absorb included — the exact
        count the scalar sponge reports after consuming the same words."""
        batch = batched_shake128([b"a", b"b"])
        assert batch.permutation_count == 1
        batch.squeeze_words_block()
        assert batch.permutation_count == 1  # absorb permutation exposed first
        batch.squeeze_words_block()
        assert batch.permutation_count == 2

        scalar = shake128(b"a")
        words = scalar.words()
        for _ in range(2 * batch.rate_words):
            next(words)
        assert scalar.permutation_count == batch.permutation_count


class TestScalarAgainstHashlib:
    """Anchor the scalar reference itself to hashlib under hypothesis."""

    @given(st.binary(min_size=0, max_size=500), st.integers(min_value=1, max_value=300))
    def test_shake128(self, message, out_len):
        assert shake128(message).read(out_len) == hashlib.shake_128(message).digest(out_len)
