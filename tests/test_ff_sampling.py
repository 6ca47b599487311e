"""Tests for the rejection sampler (the XOF front-end's accept/reject rule)."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ff import P17, P33, RejectionSampler

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestCandidate:
    def test_mask_bits_17(self):
        sampler = RejectionSampler(P17)
        assert sampler.mask_bits == 17
        assert sampler.mask == 0x1FFFF

    def test_accepts_below_p(self):
        sampler = RejectionSampler(P17)
        value, ok = sampler.candidate(65536)
        assert ok and value == 65536

    def test_rejects_at_and_above_p(self):
        sampler = RejectionSampler(P17)
        _, ok = sampler.candidate(P17)
        assert not ok
        _, ok = sampler.candidate(0x1FFFF)
        assert not ok

    def test_masks_high_bits(self):
        sampler = RejectionSampler(P17)
        value, ok = sampler.candidate((1 << 40) | 5)
        assert ok and value == 5

    def test_min_value_rejects_zero(self):
        sampler = RejectionSampler(P17)
        _, ok = sampler.candidate(1 << 20, min_value=1)  # masks to 0
        assert not ok
        _, ok = sampler.candidate(1, min_value=1)
        assert ok

    @given(U64)
    def test_candidate_in_range_when_accepted(self, word):
        sampler = RejectionSampler(P17)
        value, ok = sampler.candidate(word)
        if ok:
            assert 0 <= value < P17


class TestCandidatesBatchWidth:
    """The batched mask runs in its words' dtype; for ``mask_bits <= 32`` the
    low 32-bit halves of the little-endian words decide exactly as the
    whole 64-bit words do."""

    @given(
        st.integers(min_value=2, max_value=(1 << 32) - 1),
        st.lists(U64, min_size=1, max_size=200),
        st.sampled_from([0, 1]),
    )
    def test_uint32_halves_match_uint64_words(self, p, words, min_value):
        sampler = RejectionSampler(p)
        assert sampler.mask_bits <= 32
        wide = np.array(words, dtype="<u8")
        values64, ok64 = sampler.candidates_batch(wide, min_value)
        values32, ok32 = sampler.candidates_batch(wide.view("<u4")[::2], min_value)
        assert values64.dtype == np.uint64 and values32.dtype == np.uint32
        assert np.array_equal(values32, values64)
        assert np.array_equal(ok32, ok64)

    def test_narrow_or_signed_words_refused(self):
        with pytest.raises(ParameterError, match="33-bit"):
            RejectionSampler(P33).candidates_batch(np.zeros(4, dtype=np.uint32))
        with pytest.raises(ParameterError):
            RejectionSampler(P17).candidates_batch(np.zeros(4, dtype=np.int64))
        values, ok = RejectionSampler(P33).candidates_batch(np.zeros(4, dtype=np.uint64))
        assert values.dtype == np.uint64 and ok.all()


class TestAcceptanceProbability:
    def test_p17_near_half(self):
        sampler = RejectionSampler(P17)
        assert abs(sampler.acceptance_probability - 0.5) < 1e-4
        assert abs(sampler.expected_words_per_element - 2.0) < 1e-3

    def test_p33_near_one(self):
        sampler = RejectionSampler(P33)
        assert sampler.acceptance_probability > 0.99


class TestSample:
    def test_deterministic_from_stream(self):
        sampler = RejectionSampler(P17)
        words = list(range(1000, 1050))
        out1, stats1 = sampler.sample(iter(words), 10)
        out2, stats2 = sampler.sample(iter(words), 10)
        assert out1 == out2
        assert stats1.accepted == 10 == stats2.accepted

    def test_rejection_counted(self):
        sampler = RejectionSampler(P17)
        # alternate rejected (0x1FFFF) and accepted (5) words
        words = itertools.cycle([0x1FFFF, 5])
        out, stats = sampler.sample(words, 4)
        assert out == [5, 5, 5, 5]
        assert stats.rejected == 4
        assert stats.words_consumed == 8
        assert stats.acceptance_rate == 0.5

    def test_min_value_filters_zero(self):
        sampler = RejectionSampler(P17)
        words = itertools.cycle([0, 7])
        out, stats = sampler.sample(words, 3, min_value=1)
        assert out == [7, 7, 7]
        assert stats.rejected == 3

    def test_empirical_rate_p17(self):
        """Measured acceptance over a pseudo-random stream ~ 1/2 (paper: ~2x)."""
        from repro.keccak import shake128

        sampler = RejectionSampler(P17)
        _, stats = sampler.sample(shake128(b"rate-test").words(), 2000)
        assert 0.45 < stats.acceptance_rate < 0.55

    def test_invalid_modulus(self):
        with pytest.raises(ParameterError):
            RejectionSampler(1)
