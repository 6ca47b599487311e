"""Unit tests for repro.utils (bit helpers, table rendering, allocator policy)."""

import platform
import resource

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.utils import memory
from repro.utils.bits import bit_length_mask, bytes_to_words_le, rotl64, words_to_bytes_le
from repro.utils.tables import format_table

GLIBC = platform.libc_ver()[0] == "glibc"

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestRotl64:
    def test_zero_amount_is_identity(self):
        assert rotl64(0x0123456789ABCDEF, 0) == 0x0123456789ABCDEF

    def test_full_rotation_is_identity(self):
        assert rotl64(0xDEADBEEF, 64) == 0xDEADBEEF

    def test_single_bit(self):
        assert rotl64(1, 1) == 2
        assert rotl64(1 << 63, 1) == 1

    def test_known_value(self):
        assert rotl64(0x8000000000000001, 4) == 0x0000000000000018

    @given(U64, st.integers(min_value=0, max_value=200))
    def test_inverse_rotation(self, value, amount):
        assert rotl64(rotl64(value, amount), 64 - (amount % 64)) == value

    @given(U64, st.integers(min_value=0, max_value=63))
    def test_preserves_popcount(self, value, amount):
        assert bin(rotl64(value, amount)).count("1") == bin(value).count("1")


class TestBitLengthMask:
    def test_zero(self):
        assert bit_length_mask(0) == 0

    def test_17_bits(self):
        assert bit_length_mask(17) == 0x1FFFF

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bit_length_mask(-1)


class TestWordConversion:
    def test_roundtrip_simple(self):
        words = [1, 2, (1 << 64) - 1]
        assert bytes_to_words_le(words_to_bytes_le(words)) == words

    def test_little_endian_order(self):
        assert bytes_to_words_le(b"\x01" + b"\x00" * 7) == [1]

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            bytes_to_words_le(b"\x00" * 7)

    def test_word_out_of_range_raises(self):
        with pytest.raises(ValueError):
            words_to_bytes_le([1 << 64])

    @given(st.lists(U64, max_size=20))
    def test_roundtrip_property(self, words):
        assert bytes_to_words_le(words_to_bytes_le(words)) == words


class TestFormatTable:
    def test_basic_shape(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text
        # all body lines share the same width
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_float_rendering_trims_zeros(self):
        text = format_table(["x"], [[1.5000]])
        assert "1.5 " in text or "| 1.5" in text

    def test_int_thousands_separator(self):
        assert "65,468" in format_table(["x"], [[65468]])


class TestCacheBudget:
    def _budget(self, capacity=4.0):
        from repro.utils.budget import CacheBudget

        return CacheBudget(capacity)

    def test_charge_release_accounting(self):
        budget = self._budget()
        budget.register("a", lambda: 0.0)
        budget.charge("a", 3.0)
        assert budget.usage("a") == 3.0
        budget.release("a", 1.0)
        assert budget.usage("a") == 2.0
        budget.release("a", 100.0)  # floors at zero
        assert budget.usage("a") == 0.0

    def test_rebalance_evicts_from_largest_owner(self):
        from repro.utils.budget import BudgetedLru

        budget = self._budget(3.0)
        small = BudgetedLru("small", budget)
        big = BudgetedLru("big", budget)
        small.get_or_create("s1", lambda: 1)
        big.get_or_create("b1", lambda: 1)
        big.get_or_create("b2", lambda: 1)
        big.get_or_create("b3", lambda: 1)  # pushes total to 4 > 3
        assert budget.total <= 3.0
        assert len(small) == 1, "fair-share resident evicted"
        assert len(big) == 2

    def test_stale_claim_zeroed_instead_of_spinning(self):
        budget = self._budget(1.0)
        budget.register("ghost", lambda: 0.0)  # evictor that can't free
        budget.charge("ghost", 5.0)  # would loop forever pre-fix
        assert budget.usage("ghost") == 0.0

    def test_invalid_inputs(self):
        from repro.errors import ParameterError
        from repro.utils.budget import CacheBudget

        with pytest.raises(ParameterError):
            CacheBudget(0)
        budget = CacheBudget(1)
        with pytest.raises(ParameterError):
            budget.charge("a", -1.0)


class TestBudgetedLru:
    def test_lru_contract_and_costing(self):
        from repro.utils.budget import BudgetedLru, CacheBudget

        budget = CacheBudget(10.0)
        calls = []

        def factory(key):
            def build():
                calls.append(key)
                return key * 2
            return build

        lru = BudgetedLru("o", budget, cost_of=lambda k, v: 2.0)
        assert lru.get_or_create(1, factory(1)) == 2
        assert lru.get_or_create(1, factory(1)) == 2  # cached: factory not re-run
        assert calls == [1]
        assert lru.cache_info()["hits"] == 1
        assert budget.usage("o") == 2.0

    def test_local_maxsize_applies_before_budget(self):
        from repro.utils.budget import BudgetedLru, CacheBudget

        budget = CacheBudget(100.0)
        lru = BudgetedLru("o", budget, maxsize=2)
        for i in range(5):
            lru.get_or_create(i, lambda i=i: i)
        assert len(lru) == 2
        assert budget.usage("o") == 2.0
        assert 4 in lru and 3 in lru  # newest survive

    def test_clear_returns_cost_to_budget(self):
        from repro.utils.budget import BudgetedLru, CacheBudget

        budget = CacheBudget(10.0)
        lru = BudgetedLru("o", budget, cost_of=lambda k, v: 3.0)
        lru.get_or_create("x", lambda: 1)
        assert budget.usage("o") == 3.0
        lru.clear()
        assert budget.usage("o") == 0.0
        assert len(lru) == 0


class TestAllocatorPolicy:
    @pytest.mark.skipif(not GLIBC, reason="the policy is glibc's mallopt")
    def test_import_applied_the_policy(self):
        assert repro.ALLOCATOR_POLICY_APPLIED is True
        assert memory.apply_allocator_policy() is True  # idempotent

    @pytest.mark.skipif(not GLIBC, reason="the policy is glibc's mallopt")
    def test_warmed_client_frame_takes_no_faults(self):
        """One packed QQVGA frame per call, each on a fresh nonce: after
        three warm-up frames the heap a frame frees serves the next one, so
        its buffers are not faulted in again (about 2,600 faults a frame
        without the policy)."""
        from repro.apps.video import QQVGA, synthetic_frames_batch
        from repro.pasta import PASTA_4, Pasta, random_key
        from repro.service.pipeline import pack_frames

        elements = pack_frames(synthetic_frames_batch(QQVGA, [29]), PASTA_4.p)[0]
        cipher = Pasta(PASTA_4, random_key(PASTA_4, b"fault-budget"))
        faults = []
        for nonce in range(3 + 5):
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            cipher.encrypt(elements, nonce)
            faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
        assert max(faults[3:]) < 50, faults

    @pytest.mark.parametrize("mallopt", [None, lambda param, value: 0], ids=["missing", "refused"])
    def test_without_mallopt_nothing_changes(self, monkeypatch, mallopt):
        """No ``mallopt`` (macOS, Windows) or one that refuses every value:
        the policy reports False and sets nothing else."""
        looked_up = []

        class CLibrary:
            def __getattr__(self, name):
                looked_up.append(name)
                if mallopt is None:
                    raise AttributeError(name)
                return mallopt

        monkeypatch.setattr(memory.ctypes, "CDLL", lambda name: CLibrary())
        assert memory.apply_allocator_policy() is False
        assert looked_up == ["mallopt"]

    def test_thread_minor_faults(self, monkeypatch):
        if hasattr(resource, "RUSAGE_THREAD"):
            assert memory.thread_minor_faults() >= 0
        monkeypatch.setattr(memory, "getrusage", None)
        assert memory.thread_minor_faults() is None
