"""Tests for the cycle-accurate accelerator model (keystream + timing)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.hw import PastaAccelerator, XofSamplerUnit, paper_cycle_model
from repro.hw.arith_units import mat_stage_cycles
from repro.keccak import NaiveKeccakCore, OverlappedKeccakCore
from repro.pasta import PASTA_3, PASTA_4, PASTA_TOY, Pasta, random_key


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("nonce,counter", [(0, 0), (42, 3), (99999, 7)])
    def test_pasta4_keystream_matches_reference(self, pasta4_key, nonce, counter):
        reference = Pasta(PASTA_4, pasta4_key).keystream_block(nonce, counter)
        accel = PastaAccelerator(PASTA_4, pasta4_key)
        hw, _ = accel.keystream_block(nonce, counter)
        assert np.array_equal(hw, reference)

    def test_pasta3_keystream_matches_reference(self, pasta3_key):
        reference = Pasta(PASTA_3, pasta3_key).keystream_block(11, 0)
        hw, _ = PastaAccelerator(PASTA_3, pasta3_key).keystream_block(11, 0)
        assert np.array_equal(hw, reference)

    def test_naive_core_same_values_different_timing(self, pasta4_key):
        fast = PastaAccelerator(PASTA_4, pasta4_key, core_cls=OverlappedKeccakCore)
        slow = PastaAccelerator(PASTA_4, pasta4_key, core_cls=NaiveKeccakCore)
        ks_f, rep_f = fast.keystream_block(4, 4)
        ks_s, rep_s = slow.keystream_block(4, 4)
        assert np.array_equal(ks_f, ks_s)
        assert rep_s.total_cycles > rep_f.total_cycles

    def test_encrypt_decrypt_roundtrip(self, pasta4_key):
        accel = PastaAccelerator(PASTA_4, pasta4_key)
        msg = list(range(32))
        ct, _ = accel.encrypt_block(msg, 1, 2)
        pt, _ = accel.decrypt_block(ct, 1, 2)
        assert [int(x) for x in pt] == msg

    def test_encrypt_stream_matches_reference(self, pasta4_key):
        accel = PastaAccelerator(PASTA_4, pasta4_key)
        ref = Pasta(PASTA_4, pasta4_key)
        msg = list(range(70))
        ct, reports = accel.encrypt_stream(msg, nonce=6)
        assert np.array_equal(ct, ref.encrypt(msg, nonce=6))
        assert len(reports) == 3


class TestCycleCounts:
    def test_pasta4_near_paper(self, pasta4_key):
        """Measured cycles within 5% of the paper's 1,591."""
        accel = PastaAccelerator(PASTA_4, pasta4_key)
        avg = accel.average_cycles(range(5))
        assert abs(avg - 1591) / 1591 < 0.05

    def test_pasta3_near_paper(self, pasta3_key):
        """Measured cycles within 8% of the paper's 4,955 (perm-count gap)."""
        accel = PastaAccelerator(PASTA_3, pasta3_key)
        _, rep = accel.keystream_block(0, 0)
        assert abs(rep.total_cycles - 4955) / 4955 < 0.08

    def test_paper_cycle_model_values(self):
        assert paper_cycle_model(PASTA_4, 60) == 1_592
        assert paper_cycle_model(PASTA_3, 186) == 4_964

    def test_tail_is_final_mix(self, pasta4_key):
        _, rep = PastaAccelerator(PASTA_4, pasta4_key).keystream_block(0, 0)
        assert rep.tail_cycles >= PASTA_4.t  # t-cycle tail + vecadd slack

    def test_cycles_vary_with_nonce(self, pasta4_key):
        accel = PastaAccelerator(PASTA_4, pasta4_key)
        counts = {accel.keystream_block(n, 0)[1].total_cycles for n in range(8)}
        assert len(counts) > 1  # rejection sampling makes counts nonce-dependent

    def test_xof_is_bottleneck(self, pasta4_key):
        """Compute units keep pace with the XOF (the paper's design goal)."""
        _, rep = PastaAccelerator(PASTA_4, pasta4_key).keystream_block(3, 0)
        assert rep.total_cycles - rep.xof_last_word_cycle < 2 * PASTA_4.t


class TestReports:
    def test_schedule_consistency(self, pasta4_key):
        _, rep = PastaAccelerator(PASTA_4, pasta4_key).keystream_block(1, 0)
        ok, msg = rep.schedule_ok()
        assert ok, msg

    def test_window_counts(self, pasta4_key):
        _, rep = PastaAccelerator(PASTA_4, pasta4_key).keystream_block(1, 0)
        layers = PASTA_4.affine_layers
        assert len(rep.windows_for("MatGen+MatMul")) == 2 * layers
        assert len(rep.windows_for("VecAdd")) == 2 * layers
        assert len(rep.windows_for("SBox(Feistel)")) == PASTA_4.rounds - 1
        assert len(rep.windows_for("SBox(Cube)")) == 1
        assert len(rep.windows_for("Mix(final)")) == 1

    def test_mat_array_occupancy(self, pasta4_key):
        """The MAC array streams t rows; the tree drain pipelines beyond it."""
        _, rep = PastaAccelerator(PASTA_4, pasta4_key).keystream_block(1, 0)
        for w in rep.windows_for("MatGen+MatMul"):
            assert w.duration == PASTA_4.t
        assert mat_stage_cycles(PASTA_4.t) == PASTA_4.t + 6 + 5  # 6 + t + log2 t

    def test_utilization_fractions(self, pasta4_key):
        _, rep = PastaAccelerator(PASTA_4, pasta4_key).keystream_block(1, 0)
        util = rep.unit_utilization()
        assert 0 < util["MatGen+MatMul"] <= 1.0
        assert all(0 < v <= 1.0 for v in util.values())

    def test_rejection_rate_recorded(self, pasta4_key):
        _, rep = PastaAccelerator(PASTA_4, pasta4_key).keystream_block(1, 0)
        assert 0.4 < rep.rejection_rate < 0.6
        assert rep.words_consumed == rep.words_rejected + PASTA_4.coefficients_per_block

    def test_time_conversions(self, pasta4_key):
        _, rep = PastaAccelerator(PASTA_4, pasta4_key).keystream_block(1, 0)
        assert rep.fpga_us == pytest.approx(rep.total_cycles / 75.0)
        assert rep.asic_us == pytest.approx(rep.total_cycles / 1000.0)


class TestXofSamplerUnit:
    def test_vectors_match_cipher_materials(self):
        from repro.pasta import generate_block_materials

        unit = XofSamplerUnit(PASTA_TOY, 5, 6)
        materials = generate_block_materials(PASTA_TOY, 5, 6)
        alpha_l, _ = unit.next_vector(min_value=1)
        assert np.array_equal(alpha_l, materials.layers[0].alpha_l)

    def test_ready_cycles_increase(self):
        unit = XofSamplerUnit(PASTA_TOY, 1, 1)
        _, c1 = unit.next_vector()
        _, c2 = unit.next_vector()
        assert c2 > c1


class TestValidation:
    def test_wrong_key_size(self):
        with pytest.raises(ParameterError):
            PastaAccelerator(PASTA_4, [1, 2, 3])

    def test_oversized_block(self, pasta4_key):
        accel = PastaAccelerator(PASTA_4, pasta4_key)
        with pytest.raises(ParameterError):
            accel.encrypt_block(list(range(33)), 0, 0)

    def test_average_needs_nonces(self, pasta4_key):
        with pytest.raises(ParameterError):
            PastaAccelerator(PASTA_4, pasta4_key).average_cycles([])
