"""Tests for the PASTA reference cipher: roundtrips, determinism, streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.pasta import (
    PASTA_3,
    PASTA_4,
    PASTA_MICRO,
    PASTA_TOY,
    Pasta,
    generate_block_materials,
    random_key,
)

SMALL = [PASTA_MICRO, PASTA_TOY]


class TestKeystream:
    def test_deterministic(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        a = cipher.keystream_block(5, 9)
        b = cipher.keystream_block(5, 9)
        assert np.array_equal(a, b)

    def test_counter_separation(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        assert not np.array_equal(cipher.keystream_block(5, 0), cipher.keystream_block(5, 1))

    def test_nonce_separation(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        assert not np.array_equal(cipher.keystream_block(5, 0), cipher.keystream_block(6, 0))

    def test_key_separation(self):
        a = Pasta(PASTA_TOY, random_key(PASTA_TOY, b"k1"))
        b = Pasta(PASTA_TOY, random_key(PASTA_TOY, b"k2"))
        assert not np.array_equal(a.keystream_block(1, 0), b.keystream_block(1, 0))

    def test_output_in_field(self, toy_key):
        ks = Pasta(PASTA_TOY, toy_key).keystream_block(3, 3)
        assert all(0 <= int(v) < PASTA_TOY.p for v in ks)
        assert ks.shape == (PASTA_TOY.t,)

    def test_pasta4_block_shape(self, pasta4_key):
        ks = Pasta(PASTA_4, pasta4_key).keystream_block(0, 0)
        assert ks.shape == (32,)

    def test_keystream_with_precomputed_materials(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        materials = generate_block_materials(PASTA_TOY, 7, 7)
        assert np.array_equal(
            cipher.keystream_block(7, 7), cipher.keystream_block(7, 7, materials)
        )


class TestBlockRoundtrip:
    @pytest.mark.parametrize("params", SMALL, ids=lambda p: p.name)
    def test_full_block(self, params):
        cipher = Pasta(params, random_key(params))
        msg = list(range(params.t))
        ct = cipher.encrypt_block(msg, 4, 2)
        pt = cipher.decrypt_block(ct, 4, 2)
        assert [int(x) for x in pt] == msg

    def test_partial_block(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        ct = cipher.encrypt_block([9, 10], 1, 1)
        assert ct.shape == (2,)
        assert [int(x) for x in cipher.decrypt_block(ct, 1, 1)] == [9, 10]

    def test_oversized_block_raises(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        with pytest.raises(ParameterError):
            cipher.encrypt_block(list(range(PASTA_TOY.t + 1)), 0, 0)
        with pytest.raises(ParameterError):
            cipher.decrypt_block(list(range(PASTA_TOY.t + 1)), 0, 0)

    def test_pasta4_roundtrip(self, pasta4_key):
        cipher = Pasta(PASTA_4, pasta4_key)
        msg = [65536, 0, 1, 12345] * 8
        assert [int(x) for x in cipher.decrypt_block(cipher.encrypt_block(msg, 8, 3), 8, 3)] == msg

    def test_pasta3_roundtrip(self, pasta3_key):
        cipher = Pasta(PASTA_3, pasta3_key)
        msg = list(range(128))
        assert [int(x) for x in cipher.decrypt_block(cipher.encrypt_block(msg, 1, 0), 1, 0)] == msg

    def test_ciphertext_differs_from_plaintext(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        msg = [1, 2, 3, 4]
        assert [int(x) for x in cipher.encrypt_block(msg, 0, 0)] != msg


class TestStreaming:
    @given(st.integers(min_value=1, max_value=18), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15)
    def test_roundtrip_any_length(self, length, nonce):
        cipher = Pasta(PASTA_TOY, random_key(PASTA_TOY))
        msg = [(i * 7919) % PASTA_TOY.p for i in range(length)]
        ct = cipher.encrypt(msg, nonce)
        assert [int(x) for x in cipher.decrypt(ct, nonce)] == msg

    def test_stream_uses_block_counters(self, toy_key):
        """Stream encryption must equal per-block encryption with ctr=index."""
        cipher = Pasta(PASTA_TOY, toy_key)
        msg = list(range(10))
        whole = cipher.encrypt(msg, 5)
        block0 = cipher.encrypt_block(msg[:4], 5, 0)
        block1 = cipher.encrypt_block(msg[4:8], 5, 1)
        block2 = cipher.encrypt_block(msg[8:], 5, 2)
        assert list(whole) == list(block0) + list(block1) + list(block2)


class TestElementRange:
    """Elements outside [0, p), or not integers, are refused, never silently
    reduced or truncated."""

    @pytest.mark.parametrize(
        "values",
        [
            [PASTA_TOY.p, 1, 5],
            [-1, 0, 5],
            np.array([3, PASTA_TOY.p + 7], dtype=np.int64),
            [2**70, 1],
            [1.5, 2],
        ],
        ids=["p", "negative", "int64-array", "bigint", "float"],
    )
    def test_out_of_range_raises(self, toy_key, values):
        cipher = Pasta(PASTA_TOY, toy_key)
        with pytest.raises(ParameterError, match="elements"):
            cipher.encrypt(values, nonce=1)
        with pytest.raises(ParameterError, match="elements"):
            cipher.decrypt(values, 1)
        with pytest.raises(ParameterError, match="elements"):
            cipher.encrypt_block(values, 1, 0)
        with pytest.raises(ParameterError, match="elements"):
            cipher.decrypt_block(values, 1, 0)
        # A refused message consumes no nonce.
        assert [int(x) for x in cipher.decrypt(cipher.encrypt([0, 7], 1), 1)] == [0, 7]

    def test_field_bounds_roundtrip(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        msg = [0, PASTA_TOY.p - 1] * 3
        assert [int(x) for x in cipher.decrypt(cipher.encrypt(msg, 2), 2)] == msg


class TestKeyHandling:
    def test_wrong_key_size(self):
        with pytest.raises(ParameterError):
            Pasta(PASTA_TOY, [1, 2, 3])

    def test_wrong_key_fails_decryption(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        other = Pasta(PASTA_TOY, random_key(PASTA_TOY, b"other"))
        ct = cipher.encrypt_block([1, 2, 3, 4], 0, 0)
        assert [int(x) for x in other.decrypt_block(ct, 0, 0)] != [1, 2, 3, 4]

    def test_random_key_deterministic(self):
        assert np.array_equal(random_key(PASTA_TOY, b"s"), random_key(PASTA_TOY, b"s"))
        assert not np.array_equal(random_key(PASTA_TOY, b"s"), random_key(PASTA_TOY, b"t"))

    def test_random_key_in_range(self):
        key = random_key(PASTA_4)
        assert key.shape == (64,)
        assert all(0 <= int(k) < PASTA_4.p for k in key)


class TestMaterials:
    def test_coefficient_count(self):
        m = generate_block_materials(PASTA_4, 0, 0)
        assert m.stats.accepted == PASTA_4.coefficients_per_block

    def test_rejection_rate_near_half_for_p17(self):
        m = generate_block_materials(PASTA_4, 0, 0)
        assert 0.4 < m.stats.acceptance_rate < 0.6

    def test_materials_public_and_reproducible(self):
        a = generate_block_materials(PASTA_TOY, 3, 4)
        b = generate_block_materials(PASTA_TOY, 3, 4)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.alpha_l, lb.alpha_l)
            assert np.array_equal(la.rc_r, lb.rc_r)

    def test_alpha_rows_nonzero(self):
        m = generate_block_materials(PASTA_TOY, 9, 9)
        for layer in m.layers:
            assert all(int(v) != 0 for v in layer.alpha_l)
            assert all(int(v) != 0 for v in layer.alpha_r)

    def test_layer_count(self):
        m = generate_block_materials(PASTA_TOY, 0, 1)
        assert len(m.layers) == PASTA_TOY.affine_layers

    def test_nonce_out_of_range(self):
        with pytest.raises(ParameterError):
            generate_block_materials(PASTA_TOY, 1 << 64, 0)
