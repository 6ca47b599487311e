"""Tests for the invertible sequential-matrix generation (paper Eq. (1))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ff import P17, P33, P54, PrimeField, companion_matrix, is_invertible
from repro.pasta import (
    PASTA_4,
    PASTA_TOY,
    generate_block_materials,
    generate_matrix,
    iter_rows,
    next_row,
    streaming_mat_vec,
)
from repro.pasta.matgen import recurrence_mat_vec

F17 = PrimeField(P17)
F33 = PrimeField(P33)
F54 = PrimeField(P54)
F31 = PrimeField(2**31 - 1)

#: (field, t) for each accumulation regime of the recurrence's dot products:
#: one int64 einsum (17-bit), big-int object dtype (33- and 54-bit), and
#: chunked int64 partial sums (2^31 - 1 at t = 128, where only single
#: products fit); plus t = 3, where every window spans only three entries.
REGIMES = [(F17, 32), (F33, 32), (F54, 32), (F31, 128), (F17, 3)]
REGIME_IDS = ["p17", "p33", "p54", "p31-chunked", "p17-t3"]


def nonzero_vector(field, n, seed):
    rng = np.random.default_rng(seed)
    return field.array(rng.integers(1, min(field.p, 1 << 31), size=n))


class TestRecurrence:
    def test_next_row_matches_companion_product(self):
        alpha = nonzero_vector(F17, 6, seed=1)
        c = companion_matrix(alpha, F17)
        row = nonzero_vector(F17, 6, seed=2)
        # row . C computed via matrix algebra vs the streaming recurrence
        expected = F17.mat_vec(c.T, row)
        got = next_row(F17, row, alpha)
        assert np.array_equal(got, expected)

    def test_first_row_is_alpha(self):
        alpha = nonzero_vector(F17, 5, seed=3)
        rows = list(iter_rows(F17, alpha))
        assert np.array_equal(rows[0], alpha)
        assert len(rows) == 5

    def test_rows_are_krylov_sequence(self):
        """Row j equals alpha . C^j."""
        alpha = nonzero_vector(F17, 4, seed=4)
        c = companion_matrix(alpha, F17)
        rows = list(iter_rows(F17, alpha))
        current = alpha
        for j in range(4):
            assert np.array_equal(rows[j], current)
            current = F17.mat_vec(c.T, current)

    @given(st.integers(min_value=0, max_value=1000))
    def test_recurrence_explicit_formula(self, seed):
        alpha = nonzero_vector(F17, 8, seed=seed)
        row = nonzero_vector(F17, 8, seed=seed + 1)
        new = next_row(F17, row, alpha)
        feedback = int(row[-1])
        assert int(new[0]) == F17.mul(feedback, int(alpha[0]))
        for k in range(1, 8):
            assert int(new[k]) == F17.add(int(row[k - 1]), F17.mul(feedback, int(alpha[k])))


class TestGenerateMatrix:
    @pytest.mark.parametrize("field", [F17, F54], ids=["p17", "p54"])
    def test_shape(self, field):
        alpha = nonzero_vector(field, 7, seed=5)
        m = generate_matrix(field, alpha)
        assert m.shape == (7, 7)

    @pytest.mark.parametrize("seed", range(10))
    def test_invertibility_empirical(self, seed):
        """The paper's central claim for Eq. (1): generated matrices invert."""
        alpha = nonzero_vector(F17, 16, seed=seed)
        assert is_invertible(generate_matrix(F17, alpha), F17)

    def test_real_block_matrices_invertible(self):
        materials = generate_block_materials(PASTA_TOY, nonce=12, counter=34)
        for layer in range(PASTA_TOY.affine_layers):
            assert is_invertible(materials.matrix_l(layer), PASTA_TOY.field)
            assert is_invertible(materials.matrix_r(layer), PASTA_TOY.field)

    def test_pasta4_block_matrix_invertible(self):
        materials = generate_block_materials(PASTA_4, nonce=1, counter=0)
        assert is_invertible(materials.matrix_l(0), PASTA_4.field)


class TestStreamingMatVec:
    @pytest.mark.parametrize("field", [F17, F54], ids=["p17", "p54"])
    def test_matches_full_matrix_product(self, field):
        alpha = nonzero_vector(field, 9, seed=8)
        x = nonzero_vector(field, 9, seed=9)
        full = field.mat_vec(generate_matrix(field, alpha), x)
        streamed = streaming_mat_vec(field, alpha, x)
        assert np.array_equal(full, streamed)

    def test_memory_profile(self):
        """iter_rows yields lazily — only two rows alive at a time by design."""
        alpha = nonzero_vector(F17, 64, seed=10)
        gen = iter_rows(F17, alpha)
        first = next(gen)
        second = next(gen)
        assert not np.array_equal(first, second)


class TestRecurrenceMatVec:
    """The matrix-free product against both oracles, lane by lane."""

    @staticmethod
    def assert_matches_oracles(field, alphas, x):
        got = recurrence_mat_vec(field, alphas, x)
        assert got.shape == x.shape
        for n in range(x.shape[1]):
            full = field.mat_vec(generate_matrix(field, alphas[:, n]), x[:, n])
            streamed = streaming_mat_vec(field, alphas[:, n], x[:, n])
            assert [int(v) for v in got[:, n]] == [int(v) for v in full]
            assert [int(v) for v in got[:, n]] == [int(v) for v in streamed]

    @given(
        st.sampled_from(REGIMES),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=16)
    def test_matches_oracles(self, regime, lanes, seed):
        field, t = regime
        rng = np.random.default_rng(seed)

        def draw(low):
            values = rng.integers(low, field.p, size=t * lanes, dtype=np.uint64)
            return field.array(values).reshape(t, lanes)

        self.assert_matches_oracles(field, draw(1), draw(0))

    @pytest.mark.parametrize("field, t", REGIMES, ids=REGIME_IDS)
    def test_all_p_minus_one(self, field, t):
        """The largest products every step can meet, in every regime."""
        top = field.array([field.p - 1] * (t * 2)).reshape(t, 2)
        self.assert_matches_oracles(field, top, top)
