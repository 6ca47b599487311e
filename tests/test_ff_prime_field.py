"""Tests for PrimeField scalar and vectorized arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ff import P17, P33, P54, PrimeField

FIELDS = [PrimeField(17), PrimeField(P17), PrimeField(P33), PrimeField(P54)]


def elements(p):
    return st.integers(min_value=0, max_value=p - 1)


class TestConstruction:
    def test_rejects_composite(self):
        with pytest.raises(ParameterError):
            PrimeField(65536)

    def test_dtype_selection(self):
        assert PrimeField(P17).dtype is np.int64
        assert PrimeField(P54).dtype is object

    def test_equality_and_hash(self):
        assert PrimeField(P17) == PrimeField(P17)
        assert PrimeField(P17) != PrimeField(P33)
        assert hash(PrimeField(P17)) == hash(PrimeField(P17))

    def test_element_bytes(self):
        assert PrimeField(P17).element_bytes() == 3
        assert PrimeField(P54).element_bytes() == 7


class TestScalarOps:
    @given(elements(P17), elements(P17))
    def test_add_sub_inverse(self, a, b):
        f = PrimeField(P17)
        assert f.sub(f.add(a, b), b) == a

    @given(elements(P17))
    def test_neg(self, a):
        f = PrimeField(P17)
        assert f.add(a, f.neg(a)) == 0

    @given(elements(P54), elements(P54))
    def test_mul_matches_bigint(self, a, b):
        f = PrimeField(P54)
        assert f.mul(a, b) == (a * b) % P54

    @given(st.integers(min_value=1, max_value=P17 - 1))
    def test_inverse(self, a):
        f = PrimeField(P17)
        assert f.mul(a, f.inv(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(P17).inv(0)

    @given(elements(P17), st.integers(min_value=0, max_value=50))
    def test_pow(self, a, e):
        f = PrimeField(P17)
        assert f.pow(a, e) == pow(a, e, P17)

    @given(elements(P17))
    def test_square(self, a):
        f = PrimeField(P17)
        assert f.square(a) == f.mul(a, a)

    def test_fermat_little_theorem(self):
        f = PrimeField(P17)
        for a in (1, 2, 12345, P17 - 1):
            assert f.pow(a, P17 - 1) == 1


class TestVectorOps:
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"p{f.bits}")
    def test_vec_roundtrip(self, field):
        a = field.array(range(10))
        b = field.array(range(100, 110))
        assert np.array_equal(field.vec_sub(field.vec_add(a, b), b), a)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"p{f.bits}")
    def test_vec_mul_matches_scalar(self, field):
        vals_a = [3, field.p - 1, 12, 0, field.p // 2]
        vals_b = [9, field.p - 2, 7, 5, field.p - 1]
        a, b = field.array(vals_a), field.array(vals_b)
        expected = [field.mul(x, y) for x, y in zip(vals_a, vals_b)]
        assert list(field.vec_mul(a, b)) == expected

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"p{f.bits}")
    def test_mat_vec_matches_naive(self, field):
        rng = np.random.default_rng(7)
        m = field.array(rng.integers(0, 1 << 16, size=(9, 9)).ravel()).reshape(9, 9)
        v = field.array(rng.integers(0, 1 << 16, size=9))
        got = field.mat_vec(m, v)
        expected = [
            sum(field.mul(int(m[i, j]), int(v[j])) for j in range(9)) % field.p for i in range(9)
        ]
        assert [int(x) for x in got] == expected

    def test_mat_vec_overflow_chunking(self):
        # p near 2^31: single int64 dot of 128 terms would overflow.
        p = 2_147_483_647  # Mersenne prime 2^31 - 1
        field = PrimeField(p)
        rng = np.random.default_rng(11)
        m = field.array(rng.integers(0, p, size=(128, 128)).ravel()).reshape(128, 128)
        v = field.array(rng.integers(0, p, size=128))
        got = field.mat_vec(m, v)
        expected = (m.astype(object) @ v.astype(object)) % p
        assert [int(x) for x in got] == [int(x) for x in expected]

    def test_dot(self):
        f = PrimeField(P17)
        a = f.array([1, 2, 3])
        b = f.array([4, 5, 6])
        assert f.dot(a, b) == 32


class TestAccumulationOverflowBoundary:
    """Regression for the accumulation-unaware ``_mul_fits_int64`` predicate.

    The old predicate only certified single products ``(p-1)^2 <= INT64_MAX``
    and was consulted for whole dot products: at p = 2^31 - 1 a 128-term
    accumulation of worst-case products overflows int64 by ~64x even though
    every individual product fits. The fixed code pairs the predicate with
    :meth:`PrimeField.mul_accumulate_fits_int64` and chunk-reduces whenever
    the accumulated sum could exceed INT64_MAX.
    """

    P31 = 2_147_483_647  # Mersenne prime 2^31 - 1
    INT64_MAX = np.iinfo(np.int64).max

    def test_predicate_boundary(self):
        field = PrimeField(self.P31)
        # Single products fit (the old predicate's answer)...
        assert (self.P31 - 1) ** 2 <= self.INT64_MAX
        assert field._mul_fits_int64
        # ...but a t = 128 accumulation does not (what the fix checks).
        assert (self.P31 - 1) ** 2 * 128 > self.INT64_MAX
        assert not field.mul_accumulate_fits_int64(128)
        assert field.mul_accumulate_fits_int64(1)

    def test_accumulate_predicate_small_modulus(self):
        field = PrimeField(P17)
        # 17-bit modulus: even million-term accumulations fit comfortably.
        assert field.mul_accumulate_fits_int64(1 << 20)

    def test_naive_einsum_would_be_wrong(self):
        """The failure the old predicate admitted: worst-case all-(p-1)
        inputs make the unchunked int64 einsum wrap and reduce to garbage."""
        p = self.P31
        t = 128
        mats = np.full((1, t, t), p - 1, dtype=np.int64)
        vecs = np.full((1, t), p - 1, dtype=np.int64)
        with np.errstate(over="ignore"):
            naive = np.einsum("nij,nj->ni", mats, vecs) % p
        expected = (mats[0].astype(object) @ vecs[0].astype(object)) % p
        assert [int(x) for x in naive[0]] != [int(x) for x in expected]

    def test_batched_mat_vec_worst_case(self):
        """batched_mat_vec chunk-reduces and matches the big-int ground truth
        on the exact inputs that defeat the naive path above."""
        field = PrimeField(self.P31)
        t = 128
        mats = np.full((2, t, t), self.P31 - 1, dtype=np.int64)
        vecs = np.full((2, t), self.P31 - 1, dtype=np.int64)
        got = field.batched_mat_vec(mats, vecs)
        expected = (mats[0].astype(object) @ vecs[0].astype(object)) % self.P31
        for n in range(2):
            assert [int(x) for x in got[n]] == [int(x) for x in expected]

    @pytest.mark.parametrize(
        "p, k",
        [(P31, 128), (P17, 128), (P54, 32)],
        ids=["chunked-p31", "einsum-p17", "object-p54"],
    )
    def test_batched_dot_worst_case(self, p, k):
        """batched_dot matches the big-int ground truth on all-(p-1) inputs
        in each accumulation regime: chunked, one einsum, and object."""
        field = PrimeField(p)
        a = field.array([p - 1] * (k * 3)).reshape(k, 3)
        got = field.batched_dot(a, a)
        assert [int(x) for x in got] == [(p - 1) ** 2 * k % p] * 3

    def test_mat_vec_worst_case(self):
        field = PrimeField(self.P31)
        t = 128
        m = np.full((t, t), self.P31 - 1, dtype=np.int64)
        v = np.full(t, self.P31 - 1, dtype=np.int64)
        got = field.mat_vec(m, v)
        expected = (m.astype(object) @ v.astype(object)) % self.P31
        assert [int(x) for x in got] == [int(x) for x in expected]

    def test_batched_mat_vec_matches_scalar_mat_vec(self):
        field = PrimeField(self.P31)
        rng = np.random.default_rng(23)
        mats = rng.integers(0, self.P31, size=(3, 16, 16), dtype=np.int64)
        vecs = rng.integers(0, self.P31, size=(3, 16), dtype=np.int64)
        got = field.batched_mat_vec(mats, vecs)
        for n in range(3):
            assert np.array_equal(got[n], field.mat_vec(mats[n], vecs[n]))

    def test_batched_mat_vec_object_dtype(self):
        field = PrimeField(P54)
        rng = np.random.default_rng(29)
        mats_int = rng.integers(0, 1 << 50, size=(2, 6, 6))
        vecs_int = rng.integers(0, 1 << 50, size=(2, 6))
        mats = np.array(mats_int, dtype=object)
        vecs = np.array(vecs_int, dtype=object)
        got = field.batched_mat_vec(mats, vecs)
        for n in range(2):
            expected = (mats[n].astype(object) @ vecs[n].astype(object)) % P54
            assert [int(x) for x in got[n]] == [int(x) for x in expected]

    def test_scalar_mul(self):
        f = PrimeField(P17)
        a = f.array([1, 2, P17 - 1])
        assert list(f.scalar_mul(2, a)) == [2, 4, P17 - 2]

    def test_zeros_object_dtype(self):
        f = PrimeField(P54)
        z = f.zeros(4)
        assert z.dtype == object and list(z) == [0, 0, 0, 0]

    def test_coerce_reduces(self):
        f = PrimeField(P17)
        arr = f.coerce(np.array([P17, P17 + 1, -1]))
        assert list(arr) == [0, 1, P17 - 1]

    def test_mat_mul_associative_with_vector(self):
        f = PrimeField(P17)
        rng = np.random.default_rng(3)
        a = f.array(rng.integers(0, P17, size=36)).reshape(6, 6)
        b = f.array(rng.integers(0, P17, size=36)).reshape(6, 6)
        v = f.array(rng.integers(0, P17, size=6))
        left = f.mat_vec(f.mat_mul(a, b), v)
        right = f.mat_vec(a, f.mat_vec(b, v))
        assert np.array_equal(left, right)
