"""Galois automorphism / slot-rotation layer (repro.fhe.galois + BFV keys).

The BSGS affine path stands on one identity: applying tau_g with
g = 3^k to a packed ciphertext rotates each of the two galois-ordered
hypercube rows left by k, independently — the packed layout keeps
different blocks in the two rows. These tests pin that identity
end-to-end on two *different* rows — permutation maps,
coefficient-domain automorphisms, keyswitched rotations on real
ciphertexts — under hypothesis, across both prime variants (17-bit
Fermat-like and 33-bit NTT prime).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ff.params import P17, P33
from repro.fhe import BatchEncoder, BigintEngine, Bfv, RnsContext, toy_parameters
from repro.fhe.galois import (
    conjugation_element,
    coeff_automorphism_maps,
    eval_permutation,
    galois_slot_order,
    rotation_element,
    rows_to_slots,
    slot_exponents,
    slots_to_rows,
)

N = 256
HALF = N // 2


def _scheme(p, **kw):
    params = toy_parameters(p, n=N, **kw)
    scheme = Bfv(params, seed=b"galois-tests")
    sk, pk, rlk = scheme.keygen()
    return scheme, sk, pk, BatchEncoder(params.n, p)


def _two_rows(p, drawn=None):
    """A (2, N/2) hypercube whose rows differ everywhere: ``arange(N)`` plus
    an optional drawn offset, mod p."""
    base = np.arange(N).reshape(2, HALF)
    return (base if drawn is None else base + np.asarray(drawn).reshape(2, HALF)) % p


def _encrypt_rows(scheme, pk, encoder, rows):
    return scheme.encrypt_poly(pk, list(encoder.encode(rows_to_slots(N, rows[None])[0])))


def _decrypt_rows(scheme, sk, encoder, ct):
    slots = np.asarray([encoder.decode(scheme.decrypt_poly(sk, ct))])
    return slots_to_rows(N, slots)[0]


def _rolled(rows, steps):
    """Each row rotated left by ``steps`` on its own."""
    return np.roll(rows, -steps, axis=1)


@pytest.fixture(scope="module")
def servers():
    """One scheme per prime variant, keyed by modulus width."""
    return {
        17: _scheme(P17, log2_q=230),
        33: _scheme(P33, log2_q=340, prime_bits=26),
    }


class TestPermutationMaps:
    def test_slot_exponents_are_the_odd_residues(self):
        exps = slot_exponents(N)
        assert len(exps) == N
        assert sorted(exps) == list(range(1, 2 * N, 2))

    def test_eval_permutation_identity(self):
        assert list(eval_permutation(N, 1)) == list(range(N))

    @given(k=st.integers(min_value=0, max_value=HALF - 1), j=st.integers(min_value=0, max_value=N - 1))
    @settings(max_examples=32, deadline=None)
    def test_eval_permutation_is_exponent_multiplication(self, k, j):
        g = rotation_element(N, k)
        perm = eval_permutation(N, g)
        exps = slot_exponents(N)
        # slot j of the permuted vector evaluates at psi^(e(j) * g)
        assert exps[int(perm[j])] == (exps[j] * g) % (2 * N)

    @given(a=st.integers(min_value=0, max_value=HALF - 1), b=st.integers(min_value=0, max_value=HALF - 1))
    @settings(max_examples=24, deadline=None)
    def test_automorphisms_compose(self, a, b):
        ga, gb = rotation_element(N, a), rotation_element(N, b)
        pa, pb = eval_permutation(N, ga), eval_permutation(N, gb)
        composed = eval_permutation(N, (ga * gb) % (2 * N))
        # tau_a . tau_b permutes like the product element
        assert np.array_equal(pa[pb], composed)

    def test_galois_slot_order_covers_all_slots(self):
        order = galois_slot_order(N)
        assert order.shape == (2, HALF)
        assert sorted(order.reshape(-1).tolist()) == list(range(N))

    def test_even_element_rejected(self):
        with pytest.raises(ParameterError):
            coeff_automorphism_maps(N, 2)

    def test_rows_to_slots_roundtrips(self):
        rows = np.arange(3 * N).reshape(3, 2, HALF) % 97
        slots = rows_to_slots(N, rows)
        order = galois_slot_order(N)
        assert np.array_equal(slots[:, order[0]], rows[:, 0])
        assert np.array_equal(slots[:, order[1]], rows[:, 1])
        assert np.array_equal(slots_to_rows(N, slots), rows)

    def test_row_helpers_reject_bad_shapes(self):
        with pytest.raises(ParameterError):
            rows_to_slots(N, np.zeros((1, HALF)))
        with pytest.raises(ParameterError):
            slots_to_rows(N, np.zeros((1, HALF)))


class TestRotationOnCiphertexts:
    """Keyswitched rotations match np.roll on each hypercube row, both primes."""

    @given(
        bits=st.sampled_from([17, 33]),
        steps=st.integers(min_value=0, max_value=HALF - 1),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_rotate_then_decode_is_np_roll(self, servers, bits, steps, data):
        scheme, sk, pk, encoder = servers[bits]
        p = encoder.p
        rows = _two_rows(
            p, data.draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=N, max_size=N))
        )
        gk = scheme.rotation_keygen(sk, [steps])
        rotated = scheme.rotate_slots(_encrypt_rows(scheme, pk, encoder, rows), steps, gk)
        assert np.array_equal(_decrypt_rows(scheme, sk, encoder, rotated), _rolled(rows, steps))
        assert scheme.noise_budget_bits(sk, rotated) > 0

    @given(
        bits=st.sampled_from([17, 33]),
        s1=st.integers(min_value=1, max_value=HALF - 1),
        s2=st.integers(min_value=1, max_value=HALF - 1),
    )
    @settings(max_examples=6, deadline=None)
    def test_chained_rotations_compose(self, servers, bits, s1, s2):
        scheme, sk, pk, encoder = servers[bits]
        rows = _two_rows(encoder.p)
        gk = scheme.rotation_keygen(sk, [s1, s2, (s1 + s2) % HALF])
        ct = _encrypt_rows(scheme, pk, encoder, rows)
        chained = scheme.rotate_slots(scheme.rotate_slots(ct, s1, gk), s2, gk)
        direct = scheme.rotate_slots(ct, (s1 + s2) % HALF, gk)
        dec = lambda c: _decrypt_rows(scheme, sk, encoder, c)
        assert np.array_equal(dec(chained), dec(direct))
        assert np.array_equal(dec(direct), _rolled(rows, (s1 + s2) % HALF))

    def test_conjugation_swaps_hypercube_rows(self, servers):
        scheme, sk, pk, encoder = servers[17]
        rows = _two_rows(encoder.p)
        gk = scheme.galois_keygen(sk, [conjugation_element(N)])
        ct = _encrypt_rows(scheme, pk, encoder, rows)
        out = scheme.apply_galois(ct, conjugation_element(N), gk)
        assert np.array_equal(_decrypt_rows(scheme, sk, encoder, out), rows[::-1])

    def test_tensor_rotation_matches_scalar(self, servers):
        scheme, sk, pk, encoder = servers[17]
        gk = scheme.rotation_keygen(sk, [5])
        ct = _encrypt_rows(scheme, pk, encoder, _two_rows(encoder.p))
        scalar = scheme.rotate_slots(ct, 5, gk)
        stacked = scheme.stack_ciphertexts([ct])
        (tensor,) = scheme.unstack_ciphertexts(scheme.tensor_rotate(stacked, 5, gk))
        assert [scheme.engine.to_ints(part) for part in scalar.parts] == [
            scheme.engine.to_ints(part) for part in tensor.parts
        ]

    def test_missing_key_element_raises(self, servers):
        scheme, sk, pk, encoder = servers[17]
        gk = scheme.rotation_keygen(sk, [1])
        ct = scheme.encrypt_poly(pk, list(encoder.encode([0] * N)))
        with pytest.raises(ParameterError, match="element"):
            scheme.rotate_slots(ct, 2, gk)


class TestHoistedRotation:
    """Halevi-Shoup hoisting: shared decomposition, same decrypted plaintext.

    Hoisted and unhoisted rotations carry different keyswitch error cross
    terms, so residues are NOT expected to match bit-for-bit — parity is
    asserted where it is guaranteed: at the decrypted plaintext, under the
    same noise bound, at both prime widths.
    """

    @given(
        bits=st.sampled_from([17, 33]),
        steps=st.integers(min_value=1, max_value=HALF - 1),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_hoisted_decrypts_like_unhoisted(self, servers, bits, steps, data):
        scheme, sk, pk, encoder = servers[bits]
        p = encoder.p
        rows = _two_rows(
            p, data.draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=N, max_size=N))
        )
        gk = scheme.rotation_keygen(sk, [steps])
        stack = scheme.stack_ciphertexts([_encrypt_rows(scheme, pk, encoder, rows)])
        digits = scheme.hoisted_decompose(stack)
        hoisted = scheme.tensor_rotate_hoisted(stack, digits, [steps], gk)
        regular = scheme.tensor_rotate(stack, steps, gk)
        dec = lambda t: _decrypt_rows(scheme, sk, encoder, scheme.unstack_ciphertexts(t)[0])
        assert np.array_equal(dec(hoisted), _rolled(rows, steps))
        assert np.array_equal(dec(regular), _rolled(rows, steps))
        for ct in scheme.unstack_ciphertexts(hoisted):
            assert scheme.noise_budget_bits(sk, ct) > 0

    def test_many_rotations_share_one_decomposition(self, servers):
        scheme, sk, pk, encoder = servers[17]
        rows = _two_rows(encoder.p)
        steps = [1, 2, 7]
        gk = scheme.rotation_keygen(sk, steps)
        stack = scheme.stack_ciphertexts([_encrypt_rows(scheme, pk, encoder, rows)])
        digits = scheme.hoisted_decompose(stack)
        out = scheme.tensor_rotate_hoisted(stack, digits, steps, gk)
        assert out.slots == len(steps)
        for s, ct in zip(steps, scheme.unstack_ciphertexts(out)):
            dec = _decrypt_rows(scheme, sk, encoder, ct)
            assert np.array_equal(dec, _rolled(rows, s))

    def test_keyswitch_path_is_int64_exact(self, servers, monkeypatch):
        """No big-int CRT reconstruction on any key-switching path.

        Batched rotations, hoisted or not, and the per-ciphertext
        relinearization and multiply must run without EVER calling
        ``RnsContext.from_rns`` (on any basis, the extended one included):
        every CRT crossing is the int64 transport. The decomposed digit
        stack itself stays int64. Decryption reconstructs afterwards.
        """
        scheme, _, _, encoder = servers[17]
        sk, pk, rlk = scheme.keygen()
        gk = scheme.rotation_keygen(sk, [3])
        x = scheme.encrypt_poly(pk, list(encoder.encode([1] * N)))
        y = scheme.encrypt_poly(pk, list(encoder.encode([3] * N)))
        stack = scheme.stack_ciphertexts([x])
        digits = scheme.hoisted_decompose(stack)
        assert digits.dtype == np.int64

        def boom(*a, **kw):
            raise AssertionError("big-int CRT reconstruction in a key-switching path")

        with monkeypatch.context() as patch:
            patch.setattr(RnsContext, "from_rns", boom)
            scheme.tensor_rotate(stack, 3, gk)
            scheme.tensor_rotate_hoisted(stack, digits, [3], gk)
            relinearized = scheme.relinearize(scheme.multiply_raw(x, y), rlk)
            product = scheme.multiply(x, y, rlk)
        for ct in (relinearized, product):
            assert encoder.decode(scheme.decrypt_poly(sk, ct)) == [3] * N

    def test_exact_digits_matches_bigint_digits_bitwise(self, servers):
        """The int64 digit transport equals the oracle's big-int divmod.

        ``_decompose_base_digits`` of a ciphertext's c1 stack, brought back
        to coefficients, holds exactly ``BigintEngine.relin_digits`` of the
        canonical coefficients, on the omega = 33 chain.
        """
        scheme, sk, pk, encoder = servers[33]
        eng = scheme.engine
        params = scheme.params
        pt = encoder.encode(list(range(1, N + 1)))
        stack = scheme.stack_ciphertexts([scheme.encrypt_poly(pk, list(pt))])
        base, count = params.relin_base, params.relin_parts
        got = eng._decompose_base_digits(stack.data[:, 1], base, count)
        assert got.shape == (1, count, len(params.rns_primes), N) and got.dtype == np.int64
        canonical = eng.ctx.from_rns(eng.ctx.inverse(stack.data[0, 1]))
        oracle = BigintEngine(N, params.q, params.p).relin_digits(canonical, base, count)
        for d, digit in enumerate(oracle):
            assert eng.ctx.from_rns(eng.ctx.inverse(got[0, d])) == digit
