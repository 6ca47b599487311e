"""Galois automorphism / slot-rotation layer (repro.fhe.galois + BFV keys).

The BSGS affine path stands on one identity: applying tau_g with
g = 3^k to a packed ciphertext rotates the galois-ordered logical row
left by k. These tests pin that identity end-to-end — permutation maps,
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
from repro.fhe import BatchEncoder, Bfv, toy_parameters
from repro.fhe.galois import (
    conjugation_element,
    coeff_automorphism_maps,
    eval_permutation,
    galois_slot_order,
    replicate_rows_to_slots,
    rotation_element,
    slot_exponents,
    slots_to_logical,
)

N = 256
HALF = N // 2


def _scheme(p, **kw):
    params = toy_parameters(p, n=N, **kw)
    scheme = Bfv(params, seed=b"galois-tests")
    sk, pk, rlk = scheme.keygen()
    return scheme, sk, pk, BatchEncoder(params.n, p)


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

    def test_replicate_then_read_roundtrips(self):
        rows = np.arange(3 * HALF).reshape(3, HALF) % 97
        slots = replicate_rows_to_slots(N, rows)
        for r in range(3):
            assert slots_to_logical(N, list(slots[r])) == list(rows[r])


class TestRotationOnCiphertexts:
    """Keyswitched rotations match np.roll on the logical row, both primes."""

    @given(
        bits=st.sampled_from([17, 33]),
        steps=st.integers(min_value=0, max_value=HALF - 1),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_rotate_then_decode_is_np_roll(self, servers, bits, steps, data):
        scheme, sk, pk, encoder = servers[bits]
        p = encoder.p
        logical = np.array(
            data.draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=HALF, max_size=HALF))
        )
        gk = scheme.rotation_keygen(sk, [steps])
        pt = encoder.encode(replicate_rows_to_slots(N, logical.reshape(1, HALF)).reshape(N))
        ct = scheme.encrypt_poly(pk, list(pt))
        rotated = scheme.rotate_slots(ct, steps, gk)
        out = slots_to_logical(N, encoder.decode(scheme.decrypt_poly(sk, rotated)))
        assert out == [int(x) for x in np.roll(logical, -steps)]
        assert scheme.noise_budget_bits(sk, rotated) > 0

    @given(
        bits=st.sampled_from([17, 33]),
        s1=st.integers(min_value=1, max_value=HALF - 1),
        s2=st.integers(min_value=1, max_value=HALF - 1),
    )
    @settings(max_examples=6, deadline=None)
    def test_chained_rotations_compose(self, servers, bits, s1, s2):
        scheme, sk, pk, encoder = servers[bits]
        p = encoder.p
        logical = np.arange(HALF) % p
        gk = scheme.rotation_keygen(sk, [s1, s2, (s1 + s2) % HALF])
        pt = encoder.encode(replicate_rows_to_slots(N, logical.reshape(1, HALF)).reshape(N))
        ct = scheme.encrypt_poly(pk, list(pt))
        chained = scheme.rotate_slots(scheme.rotate_slots(ct, s1, gk), s2, gk)
        direct = scheme.rotate_slots(ct, (s1 + s2) % HALF, gk)
        dec = lambda c: slots_to_logical(N, encoder.decode(scheme.decrypt_poly(sk, c)))
        assert dec(chained) == dec(direct)

    def test_conjugation_swaps_hypercube_rows(self, servers):
        scheme, sk, pk, encoder = servers[17]
        p = encoder.p
        rows = np.stack([np.arange(HALF) % p, (np.arange(HALF) * 3 + 1) % p])
        order = galois_slot_order(N)
        slots = np.zeros(N, dtype=np.int64)
        slots[order[0]] = rows[0]
        slots[order[1]] = rows[1]
        gk = scheme.galois_keygen(sk, [conjugation_element(N)])
        ct = scheme.encrypt_poly(pk, list(encoder.encode(slots)))
        out = scheme.apply_galois(ct, conjugation_element(N), gk)
        decoded = np.asarray(encoder.decode(scheme.decrypt_poly(sk, out)))
        assert list(decoded[order[0]]) == list(rows[1])
        assert list(decoded[order[1]]) == list(rows[0])

    def test_tensor_rotation_matches_scalar(self, servers):
        scheme, sk, pk, encoder = servers[17]
        p = encoder.p
        logical = (np.arange(HALF) * 7 + 2) % p
        gk = scheme.rotation_keygen(sk, [5])
        pt = encoder.encode(replicate_rows_to_slots(N, logical.reshape(1, HALF)).reshape(N))
        ct = scheme.encrypt_poly(pk, list(pt))
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
        logical = np.array(
            data.draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=HALF, max_size=HALF))
        )
        gk = scheme.rotation_keygen(sk, [steps])
        pt = encoder.encode(replicate_rows_to_slots(N, logical.reshape(1, HALF)).reshape(N))
        stack = scheme.stack_ciphertexts([scheme.encrypt_poly(pk, list(pt))])
        digits = scheme.hoisted_decompose(stack)
        hoisted = scheme.tensor_rotate_hoisted(stack, digits, steps, gk)
        regular = scheme.tensor_rotate(stack, steps, gk)
        dec = lambda t: slots_to_logical(
            N, encoder.decode(scheme.decrypt_poly(sk, scheme.unstack_ciphertexts(t)[0]))
        )
        expected = [int(x) for x in np.roll(logical, -steps)]
        assert dec(hoisted) == dec(regular) == expected
        for ct in scheme.unstack_ciphertexts(hoisted):
            assert scheme.noise_budget_bits(sk, ct) > 0

    def test_many_rotations_share_one_decomposition(self, servers):
        scheme, sk, pk, encoder = servers[17]
        p = encoder.p
        logical = (np.arange(HALF) * 5 + 3) % p
        steps = [1, 2, 7]
        gk = scheme.rotation_keygen(sk, steps)
        pt = encoder.encode(replicate_rows_to_slots(N, logical.reshape(1, HALF)).reshape(N))
        stack = scheme.stack_ciphertexts([scheme.encrypt_poly(pk, list(pt))])
        digits = scheme.hoisted_decompose(stack)
        for s in steps:
            out = scheme.tensor_rotate_hoisted(stack, digits, s, gk)
            dec = slots_to_logical(
                N, encoder.decode(scheme.decrypt_poly(sk, scheme.unstack_ciphertexts(out)[0]))
            )
            assert dec == [int(x) for x in np.roll(logical, -s)]

    def test_keyswitch_path_is_int64_exact(self, servers):
        """No object-dtype bigint round trip in the int64-eligible chain.

        The RNS-native digit decomposition must be active (the engine's
        exact-digit decomposer resolves) and the keyswitch must run without
        EVER calling the CRT recombiner ``from_rns_batch`` — the pre-fix
        bigint round trip. The decomposed digit stack itself stays int64.
        """
        scheme, sk, pk, encoder = servers[17]
        eng = scheme.engine
        base, count = scheme.params.relin_base, scheme.params.relin_parts
        assert eng._digit_decomposer(base, count) is not None

        gk = scheme.rotation_keygen(sk, [3])
        pt = encoder.encode([1] * N)
        stack = scheme.stack_ciphertexts([scheme.encrypt_poly(pk, list(pt))])
        digits = scheme.hoisted_decompose(stack)
        assert digits.dtype == np.int64

        def boom(*a, **kw):
            raise AssertionError("object-dtype CRT recombination in keyswitch path")

        original = eng.ctx.from_rns_batch
        eng.ctx.from_rns_batch = boom
        try:
            scheme.tensor_rotate(stack, 3, gk)
            scheme.tensor_rotate_hoisted(stack, digits, 3, gk)
        finally:
            eng.ctx.from_rns_batch = original

    def test_exact_digits_matches_bigint_digits_bitwise(self, servers, monkeypatch):
        """The int64 digit path and the object divmod path agree on residues.

        The CRT divmod path is what chains without an int64 decomposer run;
        forcing it here (the decomposer resolves to None) compares the two
        on the same chain.
        """
        scheme, sk, pk, encoder = servers[33]
        eng = scheme.engine
        gk = scheme.rotation_keygen(sk, [4])
        pt = encoder.encode(list(range(1, N + 1)))
        stack = scheme.stack_ciphertexts([scheme.encrypt_poly(pk, list(pt))])
        base, count = scheme.params.relin_base, scheme.params.relin_parts
        assert eng._digit_decomposer(base, count) is not None
        exact = scheme.tensor_rotate(stack, 4, gk)
        monkeypatch.setattr(eng, "_digit_decomposer", lambda base, count: None)
        bigint = scheme.tensor_rotate(stack, 4, gk)
        assert np.array_equal(exact.data, bigint.data)
