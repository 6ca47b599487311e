"""Tests for textbook BFV: correctness of every homomorphic operation."""

import math

import pytest

from repro.errors import ParameterError
from repro.fhe import Bfv, BfvParams, toy_parameters

P = 65537


@pytest.fixture(scope="module")
def ctx():
    params = toy_parameters(P, n=256, log2_q=160)
    scheme = Bfv(params, seed=b"test-suite")
    sk, pk, rlk = scheme.keygen()
    return scheme, sk, pk, rlk


class TestParams:
    def test_delta(self):
        params = toy_parameters(P, n=256, log2_q=160)
        assert params.q.bit_length() >= 160  # chain covers the requested width
        assert params.delta == params.q // P

    def test_relin_parts(self):
        params = BfvParams(n=256, q=1 << 160, p=P, relin_base_bits=62)
        assert params.relin_parts == 3  # ceil(161/62)

    def test_q_must_exceed_p(self):
        with pytest.raises(ParameterError):
            BfvParams(n=256, q=100, p=P)

    def test_n_power_of_two(self):
        with pytest.raises(ParameterError):
            BfvParams(n=100, q=1 << 100, p=P)

    def test_ciphertext_bytes(self):
        params = toy_parameters(P, n=1024, log2_q=250)
        assert params.ciphertext_bytes == 2 * 1024 * ((params.q.bit_length() + 7) // 8)

    def test_rns_default_and_bigint_escape(self):
        rns = toy_parameters(P, n=256, log2_q=160)
        assert rns.rns_primes and all((q - 1) % 512 == 0 for q in rns.rns_primes)
        # A modulus without a prime chain runs on the big-int engine.
        legacy = BfvParams(n=256, q=1 << 160, p=P)
        assert legacy.rns_primes is None
        assert Bfv(legacy).engine_name == "bigint"

    def test_rns_primes_must_match_q(self):
        good = toy_parameters(P, n=256, log2_q=160)
        with pytest.raises(ParameterError):
            BfvParams(n=256, q=good.q * 2, p=P, rns_primes=good.rns_primes)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError):
            Bfv(toy_parameters(P, n=64, log2_q=60), engine="fpga")
        with pytest.raises(ParameterError):
            Bfv(BfvParams(n=64, q=1 << 60, p=P), engine="rns")


class TestEncryptDecrypt:
    @pytest.mark.parametrize("message", [0, 1, 2, 65536, 12345])
    def test_roundtrip(self, ctx, message):
        scheme, sk, pk, _ = ctx
        assert scheme.decrypt(sk, scheme.encrypt(pk, message)) == message

    def test_out_of_range_rejected(self, ctx):
        scheme, _, pk, _ = ctx
        with pytest.raises(ParameterError):
            scheme.encrypt(pk, P)

    def test_fresh_noise_budget(self, ctx):
        scheme, sk, pk, _ = ctx
        budget = scheme.noise_budget_bits(sk, scheme.encrypt(pk, 7))
        assert budget > 100  # fresh ciphertext at log2 q = 160

    def test_ciphertexts_randomized(self, ctx):
        scheme, _, pk, _ = ctx
        assert scheme.encrypt(pk, 3).parts != scheme.encrypt(pk, 3).parts

    def test_determinism_across_instances(self):
        params = toy_parameters(P, n=256, log2_q=160)
        a = Bfv(params, seed=b"same")
        b = Bfv(params, seed=b"same")
        assert a.keygen()[0].s == b.keygen()[0].s


class TestHomomorphicOps:
    def test_add(self, ctx):
        scheme, sk, pk, _ = ctx
        ct = scheme.add(scheme.encrypt(pk, 60000), scheme.encrypt(pk, 10000))
        assert scheme.decrypt(sk, ct) == (60000 + 10000) % P

    def test_add_plain(self, ctx):
        scheme, sk, pk, _ = ctx
        assert scheme.decrypt(sk, scheme.add_plain(scheme.encrypt(pk, 100), 65530)) == (100 + 65530) % P

    def test_neg(self, ctx):
        scheme, sk, pk, _ = ctx
        assert scheme.decrypt(sk, scheme.neg(scheme.encrypt(pk, 100))) == P - 100

    @pytest.mark.parametrize("c", [0, 1, 2, 65536, 40000])
    def test_mul_plain(self, ctx, c):
        scheme, sk, pk, _ = ctx
        assert scheme.decrypt(sk, scheme.mul_plain(scheme.encrypt(pk, 321), c)) == (321 * c) % P

    def test_mul(self, ctx):
        scheme, sk, pk, rlk = ctx
        ct = scheme.multiply(scheme.encrypt(pk, 300), scheme.encrypt(pk, 500), rlk)
        assert scheme.decrypt(sk, ct) == (300 * 500) % P

    def test_square(self, ctx):
        scheme, sk, pk, rlk = ctx
        assert scheme.decrypt(sk, scheme.square(scheme.encrypt(pk, 60000), rlk)) == pow(60000, 2, P)

    def test_mul_chain_depth2(self, ctx):
        scheme, sk, pk, rlk = ctx
        ct = scheme.encrypt(pk, 3)
        ct = scheme.multiply(ct, scheme.encrypt(pk, 5), rlk)
        ct = scheme.multiply(ct, scheme.encrypt(pk, 7), rlk)
        assert scheme.decrypt(sk, ct) == 105

    def test_multiply_raw_three_components(self, ctx):
        scheme, sk, pk, _ = ctx
        raw = scheme.multiply_raw(scheme.encrypt(pk, 11), scheme.encrypt(pk, 13))
        assert raw.size == 3
        assert scheme.decrypt(sk, raw) == 143  # decrypt handles size-3 directly

    def test_relinearize_preserves_plaintext(self, ctx):
        scheme, sk, pk, rlk = ctx
        raw = scheme.multiply_raw(scheme.encrypt(pk, 11), scheme.encrypt(pk, 13))
        relinearized = scheme.relinearize(raw, rlk)
        assert relinearized.size == 2
        assert scheme.decrypt(sk, relinearized) == 143

    def test_size_mismatch_raises(self, ctx):
        scheme, _, pk, _ = ctx
        raw = scheme.multiply_raw(scheme.encrypt(pk, 1), scheme.encrypt(pk, 2))
        with pytest.raises(ParameterError):
            scheme.add(raw, scheme.encrypt(pk, 3))
        with pytest.raises(ParameterError):
            scheme.multiply_raw(raw, raw)

    def test_relinearize_requires_three(self, ctx):
        scheme, _, pk, rlk = ctx
        with pytest.raises(ParameterError):
            scheme.relinearize(scheme.encrypt(pk, 1), rlk)


class TestNoise:
    def test_budget_decreases_with_mult(self, ctx):
        scheme, sk, pk, rlk = ctx
        fresh = scheme.encrypt(pk, 9)
        product = scheme.multiply(fresh, scheme.encrypt(pk, 9), rlk)
        assert scheme.noise_budget_bits(sk, product) < scheme.noise_budget_bits(sk, fresh)

    def test_budget_exhaustion_detected(self):
        """At tiny q, repeated squaring corrupts the decryption. The measured
        budget of a wrong decryption then reads about log2 p, not 0 or less:
        it is measured against the message the phase decrypts to."""
        scheme = Bfv(toy_parameters(P, n=64, log2_q=60), seed=b"small")
        sk, pk, rlk = scheme.keygen()
        ct, expected = scheme.encrypt(pk, 2), 2
        wrong = []
        for _ in range(6):
            ct, expected = scheme.square(ct, rlk), expected * expected % P
            if scheme.decrypt(sk, ct) != expected:
                wrong.append(scheme.noise_budget_bits(sk, ct))
        assert wrong
        assert all(abs(budget - math.log2(P)) < 1 for budget in wrong)


class TestPolyEncoding:
    def test_encrypt_poly_roundtrip(self, ctx):
        scheme, sk, pk, _ = ctx
        plain = [7, 1, 0, 2] + [0] * 252
        ct = scheme.encrypt_poly(pk, plain)
        assert scheme.decrypt_poly(sk, ct) == plain

    def test_plain_poly_length_validated(self, ctx):
        """Wrong-length plaintexts raise instead of zip-truncating."""
        scheme, _, pk, _ = ctx
        ct = scheme.encrypt(pk, 5)
        for bad in ([1, 2, 3], [0] * 257):
            with pytest.raises(ParameterError):
                scheme.mul_plain_poly(ct, bad)
            with pytest.raises(ParameterError):
                scheme.add_plain_poly(ct, bad)

    def test_prepared_plain_handles(self, ctx):
        scheme, sk, pk, _ = ctx
        plain = [3] * scheme.params.n
        ct = scheme.encrypt_poly(pk, [2] + [0] * (scheme.params.n - 1))
        handle = scheme.prepare_mul_plain(plain)
        direct = scheme.mul_plain_poly(ct, plain)
        via_handle = scheme.mul_plain_poly(ct, handle)
        assert scheme.decrypt_poly(sk, direct) == scheme.decrypt_poly(sk, via_handle)
        with pytest.raises(ParameterError):
            scheme.add_plain_poly(ct, handle)  # mul-handle in add position


class TestBatchedKeySetup:
    """Batched key setup draws in the order of one key, one ciphertext at a
    time, so its keys and ciphertexts are bit for bit those, on both engines."""

    @pytest.mark.parametrize("engine", ["rns", "bigint"])
    def test_batch_equals_one_at_a_time(self, engine):
        params = toy_parameters(65537, n=32, log2_q=120)
        batched, single = (Bfv(params, seed=b"batched-setup", engine=engine) for _ in range(2))
        (sk, pk, _), (sk1, pk1, _) = batched.keygen(), single.keygen()
        steps = [1, 3, 5, -1, 3]
        galois = batched.rotation_keygen(sk, steps)
        ones = [single.rotation_keygen(sk1, [step]) for step in (1, 3, 5, -1)]
        assert list(galois.keys) == [g for one in ones for g in one.keys]
        for one in ones:
            ((element, parts),) = one.keys.items()
            assert galois.keys[element] == parts
        plains = [[(7 * i + k) % 65537 for i in range(32)] for k in range(3)]
        ints = batched.engine.to_ints
        for ct, plain in zip(batched.encrypt_polys(pk, plains), plains):
            one = single.encrypt_poly(pk1, plain)
            assert [ints(part) for part in ct.parts] == [ints(part) for part in one.parts]
            assert batched.decrypt_poly(sk, ct) == plain
