"""Soundness tests for the closed-form BFV noise ledger (repro.obs.noise).

The invariant under test everywhere: **modeled headroom <= measured
headroom** — the ledger may be pessimistic by any margin, but it must
never claim more budget than ``noise_budget_bits`` (which holds ``sk``)
actually finds. Hypothesis drives random plaintexts through every
scalar and tensor op the wrappers annotate, on both arithmetic engines
and at both PASTA prime widths.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ff.params import P17, P33
from repro.fhe import Bfv, BfvParams, toy_parameters
from repro.fhe.batching import BatchEncoder
from repro.obs.noise import NoiseEstimate, NoiseModel, divergence_report, lse

N = 128
LOG2_Q = 180

SCHEMES = {}


def scheme_for(p: int, engine: str) -> tuple:
    """One keyed scheme per (prime, engine), shared across examples."""
    key = (p, engine)
    if key not in SCHEMES:
        if engine == "rns":
            params = toy_parameters(p, n=N, log2_q=LOG2_Q)
        else:  # a power-of-two modulus, served by the big-int engine
            params = BfvParams(n=N, q=1 << LOG2_Q, p=p)
        scheme = Bfv(params, seed=b"noise-%d" % p, engine=engine)
        sk, pk, rlk = scheme.keygen()
        SCHEMES[key] = (scheme, sk, pk, rlk)
    return SCHEMES[key]


def assert_sound(scheme, sk, ct) -> None:
    modeled = scheme.noise_model.headroom_bits(ct.noise)
    measured = scheme.noise_budget_bits(sk, ct)
    assert modeled is not None
    assert modeled <= measured + 1e-9, (
        f"model optimistic: modeled headroom {modeled:.2f} > "
        f"measured {measured:.2f} after {ct.noise.ops} ops"
    )


configs = pytest.mark.parametrize(
    "p,engine",
    [(P17, "bigint"), (P17, "rns"), (P33, "bigint"), (P33, "rns")],
    ids=["p17-bigint", "p17-rns", "p33-bigint", "p33-rns"],
)


class TestLse:
    def test_pair(self):
        assert lse(3.0, 3.0) == pytest.approx(4.0)
        assert lse(10.0, 0.0) == pytest.approx(math.log2(2**10 + 1))

    def test_identity_and_empty(self):
        assert lse(5.0) == 5.0
        assert lse() == -math.inf
        assert lse(5.0, -math.inf) == 5.0

    @given(st.floats(0, 500), st.floats(0, 500))
    def test_dominates_max(self, a, b):
        out = lse(a, b)
        assert out >= max(a, b)
        assert out <= max(a, b) + 1.0


class TestScalarOps:
    @configs
    @given(m=st.integers(0, 2**16))
    def test_fresh(self, p, engine, m):
        scheme, sk, pk, _ = scheme_for(p, engine)
        ct = scheme.encrypt(pk, m % p)
        assert ct.noise is not None and ct.noise.ops == 1
        assert_sound(scheme, sk, ct)

    @configs
    @given(a=st.integers(0, 2**16), b=st.integers(0, 2**16))
    def test_add_and_plain_ops(self, p, engine, a, b):
        scheme, sk, pk, _ = scheme_for(p, engine)
        x = scheme.encrypt(pk, a % p)
        y = scheme.encrypt(pk, b % p)
        assert_sound(scheme, sk, scheme.add(x, y))
        assert_sound(scheme, sk, scheme.add_plain(x, b % p))
        assert_sound(scheme, sk, scheme.mul_plain(x, b % p))
        assert_sound(scheme, sk, scheme.neg(x))

    @configs
    @given(a=st.integers(0, 2**16), c=st.integers(0, 2**16))
    def test_plain_poly_ops(self, p, engine, a, c):
        scheme, sk, pk, _ = scheme_for(p, engine)
        encoder = BatchEncoder(N, p)
        ct = scheme.encrypt_poly(pk, encoder.constant(a % p))
        plain = encoder.constant(c % p)
        assert_sound(scheme, sk, scheme.add_plain_poly(ct, plain))
        assert_sound(scheme, sk, scheme.mul_plain_poly(ct, plain))

    @configs
    @given(a=st.integers(0, 2**16), b=st.integers(0, 2**16))
    def test_multiply_square_relin(self, p, engine, a, b):
        scheme, sk, pk, rlk = scheme_for(p, engine)
        x = scheme.encrypt(pk, a % p)
        y = scheme.encrypt(pk, b % p)
        assert_sound(scheme, sk, scheme.multiply_raw(x, y))
        assert_sound(scheme, sk, scheme.multiply(x, y, rlk))
        assert_sound(scheme, sk, scheme.square(x, rlk))

    @configs
    @settings(max_examples=10)
    @given(a=st.integers(0, 2**16), steps=st.integers(1, 3))
    def test_rotate(self, p, engine, a, steps):
        scheme, sk, pk, _ = scheme_for(p, engine)
        encoder = BatchEncoder(N, p)
        gk = scheme.rotation_keygen(sk, [steps])
        ct = scheme.encrypt_poly(pk, encoder.constant(a % p))
        assert_sound(scheme, sk, scheme.rotate_slots(ct, steps, gk))

    @configs
    @given(a=st.integers(0, 2**16))
    def test_deep_chain_stays_sound(self, p, engine, a):
        scheme, sk, pk, rlk = scheme_for(p, engine)
        ct = scheme.encrypt(pk, a % p)
        for _ in range(3):
            ct = scheme.add_plain(scheme.mul_plain(ct, 3), 1)
        ct = scheme.square(ct, rlk)
        assert ct.noise.ops > 5
        assert_sound(scheme, sk, ct)


class TestTensorOps:
    """The fused RNS kernels must carry the same bound as the scalar path."""

    @pytest.mark.parametrize("p", [P17, P33], ids=["p17", "p33"])
    @given(a=st.integers(0, 2**16), b=st.integers(0, 2**16))
    def test_stack_add_square_mul(self, p, a, b):
        scheme, sk, pk, rlk = scheme_for(p, "rns")
        encoder = BatchEncoder(N, p)
        cts = [
            scheme.encrypt_poly(pk, encoder.constant(v % p)) for v in (a, b)
        ]
        stack = scheme.stack_ciphertexts(cts)
        assert stack.noise is not None

        def worst_sound(tensor):
            for ct in scheme.unstack_ciphertexts(tensor):
                assert_sound(scheme, sk, ct)

        worst_sound(stack)
        worst_sound(scheme.tensor_add(stack, stack))
        worst_sound(scheme.tensor_neg(stack))
        worst_sound(scheme.tensor_square(stack, rlk))
        worst_sound(scheme.tensor_mul(stack, stack, rlk))

    @pytest.mark.parametrize("p", [P17, P33], ids=["p17", "p33"])
    @given(a=st.integers(0, 2**16), c=st.integers(0, 2**16))
    def test_plain_rows_and_affine(self, p, a, c):
        import numpy as np

        scheme, sk, pk, _ = scheme_for(p, "rns")
        encoder = BatchEncoder(N, p)
        cts = [
            scheme.encrypt_poly(pk, encoder.constant((a + i) % p)) for i in range(2)
        ]
        stack = scheme.stack_ciphertexts(cts)
        rows = encoder.encode_rows(np.full((2, N // 2), c % p, dtype=np.int64))
        add_rows = scheme.prepare_add_rows(rows)
        mul_rows = scheme.prepare_mul_rows(rows)
        matrix = scheme.prepare_matrix(
            encoder.encode_rows(
                np.full((4, N // 2), c % p, dtype=np.int64)
            ).reshape(2, 2, N)
        )
        for out in (
            scheme.tensor_add_plain_rows(stack, add_rows),
            scheme.tensor_mul_plain_rows(stack, mul_rows),
            scheme.tensor_affine(stack, matrix, add_rows),
            scheme.tensor_affine(stack, matrix),
        ):
            for ct in scheme.unstack_ciphertexts(out):
                assert_sound(scheme, sk, ct)

    @pytest.mark.parametrize("p", [P17, P33], ids=["p17", "p33"])
    @settings(max_examples=10)
    @given(a=st.integers(0, 2**16))
    def test_tensor_rotate(self, p, a):
        scheme, sk, pk, _ = scheme_for(p, "rns")
        encoder = BatchEncoder(N, p)
        gk = scheme.rotation_keygen(sk, [1])
        stack = scheme.stack_ciphertexts(
            [scheme.encrypt_poly(pk, encoder.constant(a % p))]
        )
        out = scheme.tensor_rotate(stack, 1, gk)
        for ct in scheme.unstack_ciphertexts(out):
            assert_sound(scheme, sk, ct)

    @pytest.mark.parametrize("p", [P17, P33], ids=["p17", "p33"])
    @settings(max_examples=10)
    @given(a=st.integers(0, 2**16), steps=st.integers(1, 3))
    def test_hoisted_rotate(self, p, a, steps):
        """The hoisted_rotation growth rule never claims budget the shared-
        decomposition rotation doesn't measurably have."""
        scheme, sk, pk, _ = scheme_for(p, "rns")
        encoder = BatchEncoder(N, p)
        gk = scheme.rotation_keygen(sk, [steps])
        stack = scheme.stack_ciphertexts(
            [scheme.encrypt_poly(pk, encoder.constant(a % p))]
        )
        digits = scheme.hoisted_decompose(stack)
        out = scheme.tensor_rotate_hoisted(stack, digits, steps, gk)
        assert out.noise is not None
        for ct in scheme.unstack_ciphertexts(out):
            assert_sound(scheme, sk, ct)


LEVELED = {}


def leveled_scheme_for(p: int, engine: str) -> tuple:
    """One keyed scheme per (prime, engine) on a 6-limb chain (both engines)."""
    key = (p, engine)
    if key not in LEVELED:
        scheme = Bfv(toy_parameters(p, n=N, log2_q=LOG2_Q), seed=b"levels-%d" % p, engine=engine)
        LEVELED[key] = (scheme, *scheme.keygen())
    return LEVELED[key]


def _levels(scheme, p):
    """Every level below the full chain whose modulus exceeds p."""
    return [k for k in range(1, scheme.level) if math.prod(scheme.params.rns_primes[:k]) > p]


class TestLevelOps:
    """The modulus switch and raise rules, per op, at every level."""

    @configs
    @settings(max_examples=8)
    @given(a=st.integers(0, 2**16), grow=st.booleans())
    def test_switch_and_raise(self, p, engine, a, grow):
        scheme, sk, pk, rlk = leveled_scheme_for(p, engine)
        encoder = BatchEncoder(N, p)
        ct = scheme.encrypt_poly(pk, encoder.constant(a % p))
        if grow:  # past a product the noise is far above the switch's terms
            ct = scheme.square(ct, rlk)
        levels = _levels(scheme, p)
        for level in levels:
            view = scheme.at_level(level)
            low = scheme.mod_switch(ct, level)
            assert_sound(view, sk, low)
            assert_sound(scheme, sk, view.mod_raise(low))
            if level - 1 in levels:  # a switch between two shorter levels
                assert_sound(view.at_level(level - 1), sk, view.mod_switch(low, level - 1))

    @pytest.mark.parametrize("p", [P17, P33], ids=["p17", "p33"])
    @settings(max_examples=5)
    @given(a=st.integers(0, 2**16))
    def test_tensor_switch_and_raise(self, p, a):
        scheme, sk, pk, rlk = leveled_scheme_for(p, "rns")
        encoder = BatchEncoder(N, p)
        stack = scheme.tensor_square(
            scheme.stack_ciphertexts(
                [scheme.encrypt_poly(pk, encoder.constant((a + i) % p)) for i in range(2)]
            ),
            rlk,
        )
        for level in _levels(scheme, p):
            view = scheme.at_level(level)
            low = scheme.tensor_mod_switch(stack, level)
            up = view.tensor_mod_raise(low)
            for tensor, at in ((low, view), (up, scheme)):
                for ct in at.unstack_ciphertexts(tensor):
                    assert_sound(at, sk, ct)

    def test_rules_and_level_models(self):
        params = toy_parameters(P17, n=N, log2_q=LOG2_Q)
        model = NoiseModel(params)
        low = model.at_level(3)
        assert model.at_level(3) is low and model.at_level(params.levels) is model
        assert low.log_q == pytest.approx(math.log2(params.at_level(3).q))
        assert low.ks_bits < model.ks_bits  # fewer digits cover q_k
        drop = model.log_q - low.log_q
        est = NoiseEstimate(150.0)
        assert model.mod_switch(est, low).bits == pytest.approx(
            lse(150.0 - drop, math.log2((1 + N) / 2), math.log2(P17))
        )
        assert low.mod_raise(est, model).bits == pytest.approx(
            drop + lse(150.0, math.log2(P17))
        )
        # Switching a grown estimate keeps its headroom to within a hair.
        assert low.headroom_bits(model.mod_switch(est, low)) == pytest.approx(
            model.headroom_bits(est), abs=1e-6
        )
        assert model.mod_switch(None, low) is None and low.mod_raise(None, model) is None


class TestNonePropagation:
    def test_handbuilt_ciphertext_stays_unannotated(self):
        scheme, sk, pk, rlk = scheme_for(P17, "rns")
        from repro.fhe.bfv import Ciphertext

        ct = scheme.encrypt(pk, 5)
        bare = Ciphertext(parts=ct.parts)  # provenance lost
        assert bare.noise is None
        assert scheme.add(bare, ct).noise is None
        assert scheme.multiply(bare, ct, rlk).noise is None
        assert scheme.noise_model.headroom_bits(None) is None
        assert scheme.noise_model.merge([ct.noise, None]) is None


class TestModelShape:
    def test_estimates_are_frozen_and_count_ops(self):
        est = NoiseEstimate(10.0)
        with pytest.raises(Exception):
            est.bits = 1.0
        assert est.grown(12.0).ops == 2

    def test_headroom_and_fraction(self):
        scheme, *_ = scheme_for(P17, "rns")
        model = scheme.noise_model
        est = NoiseEstimate(model.budget_bits / 2)
        assert model.headroom_bits(est) == pytest.approx(model.budget_bits / 2)
        assert model.noise_fraction(est) == pytest.approx(0.5)

    @configs
    def test_decryption_floor_is_the_rounding_boundary(self, p, engine):
        """About log2(p): a phase offset that keeps |v| under q/(2p) - p
        decrypts, one that takes it past q/(2p) + p does not."""
        from repro.fhe.bfv import Ciphertext

        scheme, sk, pk, _ = scheme_for(p, engine)
        model, q = scheme.noise_model, scheme.params.q
        assert model.decryption_floor_bits == pytest.approx(math.log2(p), abs=1e-6)
        fresh = math.ceil(2 ** model.fresh().bits)
        ct = scheme.encrypt(pk, 0)
        for offset, decrypts in (
            (q // (2 * p) - p - fresh, True),
            (q // (2 * p) + p + fresh, False),
        ):
            shifted = Ciphertext(parts=[scheme.engine.add_const(ct.parts[0], offset), ct.parts[1]])
            assert (scheme.decrypt(sk, shifted) == 0) is decrypts

    def test_model_reads_params(self):
        params = toy_parameters(P17, n=N, log2_q=LOG2_Q)
        model = NoiseModel(params)
        assert model.budget_bits == pytest.approx(math.log2(params.q) - 1.0)
        assert model.fresh().bits == pytest.approx(
            math.log2(params.eta) + math.log2(2 * N + 1)
        )

    def test_hoisted_rotation_is_one_keyswitch_term(self):
        model = NoiseModel(toy_parameters(P17, n=N, log2_q=LOG2_Q))
        est = model.fresh()
        assert model.hoisted_rotation(est).bits == pytest.approx(
            model.keyswitch(est).bits
        )


class TestDivergenceReport:
    def test_report_rows_sound_and_render(self):
        scheme, sk, pk, rlk = scheme_for(P17, "rns")
        x = scheme.encrypt(pk, 7)
        y = scheme.multiply(x, x, rlk)
        stack = scheme.stack_ciphertexts([x, y])
        report = divergence_report(
            scheme, sk, [("fresh", x), ("square", y), ("stack", stack)]
        )
        assert len(report.rows) == 3
        assert report.sound and not report.flagged()
        assert all(r.slack_bits >= 0 for r in report.rows)
        text = report.render()
        assert "fresh" in text and "ok" in text
        payload = report.to_dict()
        assert payload["sound"] is True
        assert len(payload["rows"]) == 3

    def test_unannotated_ciphertexts_are_skipped(self):
        scheme, sk, pk, _ = scheme_for(P17, "rns")
        from repro.fhe.bfv import Ciphertext

        ct = scheme.encrypt(pk, 1)
        bare = Ciphertext(parts=ct.parts)
        report = divergence_report(scheme, sk, [("bare", bare), ("fresh", ct)])
        assert [r.label for r in report.rows] == ["fresh"]
