"""Tests for the RNS/CRT polynomial engine.

Pins the tentpole equivalences: the vectorized NTT is bit-identical to the
scalar :class:`NegacyclicNtt` per prime, RNS-NTT products equal the exact
Kronecker products, and BFV on the RNS engine is bit-exact against the
scalar big-int reference engine (same seed => same keys, ciphertexts,
products, rotations, decryptions and noise budgets). RNS chains are
int64-only: a wider chain, or an operand over another chain, is refused.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ff.params import P17, P33, P54
from repro.fhe import (
    Bfv,
    CiphertextTensor,
    ExactBaseLift,
    ExactRescaler,
    RnsContext,
    RnsPoly,
    butterfly_fits_int64,
    get_ntt,
    get_rns_context,
    get_vec_ntt,
    negacyclic_mul_exact,
    ntt_prime_chain,
    toy_parameters,
)
from repro.fhe.rns import (
    AuxiliaryBasis,
    ExactBaseDigits,
    ExactModSwitch,
    float_error_bound,
    uniform_residues,
)
from repro.obs import get_registry

P = 65537
#: Prime widths of the int64 chains: the hhe_frame's 26, the default 30 and
#: 31, the widest width whose primes the int64 kernel admits.
INT64_PRIME_BITS = [26, 30, 31]


# -- prime chains ----------------------------------------------------------------


class TestPrimeChain:
    @given(
        n=st.sampled_from([16, 64, 256, 1024]),
        min_bits=st.integers(min_value=20, max_value=200),
        prime_bits=st.sampled_from([30, 40, 50, 60]),
    )
    @settings(max_examples=30, deadline=None)
    def test_chain_properties(self, n, min_bits, prime_bits):
        primes = ntt_prime_chain(n, min_bits, prime_bits)
        product = 1
        for q in primes:
            assert q.bit_length() <= prime_bits
            assert (q - 1) % (2 * n) == 0
            product *= q
        assert len(set(primes)) == len(primes)
        assert product.bit_length() >= min_bits
        # Deterministic: same arguments, same chain.
        assert primes == ntt_prime_chain(n, min_bits, prime_bits)

    def test_rejects_narrow_primes(self):
        with pytest.raises(ParameterError):
            ntt_prime_chain(1024, 60, prime_bits=10)


# -- residue conversion + vectorized NTT -----------------------------------------


def _coeffs_near_primes(rnd, primes, n):
    """Adversarial coefficients: clustered at 0, q_i - 1, and random."""
    edges = [0, 1] + [q - 1 for q in primes] + [q // 2 for q in primes]
    return [
        rnd.choice(edges) if rnd.random() < 0.5 else rnd.randrange(max(primes))
        for _ in range(n)
    ]


class TestRnsRoundtrip:
    @given(
        n=st.sampled_from([16, 64]),
        prime_bits=st.sampled_from(INT64_PRIME_BITS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_to_from_rns(self, n, prime_bits, seed):
        primes = ntt_prime_chain(n, 3 * prime_bits - 5, prime_bits)
        ctx = get_rns_context(n, primes)
        rnd = random.Random(seed)
        coeffs = [rnd.randrange(ctx.modulus) for _ in range(n)]
        assert ctx.from_rns(ctx.to_rns(coeffs)) == coeffs

    def test_centered_reconstruction(self):
        ctx = get_rns_context(16, ntt_prime_chain(16, 60))
        coeffs = [0, 1, ctx.modulus - 1, ctx.modulus // 2]  + [5] * 12
        centered = ctx.from_rns_centered(ctx.to_rns(coeffs))
        assert centered[0] == 0 and centered[1] == 1 and centered[2] == -1
        assert all(-ctx.modulus // 2 <= c <= ctx.modulus // 2 for c in centered)

    def test_dtype_predicate(self):
        assert butterfly_fits_int64((1 << 30) + 1)
        assert not butterfly_fits_int64(1 << 62)
        assert get_vec_ntt(16, ntt_prime_chain(16, 60, 30)).dtype == np.int64
        assert get_vec_ntt(16, ntt_prime_chain(16, 110, 60)).dtype == object


class TestVecNttMatchesScalar:
    @given(
        n=st.sampled_from([16, 64]),
        prime_bits=st.sampled_from([30, 60]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_forward_inverse_per_prime(self, n, prime_bits, seed):
        primes = ntt_prime_chain(n, 2 * prime_bits - 3, prime_bits)
        vec = get_vec_ntt(n, primes)
        rnd = random.Random(seed)
        rows = [[rnd.randrange(q) for _ in range(n)] for q in primes]
        fwd = vec.forward(rows)
        inv = vec.inverse(fwd)
        for i, q in enumerate(primes):
            scalar = get_ntt(n, q)
            assert [int(c) for c in fwd[i]] == scalar.forward(rows[i])
            assert [int(c) for c in inv[i]] == rows[i]

    @given(
        n=st.sampled_from([16, 64]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_multiply_per_prime(self, n, seed):
        primes = ntt_prime_chain(n, 58, 30)
        vec = get_vec_ntt(n, primes)
        rnd = random.Random(seed)
        a = [[rnd.randrange(q) for _ in range(n)] for q in primes]
        b = [[rnd.randrange(q) for _ in range(n)] for q in primes]
        prod = vec.multiply(np.array(a), np.array(b))
        for i, q in enumerate(primes):
            assert [int(c) for c in prod[i]] == get_ntt(n, q).multiply(a[i], b[i])


# -- the three-way multiply equivalence (satellite) -------------------------------


class TestMultiplyEquivalence:
    """RNS-NTT multiply == negacyclic_mul_exact == per-prime NTT multiply."""

    @given(
        prime_bits=st.sampled_from(INT64_PRIME_BITS),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_n16(self, prime_bits, seed):
        self._check(16, prime_bits, seed)

    @given(
        prime_bits=st.sampled_from([26, 31]),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=4, deadline=None)
    def test_n1024(self, prime_bits, seed):
        self._check(1024, prime_bits, seed)

    def _check(self, n, prime_bits, seed):
        primes = ntt_prime_chain(n, 2 * prime_bits - 3, prime_bits)
        ctx = get_rns_context(n, primes)
        rnd = random.Random(seed)
        a = _coeffs_near_primes(rnd, primes, n)
        b = _coeffs_near_primes(rnd, primes, n)
        # The RNS pointwise product mod q (via RnsPoly) is the exact integer
        # product reduced mod q.
        rns_mod_q = RnsPoly.from_ints(ctx, a).mul(RnsPoly.from_ints(ctx, b)).to_ints()
        assert rns_mod_q == [c % ctx.modulus for c in negacyclic_mul_exact(a, b)]

    @given(
        prime_bits=st.sampled_from([30, 40, 50, 60]),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_per_prime_transforms_at_any_width(self, prime_bits, seed):
        """The vectorized (object path above 31 bits) and scalar NTT multiply,
        prime by prime, equal the exact product reduced mod that prime."""
        n = 16
        primes = ntt_prime_chain(n, 2 * prime_bits - 3, prime_bits)
        rnd = random.Random(seed)
        a = _coeffs_near_primes(rnd, primes, n)
        b = _coeffs_near_primes(rnd, primes, n)
        exact = negacyclic_mul_exact(a, b)
        rows = lambda x: np.array([[c % q for c in x] for q in primes], dtype=object)
        vec = get_vec_ntt(n, primes).multiply(rows(a), rows(b))
        for i, q in enumerate(primes):
            expected = [c % q for c in exact]
            assert get_ntt(n, q).multiply([c % q for c in a], [c % q for c in b]) == expected
            assert [int(c) for c in vec[i]] == expected


# -- the eval-domain representation -----------------------------------------------


def _count_inverses(monkeypatch, ctx):
    calls = []
    inverse = ctx.inverse
    monkeypatch.setattr(ctx, "inverse", lambda mat: calls.append(1) or inverse(mat))
    return calls


class TestRnsPolyLaziness:
    """RnsPoly holds only its eval-domain matrix: ring operations never
    transform, and only ``to_ints`` / ``centered`` apply the inverse."""

    def _ctx(self):
        return get_rns_context(16, ntt_prime_chain(16, 58))

    def test_eval_stays_eval(self, monkeypatch):
        ctx = self._ctx()
        a = RnsPoly.from_ints(ctx, list(range(16)))
        b = RnsPoly.from_ints(ctx, list(range(1, 17)))
        inverses = _count_inverses(monkeypatch, ctx)
        chained = a.mul(b).add(a.mul(a)).sub(b).neg().scalar_mul(7).add_const(3)
        assert inverses == []
        assert isinstance(chained.eval_mat(), np.ndarray)

    def test_exits_apply_one_inverse(self, monkeypatch):
        ctx = self._ctx()
        coeffs = [0, 1, ctx.modulus - 1] + list(range(13))
        a = RnsPoly.from_ints(ctx, coeffs)
        assert np.array_equal(a.eval_mat(), ctx.forward(ctx.to_rns(coeffs)))
        inverses = _count_inverses(monkeypatch, ctx)
        assert a.to_ints() == coeffs and len(inverses) == 1
        assert a.centered()[:3] == [0, 1, -1] and len(inverses) == 2

    def test_arithmetic_matches_bigint(self):
        ctx = self._ctx()
        q = ctx.modulus
        rnd = random.Random(11)
        av = [rnd.randrange(q) for _ in range(16)]
        bv = [rnd.randrange(q) for _ in range(16)]
        a, b = RnsPoly.from_ints(ctx, av), RnsPoly.from_ints(ctx, bv)
        assert a.add(b).to_ints() == [(x + y) % q for x, y in zip(av, bv)]
        assert a.sub(b).to_ints() == [(x - y) % q for x, y in zip(av, bv)]
        assert a.neg().to_ints() == [(-x) % q for x in av]
        assert a.scalar_mul(12345).to_ints() == [x * 12345 % q for x in av]
        expected = list(av)
        expected[0] = (expected[0] + 999) % q
        assert a.add_const(999).to_ints() == expected
        # add_const on an eval-domain poly (flat constant path)
        ae = a.mul(RnsPoly.from_ints(ctx, [1] + [0] * 15))
        assert ae.add_const(999).to_ints() == expected


# -- engine parity on the full scheme ---------------------------------------------


@pytest.fixture(scope="module")
def parity():
    params = toy_parameters(P, n=64, log2_q=120)
    rns = Bfv(params, seed=b"parity", engine="rns")
    ref = Bfv(params, seed=b"parity", engine="bigint")
    return params, rns, ref


class TestEngineParity:
    def test_engine_selection(self, parity):
        _, rns, ref = parity
        assert rns.engine_name == "rns" and ref.engine_name == "bigint"
        assert Bfv(parity[0], seed=b"x").engine_name == "rns"  # auto

    def test_full_protocol_bit_exact(self, parity):
        params, rns, ref = parity
        sk_a, pk_a, rlk_a = rns.keygen()
        sk_b, pk_b, rlk_b = ref.keygen()
        assert rns.engine.to_ints(sk_a.s) == ref.engine.to_ints(sk_b.s)
        assert rns.engine.to_ints(pk_a.b) == ref.engine.to_ints(pk_b.b)
        for (ba, aa), (bb, ab) in zip(rlk_a.parts, rlk_b.parts):
            assert rns.engine.to_ints(ba) == ref.engine.to_ints(bb)
            assert rns.engine.to_ints(aa) == ref.engine.to_ints(ab)

        ct_a = rns.encrypt(pk_a, 1234)
        ct_b = ref.encrypt(pk_b, 1234)
        assert [rns.engine.to_ints(p) for p in ct_a.parts] == [
            ref.engine.to_ints(p) for p in ct_b.parts
        ]

        sq_a = rns.square(ct_a, rlk_a)
        sq_b = ref.square(ct_b, rlk_b)
        assert [rns.engine.to_ints(p) for p in sq_a.parts] == [
            ref.engine.to_ints(p) for p in sq_b.parts
        ]
        assert rns.decrypt(sk_a, sq_a) == pow(1234, 2, P) == ref.decrypt(sk_b, sq_b)
        # ISSUE criterion: noise budget within 1 bit — bit-exact, so exactly 0.
        assert rns.noise_budget_bits(sk_a, sq_a) == ref.noise_budget_bits(sk_b, sq_b)

    def test_plain_poly_ops_bit_exact(self, parity):
        params, rns, ref = parity
        sk_a, pk_a, _ = rns.keygen()
        sk_b, pk_b, _ = ref.keygen()
        rnd = random.Random(5)
        plain = [rnd.randrange(P) for _ in range(params.n)]
        msg = [rnd.randrange(P) for _ in range(params.n)]
        ct_a = rns.encrypt_poly(pk_a, msg)
        ct_b = ref.encrypt_poly(pk_b, msg)
        out_a = rns.add_plain_poly(rns.mul_plain_poly(ct_a, plain), plain)
        out_b = ref.add_plain_poly(ref.mul_plain_poly(ct_b, plain), plain)
        assert [rns.engine.to_ints(p) for p in out_a.parts] == [
            ref.engine.to_ints(p) for p in out_b.parts
        ]
        assert rns.decrypt_poly(sk_a, out_a) == ref.decrypt_poly(sk_b, out_b)

    @pytest.mark.parametrize(
        "p, log2_q", [(P, 120), (P33, 200)], ids=["omega17", "omega33"]
    )
    def test_products_and_rotations_bit_exact(self, p, log2_q):
        """The per-ciphertext CRT crossings (tensor product, relinearization
        and key-switch digits) against the oracle: a product of two distinct
        ciphertexts, a square and slot rotations, bit-exact in ``to_ints``."""
        params = toy_parameters(p, n=64, log2_q=log2_q)
        rns = Bfv(params, seed=b"parity-ops", engine="rns")
        ref = Bfv(params, seed=b"parity-ops", engine="bigint")
        (sk_a, pk_a, rlk_a), (sk_b, pk_b, rlk_b) = rns.keygen(), ref.keygen()
        gk_a, gk_b = rns.rotation_keygen(sk_a, [1, -3]), ref.rotation_keygen(sk_b, [1, -3])
        rnd = random.Random(p)
        msgs = [[rnd.randrange(p) for _ in range(params.n)] for _ in range(2)]
        x_a, y_a = (rns.encrypt_poly(pk_a, m) for m in msgs)
        x_b, y_b = (ref.encrypt_poly(pk_b, m) for m in msgs)

        def same(ct_a, ct_b):
            assert [rns.engine.to_ints(q) for q in ct_a.parts] == [
                ref.engine.to_ints(q) for q in ct_b.parts
            ]

        raw_a, raw_b = rns.multiply_raw(x_a, y_a), ref.multiply_raw(x_b, y_b)
        same(raw_a, raw_b)
        prod_a, prod_b = rns.relinearize(raw_a, rlk_a), ref.relinearize(raw_b, rlk_b)
        same(prod_a, prod_b)
        same(rns.square(y_a, rlk_a), ref.square(y_b, rlk_b))
        for steps in (1, -3):
            rot_a, rot_b = rns.rotate_slots(prod_a, steps, gk_a), ref.rotate_slots(prod_b, steps, gk_b)
            same(rot_a, rot_b)
            assert rns.decrypt_poly(sk_a, rot_a) == ref.decrypt_poly(sk_b, rot_b)
        assert rns.noise_budget_bits(sk_a, prod_a) == ref.noise_budget_bits(sk_b, prod_b) > 0


class TestFailClosed:
    """RNS chains are int64-only, and operands must share one chain."""

    WIDE = toy_parameters(P, n=64, log2_q=120, prime_bits=60)

    def test_wide_chain_refused(self):
        with pytest.raises(ParameterError, match="int64"):
            RnsContext(self.WIDE.n, self.WIDE.rns_primes)
        for engine in ("rns", "auto"):
            with pytest.raises(ParameterError, match="bigint"):
                Bfv(self.WIDE, engine=engine)

    def test_bigint_serves_the_wide_chain(self):
        scheme = Bfv(self.WIDE, seed=b"wide", engine="bigint")
        sk, pk, rlk = scheme.keygen()
        product = scheme.multiply(scheme.encrypt(pk, 123), scheme.encrypt(pk, 456), rlk)
        assert scheme.decrypt(sk, product) == 123 * 456 % P

    def test_unhostable_relinearization_base_refused_at_construction(self):
        params = dataclasses.replace(toy_parameters(P, n=64, log2_q=120), relin_base_bits=7)
        with pytest.raises(ParameterError, match="bigint"):
            Bfv(params, engine="rns")

    @pytest.fixture(scope="class")
    def chains(self):
        """Two schemes at N = 64 whose 4-limb chains differ only in their primes."""
        own = Bfv(toy_parameters(P, n=64, log2_q=120, prime_bits=30), seed=b"own")
        other = Bfv(toy_parameters(P, n=64, log2_q=116, prime_bits=29), seed=b"other")
        assert len(own.params.rns_primes) == len(other.params.rns_primes) == 4
        return [(scheme, *scheme.keygen()) for scheme in (own, other)]

    def test_foreign_chain_operands_refused(self, chains):
        (own, sk, pk, _), (other, other_sk, other_pk, other_rlk) = chains
        ct = own.encrypt(pk, 5)
        foreign = other.encrypt(other_pk, 7)
        other_gk = other.rotation_keygen(other_sk, [1])
        with pytest.raises(ParameterError, match="RNS basis"):
            own.add(ct, foreign)
        with pytest.raises(ParameterError, match="RNS basis"):
            own.multiply(ct, ct, other_rlk)
        with pytest.raises(ParameterError, match="RNS basis"):
            own.rotate_slots(ct, 1, other_gk)
        # The automorphism must not relabel a foreign ciphertext as its own.
        with pytest.raises(ParameterError, match="RNS basis"):
            own.rotate_slots(foreign, 1, own.rotation_keygen(sk, [1]))

    def test_equal_chain_contexts_interoperate(self, chains):
        """A context equal by (n, primes) is the same basis, even if it is
        a different object."""
        own, sk, pk, _ = chains[0]
        ctx = own.engine.ctx
        twin = RnsContext(ctx.n, ctx.primes)
        assert twin is not ctx
        ct = own.encrypt(pk, 5)
        moved = [RnsPoly(twin, part.eval_mat()) for part in ct.parts]
        total = own.add(ct, type(ct)(parts=moved, noise=ct.noise))
        assert own.decrypt(sk, total) == 10


# -- base transports + tensor kernels ---------------------------------------------


def _random_residues(rnd, ctx, shape):
    """Uniform residue tensor of ``shape + (L, n)``."""
    out = np.empty(shape + (len(ctx.primes), ctx.n), dtype=np.int64)
    flat = out.reshape(-1, len(ctx.primes), ctx.n)
    for block in flat:
        for row, q in zip(block, ctx.primes):
            row[:] = [rnd.randrange(q) for _ in range(ctx.n)]
    return out


#: Chain lengths of the projection tests: one and two primes, the
#: hhe_frame's 10-limb ciphertext chain and its 18-prime extended basis.
PROJECTION_LIMBS = [1, 2, 10, 18]


def _chain(n, limbs, prime_bits):
    """The first ``limbs`` primes of a ``prime_bits``-wide chain."""
    return ntt_prime_chain(n, 18 * prime_bits, prime_bits)[:limbs]


def _band_values(rnd, ctx, centered, count):
    """Values whose float64 ``k`` lands inside the guard band: within a
    quarter band of the rounding edge (0 or q canonical, q / 2 centered).
    The canonical 0 itself is left out: its sum is exactly 0, so it takes
    no exact path. Empty on a chain too short for the band to reach past
    the edge."""
    q = ctx.modulus
    reach = int(ctx.band * q / 4)
    out = []
    for _ in range(count if reach > 1 else 0):
        off = rnd.randrange(1, reach)
        out += [q // 2 - off, q // 2 + 1 + off] if centered else [off, q - 1 - off]
    return out


def _fallbacks(stage=None):
    return sum(
        c.value
        for c in get_registry().collect("fhe.crt.exact_fallbacks")
        if stage is None or c.labels["stage"] == stage
    )


class TestBaseTransport:
    @pytest.mark.parametrize("prime_bits", [26, 30])
    @given(
        limbs=st.sampled_from(PROJECTION_LIMBS),
        centered=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_projection_is_exact(self, prime_bits, limbs, centered, seed):
        """``sum_i y_i q̂_i - k q`` is the canonical (or centered) value,
        exactly, at the rounding edges and inside the guard band too."""
        n = 32
        ctx = RnsContext(n, _chain(n, limbs, prime_bits))
        q = ctx.modulus
        rnd = random.Random(seed)
        edges = [0, 1, q - 1, q // 2, q // 2 + 1]
        band = _band_values(rnd, ctx, centered, 4)
        coeffs = [c % q for c in _coeffs_near_primes(rnd, ctx.primes, n)]
        coeffs = (edges + band + coeffs)[:n]
        before = _fallbacks("projection")
        y, k = ctx.project(ctx.to_rns(coeffs), centered=centered, transport="test")
        hats = [q // qi for qi in ctx.primes]
        got = [
            sum(int(y[i, c]) * hats[i] for i in range(limbs)) - int(k[c]) * q
            for c in range(n)
        ]
        if centered:
            assert got == [c - q if c > q // 2 else c for c in coeffs]
        else:
            assert got == coeffs
        # Every value built inside the band took the exact path.
        assert _fallbacks("projection") - before >= len(band)
        # x = 0 sums to exactly 0: k = 0 without the exact path.
        before = _fallbacks("projection")
        y, k = ctx.project(ctx.to_rns([0] * n), centered=centered, transport="test")
        assert not y.any() and not k.any()
        assert _fallbacks("projection") == before

    @pytest.mark.parametrize("prime_bits", [26, 30])
    @given(
        limbs=st.sampled_from(PROJECTION_LIMBS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_digits_match_bigint_divmod(self, prime_bits, limbs, seed):
        n = 32
        ctx = RnsContext(n, _chain(n, limbs, prime_bits))
        count = -(-ctx.modulus.bit_length() // 62)
        digits = ExactBaseDigits(ctx, 62, count)
        rnd = random.Random(seed)
        coeffs = [c % ctx.modulus for c in _coeffs_near_primes(rnd, ctx.primes, n)]
        coeffs = ([0, 1, ctx.modulus - 1] + _band_values(rnd, ctx, False, 2) + coeffs)[:n]
        got = digits.digits(ctx.to_rns(coeffs))
        for d in range(count):
            expected = [(c >> (62 * d)) & ((1 << 62) - 1) for c in coeffs]
            assert got[d].tolist() == [[e % qi for e in expected] for qi in ctx.primes]

    def test_forced_fallbacks_match_the_float_path(self, monkeypatch):
        """With the guard bands widened over every coefficient, the exact-int
        path returns the same arrays as the float64 estimates."""
        n = 64
        src = RnsContext(n, _chain(n, 10, 26))
        ext = RnsContext(n, _chain(n, 18, 30))
        lift = ExactBaseLift(src, ext.primes)
        digits = ExactBaseDigits(src, 62, 5)
        rescaler = ExactRescaler(ext, P, src)
        x_src = _random_residues(random.Random(3), src, (2,))
        x_ext = _random_residues(random.Random(4), ext, (3,))
        fast = [lift.lift_centered(x_src), digits.digits(x_src), rescaler.rescale(x_ext)]
        assert _fallbacks() == 0
        monkeypatch.setattr(src, "band", 1.0)
        monkeypatch.setattr(ext, "band", 1.0)
        monkeypatch.setattr(rescaler, "band", 1.0)
        exact = [lift.lift_centered(x_src), digits.digits(x_src), rescaler.rescale(x_ext)]
        for a, b in zip(fast, exact):
            assert np.array_equal(a, b)
        # Projection: the lift's and the digit call's (2, N) coefficients
        # plus the rescale's (3, N); the rescale's quotient: (3, N) again.
        assert _fallbacks("projection") == (2 + 2 + 3) * n
        assert _fallbacks("quotient") == 3 * n

    def test_rescaler_band_is_four_times_its_bound(self):
        """The rescaler's guard band follows its own float64 error bound,
        and a basis whose band would pass 1/64 is refused."""
        n = 64
        ext = RnsContext(n, _chain(n, 18, 30))
        rescaler = ExactRescaler(ext, P, RnsContext(n, _chain(n, 10, 26)))
        assert rescaler.band == 4 * float_error_bound(19, max(ext.primes))
        assert 2.0**-13 < rescaler.band < 2.0**-12
        assert ext.band == 4 * float_error_bound(18, 1)
        # 130 31-bit primes: 4 (L + 3)^2 2^31 2^-53 passes 1/64.
        wide = RnsContext(16, ntt_prime_chain(16, 130 * 31, 31))
        with pytest.raises(ParameterError, match="float guard"):
            ExactRescaler(wide, P, ext)

    @given(
        n=st.sampled_from([16, 64]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_lift_centered_matches_scalar(self, n, seed):
        src = get_rns_context(n, ntt_prime_chain(n, 100, 26))
        dst_primes = ntt_prime_chain(n, 80, 30)
        lift = ExactBaseLift(src, dst_primes)
        rnd = random.Random(seed)
        coeffs = [c % src.modulus for c in _coeffs_near_primes(rnd, src.primes, n)]
        got = lift.lift_centered(src.to_rns(coeffs))
        centered = [c - src.modulus if c > src.modulus // 2 else c for c in coeffs]
        expected = [[c % p for c in centered] for p in dst_primes]
        assert got.tolist() == expected

    @given(
        n=st.sampled_from([16, 64]),
        ext_bits=st.sampled_from([120, 200, 300]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_rescaler_matches_bigint_round_div(self, n, ext_bits, seed):
        ext = get_rns_context(n, ntt_prime_chain(n, ext_bits, 26))
        dst = get_rns_context(n, ntt_prime_chain(n, 60, 30))
        numerator = P
        rescaler = ExactRescaler(ext, numerator, dst)
        rnd = random.Random(seed)
        coeffs = [c % ext.modulus for c in _coeffs_near_primes(rnd, ext.primes, n)]
        got = rescaler.rescale(ext.to_rns(coeffs))
        q = dst.modulus
        expected_rows = []
        for ql in dst.primes:
            row = []
            for c in coeffs:
                centered = c - ext.modulus if c > ext.modulus // 2 else c
                num = numerator * centered
                row.append(((2 * num + q) // (2 * q)) % ql)
            expected_rows.append(row)
        assert got.tolist() == expected_rows


# -- RNS levels: modulus switching -------------------------------------------------


def _switch_edges(rnd, q, big_p, count):
    """Values ``a P + (P -+ 1)/2``: the rounding edges of ``round(c / P)``."""
    out = []
    for _ in range(count):
        a = rnd.randrange(q // big_p)
        out += [a * big_p + (big_p - 1) // 2, a * big_p + (big_p + 1) // 2]
    return [v % q for v in out]


class TestExactModSwitch:
    @pytest.mark.parametrize("prime_bits", [26, 30])
    @given(
        limbs=st.sampled_from([2, 3, 10]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_down_and_up_match_bigint(self, prime_bits, limbs, seed):
        """``down`` is round(c / P) mod q_k and ``up`` is P c mod q, for
        every prefix, at the rounding edges too."""
        n = 32
        src = get_rns_context(n, _chain(n, limbs, prime_bits))
        rnd = random.Random(seed)
        q = src.modulus
        for keep in range(1, limbs):
            dst = get_rns_context(n, src.primes[:keep])
            switch = ExactModSwitch(src, dst)
            big_p = q // dst.modulus
            coeffs = [c % q for c in _coeffs_near_primes(rnd, src.primes, n)]
            coeffs = ([0, 1, q - 1] + _switch_edges(rnd, q, big_p, 4) + coeffs)[:n]
            down = switch.down(src.forward(src.to_rns(coeffs)))
            expected = [(2 * c + big_p) // (2 * big_p) % dst.modulus for c in coeffs]
            assert dst.from_rns(dst.inverse(down)) == expected
            up = switch.up(down)
            assert src.from_rns(src.inverse(up)) == [c * big_p % q for c in expected]

    def test_forced_fallbacks_are_labeled_and_exact(self, monkeypatch):
        n = 64
        src = get_rns_context(n, _chain(n, 10, 26))
        switch = ExactModSwitch(src, get_rns_context(n, src.primes[:5]))
        x = src.forward(_random_residues(random.Random(5), src, (2,)))
        fast = switch.down(x)
        monkeypatch.setattr(switch.dropped, "band", 1.0)
        before = get_registry().counter(
            "fhe.crt.exact_fallbacks", transport="mod_switch", stage="projection"
        ).value
        assert np.array_equal(switch.down(x), fast)
        after = get_registry().counter(
            "fhe.crt.exact_fallbacks", transport="mod_switch", stage="projection"
        ).value
        assert after - before == 2 * n

    def test_only_a_proper_prefix_is_accepted(self):
        n = 32
        src = get_rns_context(n, _chain(n, 4, 30))
        for dst_primes in (src.primes, src.primes[1:3], _chain(n, 3, 26)):
            with pytest.raises(ParameterError, match="prefix"):
                ExactModSwitch(src, get_rns_context(n, dst_primes))


@pytest.fixture(scope="module")
def leveled():
    """Per (prime width, plaintext prime): one 6-limb chain at N = 32 under
    both engines, keyed from the same seed."""
    built = {}

    def rig(prime_bits, p):
        if (prime_bits, p) not in built:
            params = toy_parameters(p, n=32, log2_q=6 * prime_bits - 4, prime_bits=prime_bits)
            schemes = [Bfv(params, seed=b"levels", engine=e) for e in ("rns", "bigint")]
            built[(prime_bits, p)] = [(s, *s.keygen()) for s in schemes]
        return built[(prime_bits, p)]

    return rig


class TestLevelParity:
    """``Bfv.mod_switch`` / ``mod_raise`` on the RNS engine against the
    ``BigintEngine`` oracle, at every level of the chain."""

    @pytest.mark.parametrize("prime_bits", [26, 30])
    @pytest.mark.parametrize("p", [P17, P33], ids=["p17", "p33"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_every_level_bit_exact(self, leveled, prime_bits, p, seed):
        (rns, sk_a, pk_a, rlk_a), (ref, sk_b, pk_b, rlk_b) = leveled(prime_bits, p)
        msg = np.random.default_rng(seed).integers(0, p, size=rns.params.n).tolist()
        # Same draws on both engines: bit-identical ciphertexts, then a
        # square so the switched noise is large.
        ct_a = rns.square(rns.encrypt_poly(pk_a, msg), rlk_a)
        ct_b = ref.square(ref.encrypt_poly(pk_b, msg), rlk_b)
        square = ref.decrypt_poly(sk_b, ct_b)
        full = rns.level
        for level in range(1, full):
            if math.prod(rns.params.rns_primes[:level]) <= p:
                with pytest.raises(ParameterError):
                    rns.at_level(level)
                continue
            low_a, low_b = rns.mod_switch(ct_a, level), ref.mod_switch(ct_b, level)
            view_a, view_b = rns.at_level(level), ref.at_level(level)
            assert view_a.params == view_b.params == rns.params.at_level(level)
            assert [view_a.engine.to_ints(x) for x in low_a.parts] == [
                view_b.engine.to_ints(x) for x in low_b.parts
            ]
            assert low_a.noise == low_b.noise
            up_a, up_b = view_a.mod_raise(low_a), view_b.mod_raise(low_b)
            assert [rns.engine.to_ints(x) for x in up_a.parts] == [
                ref.engine.to_ints(x) for x in up_b.parts
            ]
            if view_a.noise_model.headroom_bits(low_a.noise) > 0:
                assert view_a.decrypt_poly(sk_a, low_a) == square
                assert rns.decrypt_poly(sk_a, up_a) == square

    def test_views_are_cached_and_share_the_keys(self, leveled):
        (rns, _, _, rlk), _ = leveled(30, P17)
        view = rns.at_level(3)
        assert rns.at_level(3) is view and view.at_level(3) is view
        assert view.at_level(rns.level) is rns and rns.at_level(rns.level) is rns
        assert view.params.relin_parts == -(-view.params.q.bit_length() // 62)
        assert view.params.delta == view.params.q // P17
        full_b, full_a = rns._relin_key_stacks(rlk)
        low_b, low_a = view._relin_key_stacks(rlk)
        digits = view.params.relin_parts
        assert np.array_equal(low_b, full_b[:digits, :3])
        assert np.array_equal(low_a, full_a[:digits, :3])

    def test_switch_direction_and_range_refused(self, leveled):
        (rns, sk, pk, _), _ = leveled(30, P17)
        ct = rns.encrypt(pk, 1)
        with pytest.raises(ParameterError):
            rns.mod_switch(ct, rns.level)
        with pytest.raises(ParameterError):
            rns.mod_raise(ct)
        with pytest.raises(ParameterError):
            rns.at_level(rns.level + 1)
        with pytest.raises(ParameterError):
            rns.at_level(0)
        # A level view reduces only a key over a chain that extends its own.
        (_, foreign_sk, _, _), _ = leveled(26, P17)
        low = rns.mod_switch(ct, 3)
        with pytest.raises(ParameterError, match="extending"):
            rns.at_level(3).decrypt(foreign_sk, low)


class TestAuxiliaryBasis:
    """Layer 0's products in the auxiliary basis equal the chain's, residue
    for residue, at both prime widths and p in {P17, P33}."""

    @pytest.mark.parametrize("prime_bits", [26, 30])
    @pytest.mark.parametrize("p", [P17, P33], ids=["p17", "p33"])
    @given(
        n=st.sampled_from([64, 256]),
        terms=st.sampled_from([1, 4, 64]),
        limbs=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_product_equals_the_chain_product(self, prime_bits, p, n, terms, limbs, seed):
        ctx = get_rns_context(n, _chain(n, limbs, prime_bits))
        basis = AuxiliaryBasis(ctx, terms, p // 2)
        bound = 2 * terms * n * (p // 2) * ((max(ctx.primes) - 1) // 2)
        assert basis.aux.modulus > bound
        assert basis.aux.modulus // max(basis.aux.primes) <= bound  # the fewest primes
        rng = np.random.default_rng(seed)
        half = p // 2
        # The extremes the bound covers: plaintexts and key limbs at their
        # largest magnitude, then uniform draws.
        plains = rng.integers(-half, half + 1, size=(2, terms, n))
        plains[0, :, : n // 2] = half
        key = _random_residues(random.Random(seed), ctx, (terms, 2))
        key[0, :, :, : n // 2] = (np.array(ctx.primes) // 2)[:, None]
        key = ctx.forward(key)
        expected = ctx.matmul_mod(ctx.forward(ctx.to_rns_batch(plains)), key)
        got = basis.product(basis.prepare(plains), basis.convert(key))
        assert np.array_equal(got, expected)

    def test_basis_sizes(self):
        """Two 29-bit primes at hhe_frame's shape (2t = 64, N = 512, 26-bit
        chain, p = 65537), three at p = P33 or against 30-bit primes at
        N = 256."""
        frame = get_rns_context(512, _chain(512, 10, 26))
        service = get_rns_context(256, _chain(256, 8, 30))
        for ctx, terms, p, primes in ((frame, 64, P17, 2), (frame, 64, P33, 3),
                                      (service, 4, P17, 2), (service, 64, P17, 3)):
            assert len(AuxiliaryBasis(ctx, terms, p // 2).aux.primes) == primes

    @given(
        nbytes=st.integers(min_value=1, max_value=300),
        prime_bits=st.sampled_from([26, 30, 31]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_uniform_residues_match_to_rns(self, nbytes, prime_bits, seed):
        primes = _chain(16, 10, prime_bits)
        raw = np.random.default_rng(seed).integers(0, 256, size=(3, 16, nbytes), dtype=np.uint8)
        raw[0, 0] = 255  # the largest value of the width
        got = uniform_residues(raw, primes)
        ctx = get_rns_context(16, primes)
        for row, residues in zip(raw, got):
            values = [int.from_bytes(c.tobytes(), "little") for c in row]
            assert np.array_equal(residues, ctx.to_rns(values))


class TestBatchedContractions:
    @given(
        n=st.sampled_from([16, 64]),
        prime_bits=st.sampled_from([26, 30]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_matmul_mod_matches_object_einsum(self, n, prime_bits, seed):
        ctx = get_rns_context(n, ntt_prime_chain(n, 110, prime_bits))
        rnd = random.Random(seed)
        q_col = np.array(ctx.primes, dtype=np.int64).reshape(-1, 1)
        matrix = _random_residues(rnd, ctx, (3, 2))
        state = _random_residues(rnd, ctx, (2, 2))
        got = ctx.matmul_mod(matrix, state)
        ref = np.einsum(
            "jkln,kpln->jpln", matrix.astype(object), state.astype(object)
        ) % q_col
        assert (got == ref).all()

    @given(
        n=st.sampled_from([16, 64]),
        prime_bits=st.sampled_from([26, 30]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_weighted_sum_mod_matches_object_einsum(self, n, prime_bits, seed):
        ctx = get_rns_context(n, ntt_prime_chain(n, 110, prime_bits))
        rnd = random.Random(seed)
        q_col = np.array(ctx.primes, dtype=np.int64).reshape(-1, 1)
        digits = _random_residues(rnd, ctx, (2, 4))
        weights = _random_residues(rnd, ctx, (4,))
        got = ctx.weighted_sum_mod(digits, weights)
        ref = np.einsum(
            "bdln,dln->bln", digits.astype(object), weights.astype(object)
        ) % q_col
        assert (got == ref).all()


class TestCiphertextTensor:
    @pytest.fixture(scope="class")
    def scheme(self):
        return Bfv(toy_parameters(P, n=64, log2_q=120, prime_bits=26), seed=b"tensor")

    def test_stack_unstack_roundtrip(self, scheme):
        _, pk, _ = scheme.keygen()
        rnd = random.Random(11)
        cts = [
            scheme.encrypt_poly(pk, [rnd.randrange(P) for _ in range(64)])
            for _ in range(5)
        ]
        tensor = scheme.stack_ciphertexts(cts)
        assert tensor.slots == 5 and tensor.parts == 2
        back = scheme.unstack_ciphertexts(tensor)
        for orig, out in zip(cts, back):
            assert [scheme.engine.to_ints(p) for p in orig.parts] == [
                scheme.engine.to_ints(p) for p in out.parts
            ]

    def test_domain_transitions_preserve_residues(self, scheme):
        """Stack (eval domain) -> coefficient domain -> eval: bit-identical."""
        _, pk, _ = scheme.keygen()
        ct = scheme.encrypt_poly(pk, list(range(64)))
        tensor = scheme.stack_ciphertexts([ct])
        eng = scheme.engine
        coeff = eng.ctx.inverse(tensor.data)
        assert (eng.ctx.forward(coeff) == tensor.data).all()

    def test_slicing_and_concat(self, scheme):
        _, pk, _ = scheme.keygen()
        cts = [scheme.encrypt_poly(pk, [i] * 64) for i in range(4)]
        tensor = scheme.stack_ciphertexts(cts)
        head, tail = tensor[:1], tensor[1:]
        assert head.slots == 1 and tail.slots == 3
        rejoined = CiphertextTensor.concat([head, tail])
        assert (rejoined.data == tensor.data).all()
        single = tensor[2]
        assert single.slots == 1
        assert (single.data == tensor.data[2:3]).all()

    def test_shape_validation(self, scheme):
        eng = scheme.engine
        with pytest.raises(ParameterError):
            CiphertextTensor(eng.ctx, np.zeros((2, 2, 1, 1), dtype=np.int64))

    def test_tensor_add_matches_scalar_add(self, scheme):
        _, pk, _ = scheme.keygen()
        rnd = random.Random(13)
        a = [scheme.encrypt_poly(pk, [rnd.randrange(P) for _ in range(64)]) for _ in range(3)]
        b = [scheme.encrypt_poly(pk, [rnd.randrange(P) for _ in range(64)]) for _ in range(3)]
        summed = scheme.tensor_add(scheme.stack_ciphertexts(a), scheme.stack_ciphertexts(b))
        for ct_a, ct_b, out in zip(a, b, scheme.unstack_ciphertexts(summed)):
            ref = scheme.add(ct_a, ct_b)
            assert [scheme.engine.to_ints(p) for p in ref.parts] == [
                scheme.engine.to_ints(p) for p in out.parts
            ]

    @pytest.mark.parametrize("p", [P, P54], ids=["p17", "p54-per-limb"])
    def test_prepared_plaintexts_equal_per_limb_lift(self, p):
        """prepare_matrix / prepare_mul_rows: the centered lift mod p, forward
        transformed, whether it enters the NTT broadcast over the limbs or
        (a plaintext modulus above the transform's input bound) per limb."""
        scheme = Bfv(toy_parameters(p, n=64, log2_q=240, prime_bits=26), seed=b"lift")
        ctx = scheme.engine.ctx
        encoded = np.random.default_rng(5).integers(0, p, size=(2, 3, 64))
        encoded[0, 0, :3] = [0, p // 2, p // 2 + 1]
        centered = np.where(encoded > p // 2, encoded - p, encoded)
        expected = ctx.forward(ctx.to_rns_batch(centered))
        assert np.array_equal(scheme.prepare_matrix(encoded).value, expected)
        assert np.array_equal(scheme.prepare_mul_rows(encoded[0]).value, expected[0])
