"""Component microbenchmarks: the primitives behind every reproduced number."""

import numpy as np
import pytest

from repro.baselines import Aes128
from repro.ff import P17, P60, PrimeField, make_reducer
from repro.fhe import ExactBaseLift, ExactRescaler, NegacyclicNtt, make_engine, toy_parameters
from repro.fhe.rns import ExactBaseDigits, ExactModSwitch, get_rns_context
from repro.pasta import PASTA_4, PASTA_MICRO, Pasta, generate_matrix, random_key, streaming_mat_vec

F17 = PrimeField(P17)


def test_modular_reduction_fermat(benchmark):
    reducer = make_reducer(P17)
    x = (P17 - 2) * (P17 - 3)
    assert benchmark(reducer.reduce, x) == x % P17


def test_matgen_streaming_matvec_t32(benchmark):
    rng = np.random.default_rng(1)
    alpha = F17.array(rng.integers(1, P17, size=32))
    x = F17.array(rng.integers(0, P17, size=32))
    result = benchmark(streaming_mat_vec, F17, alpha, x)
    assert np.array_equal(result, F17.mat_vec(generate_matrix(F17, alpha), x))


def test_pasta4_reference_block(benchmark):
    cipher = Pasta(PASTA_4, random_key(PASTA_4))
    ks = benchmark(cipher.keystream_block, 0, 0)
    assert ks.shape == (32,)


def test_aes128_block(benchmark):
    """Traditional SE contrast (Sec. I-A): AES block vs PASTA block."""
    aes = Aes128(bytes(range(16)))
    ct = benchmark(aes.encrypt_block, bytes(16))
    assert len(ct) == 16


def test_ntt_forward_1024(benchmark):
    ntt = NegacyclicNtt(1024, P60)
    poly = list(range(1024))
    out = benchmark(ntt.forward, poly)
    assert len(out) == 1024


# -- CRT transports at the hhe_frame shape ----------------------------------------


@pytest.fixture(scope="module")
def hhe_frame_bases():
    """The hhe_frame chain (N = 512, ten 26-bit primes) and its 18-prime
    extended tensor-product basis."""
    engine = make_engine(
        toy_parameters(PASTA_MICRO.p, n=512, log2_q=240, prime_bits=26), "rns"
    )
    assert (len(engine.ctx.primes), len(engine.ext.primes)) == (10, 18)
    return engine.ctx, engine.ext


def _uniform(ctx, lead, seed):
    rng = np.random.default_rng(seed)
    q_col = np.array(ctx.primes, dtype=np.int64).reshape(-1, 1)
    return rng.integers(0, 1 << 62, size=lead + (len(ctx.primes), ctx.n)) % q_col


def _centered_ints(ctx, rows):
    return [ctx.from_rns_centered(row) for row in rows]


def test_crt_lift_centered(benchmark, hhe_frame_bases):
    """One ciphertext's two parts into the extended basis (the tensor-product lift)."""
    ctx, ext = hhe_frame_bases
    lift = ExactBaseLift(ctx, ext.primes)
    parts = _uniform(ctx, (2,), 1)
    got = benchmark(lift.lift_centered, parts)
    expected = [ext.to_rns(c) for c in _centered_ints(ctx, parts)]
    assert np.array_equal(got, np.stack(expected))


def test_crt_digits(benchmark, hhe_frame_bases):
    """One polynomial's base-2^62 key-switch digits."""
    ctx, _ = hhe_frame_bases
    count = -(-ctx.modulus.bit_length() // 62)
    digits = ExactBaseDigits(ctx, 62, count)
    poly = _uniform(ctx, (), 2)
    got = benchmark(digits.digits, poly)
    values = ctx.from_rns(poly)
    expected = [ctx.to_rns([(v >> (62 * d)) % (1 << 62) for v in values]) for d in range(count)]
    assert np.array_equal(got, np.stack(expected))


def test_crt_rescale(benchmark, hhe_frame_bases):
    """One tensor product's three parts scaled by p/q back to the chain."""
    ctx, ext = hhe_frame_bases
    rescaler = ExactRescaler(ext, PASTA_MICRO.p, ctx)
    parts = _uniform(ext, (3,), 3)
    got = benchmark(rescaler.rescale, parts)
    q, p = ctx.modulus, PASTA_MICRO.p
    expected = [
        ctx.to_rns([(2 * p * c + q) // (2 * q) for c in row]) for row in _centered_ints(ext, parts)
    ]
    assert np.array_equal(got, np.stack(expected))


def test_crt_mod_switch(benchmark, hhe_frame_bases):
    """One ciphertext's two parts switched from ten limbs to five: the drop
    before the hhe_frame circuit's last affine layer, in the eval domain."""
    ctx, _ = hhe_frame_bases
    switch = ExactModSwitch(ctx, get_rns_context(ctx.n, ctx.primes[:5]))
    parts = ctx.forward(_uniform(ctx, (2,), 4))
    got = benchmark(switch.down, parts)
    low = switch.dst
    big_p = ctx.modulus // low.modulus
    expected = [
        low.to_rns([(2 * c + big_p) // (2 * big_p) for c in ctx.from_rns(row)])
        for row in ctx.inverse(parts)
    ]
    assert np.array_equal(low.inverse(got), np.stack(expected))
