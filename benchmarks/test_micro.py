"""Component microbenchmarks: the primitives behind every reproduced number."""

import hashlib

import numpy as np
import pytest

from repro.baselines import Aes128
from repro.ff import P17, P60, PrimeField, make_reducer
from repro.fhe import BatchEncoder, Bfv, ExactBaseLift, ExactRescaler, NegacyclicNtt, make_engine
from repro.fhe.rns import AuxiliaryBasis, ExactBaseDigits, ExactModSwitch, get_rns_context
from repro.hhe import BatchedHheServer, encrypt_key_batched, transcipher_parameters
from repro.pasta import (
    PASTA_4,
    PASTA_MICRO,
    Pasta,
    PastaParams,
    generate_block_materials,
    generate_block_materials_pairs,
    generate_matrix,
    random_key,
    streaming_mat_vec,
)
from repro.pasta.xof import encode_block_seed

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


def _zero_rerank_lanes(params, pairs):
    """Lanes whose accepted words, ranked with zero allowed, put a zero
    candidate in an alpha slot: the one-pass sampler re-ranks them."""
    slots = params.coefficients_per_block
    alpha_slot = np.arange(slots) // params.t % 4 < 2
    lanes = []
    for lane, (nonce, counter) in enumerate(pairs):
        raw = hashlib.shake_128(encode_block_seed(params, nonce, counter)).digest(32 * slots)
        values = np.frombuffer(raw, dtype="<u8") & np.uint64(params.sampler.mask)
        if np.any(values[values < params.p][:slots][alpha_slot] == 0):
            lanes.append(lane)
    return lanes


def test_client_frame_materials(benchmark):
    """One client frame's materials (300 PASTA-4 lanes) in the one-pass
    sampler, against the scalar derivation (sponge and sampler) on the
    first lane, the last lane and every zero re-rank lane: values, sampler
    statistics and permutations."""
    pairs = [(7, c) for c in range(300)]
    batched = benchmark(generate_block_materials_pairs, PASTA_4, pairs)
    rerank = _zero_rerank_lanes(PASTA_4, pairs)
    assert rerank
    for lane in (0, len(pairs) - 1, *rerank):
        scalar = generate_block_materials(PASTA_4, *pairs[lane])
        got = batched[lane]
        assert (got.nonce, got.counter) == pairs[lane]
        assert got.stats == scalar.stats and got.permutations == scalar.permutations
        for mine, theirs in zip(got.layers, scalar.layers):
            for name in ("alpha_l", "alpha_r", "rc_l", "rc_r"):
                assert np.array_equal(getattr(mine, name), getattr(theirs, name))


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


#: The hhe_frame server instance: t = 32, two rounds, omega = 17.
HHE_FRAME = PastaParams(name="pasta-bsgs", t=32, rounds=2, p=PASTA_MICRO.p, secure=False)


@pytest.fixture(scope="module")
def hhe_frame_bases():
    """The hhe_frame chain (N = 512, the ten 26-bit primes the noise model
    admits) and its 18-prime extended tensor-product basis."""
    engine = make_engine(transcipher_parameters(HHE_FRAME, 512, prime_bits=26), "rns")
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


def test_layer0_aux_basis(benchmark, hhe_frame_bases):
    """One frame's layer 0 at the hhe_frame shape: 2t = 64 encoded diagonals
    into the two-prime auxiliary basis, the contraction against the
    converted key upload and the exact lift back, residue for residue the
    chain-basis product of the diagonals' ten-limb transforms."""
    ctx, _ = hhe_frame_bases
    p = PASTA_MICRO.p
    width = 2 * HHE_FRAME.t
    basis = AuxiliaryBasis(ctx, width, p // 2)
    assert len(basis.aux.primes) == 2
    rng = np.random.default_rng(5)
    key = ctx.forward(_uniform(ctx, (width, 2), 6))
    diagonals = rng.integers(-(p // 2), p // 2 + 1, size=(1, width, ctx.n))
    converted = basis.convert(key)
    got = benchmark(lambda: basis.product(basis.prepare(diagonals), converted))
    limbs = (1, width, len(ctx.primes), ctx.n)
    chain = ctx.forward(np.broadcast_to(diagonals[..., None, :], limbs))
    assert np.array_equal(got, ctx.matmul_mod(chain, key))


def test_batched_key_setup(benchmark, hhe_frame_bases):
    """The hhe_frame build's Galois keys and key upload, batched, against the
    same draws made one key and one ciphertext at a time, bit for bit."""
    ctx, _ = hhe_frame_bases
    params = transcipher_parameters(HHE_FRAME, 512, prime_bits=26)
    steps = BatchedHheServer.required_rotation_steps(HHE_FRAME, params.n)
    encoder = BatchEncoder(params.n, HHE_FRAME.p)
    key = random_key(HHE_FRAME, b"micro-setup")

    def batched():
        scheme = Bfv(params, seed=b"micro-setup")
        sk, pk, _ = scheme.keygen()
        return scheme.rotation_keygen(sk, steps), encrypt_key_batched(scheme, pk, encoder, key)

    galois, upload = benchmark(batched)
    scheme = Bfv(params, seed=b"micro-setup")
    sk, pk, _ = scheme.keygen()
    single = [scheme.rotation_keygen(sk, [step]) for step in steps]
    assert len(galois.keys) == len(single) == 18
    for one in single:
        ((element, parts),) = one.keys.items()
        for (b, a), (b1, a1) in zip(galois.keys[element], parts):
            assert b == b1 and a == a1
    # The upload's plaintexts, each encrypted on its own.
    for ct in upload:
        one = scheme.encrypt_poly(pk, scheme.decrypt_poly(sk, ct))
        assert all(x == y for x, y in zip(ct.parts, one.parts))
