"""ShakeReader and PolyRng against the scalar SHAKE256 sponge.

:class:`ScalarPolyRng` is the one-sample-at-a-time sampler, reading
``repro.keccak.shake.shake256`` (the oracle; ``tests/test_keccak.py`` checks
it). :class:`repro.fhe.rng.PolyRng` reads the same stream through
sized C digests and decodes whole byte runs with numpy; under hypothesis,
interleaved draws must return the same values and leave the stream at the
same byte, which the next draw after them checks.
"""

from typing import List

import numpy as np

from hypothesis import given
from hypothesis import strategies as st

from repro.fhe import toy_parameters
from repro.fhe.rng import PolyRng
from repro.fhe.rns import get_rns_context, uniform_residues
from repro.keccak import SHAKE256_RATE_BYTES, ShakeReader, shake256
from repro.pasta import PASTA_MICRO


class ScalarPolyRng:
    """The sampler loops, one ``_read_int`` per candidate, on the scalar sponge."""

    def __init__(self, seed: bytes):
        self._shake = shake256(b"repro-fhe-rng|" + seed)
        self.rejected = 0  #: uniform_mod candidates rejected so far

    def _read_int(self, nbytes: int) -> int:
        return int.from_bytes(self._shake.read(nbytes), "little")

    def uniform_mod(self, modulus: int, count: int) -> List[int]:
        nbytes = (modulus.bit_length() + 7) // 8 + 1
        bound = (1 << (8 * nbytes)) // modulus * modulus
        out: List[int] = []
        while len(out) < count:
            value = self._read_int(nbytes)
            if value < bound:
                out.append(value % modulus)
            else:
                self.rejected += 1
        return out

    def ternary(self, count: int) -> List[int]:
        out: List[int] = []
        while len(out) < count:
            byte = self._read_int(1)
            for shift in (0, 2, 4, 6):
                trit = (byte >> shift) & 0x3
                if trit < 3:
                    out.append(trit - 1)
                    if len(out) == count:
                        break
        return out

    def centered_binomial(self, eta: int, count: int) -> List[int]:
        out: List[int] = []
        while len(out) < count:
            bits = self._read_int((2 * eta + 7) // 8)
            a = sum((bits >> i) & 1 for i in range(eta))
            b = sum((bits >> (eta + i)) & 1 for i in range(eta))
            out.append(a - b)
        return out


#: A 256-bit modulus that rejects ~1/257 of its 33-byte candidates (the
#: most any modulus can, given the sampler's spare byte).
HIGH_REJECT = 2**264 // 257 + 1

#: 2, a Fermat prime, the largest 64-bit prime, the toy q of the
#: benchmark's and the service's HHE schemes (log2_q 240 and 290), and
#: the high-rejection modulus.
MODULI = [
    2,
    65537,
    2**64 - 59,
    toy_parameters(PASTA_MICRO.p, n=512, log2_q=240, prime_bits=26).q,
    toy_parameters(PASTA_MICRO.p, n=256, log2_q=290).q,
    HIGH_REJECT,
]

#: Empty, short, and longer than one SHAKE256 rate block.
SEEDS = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=8),
    st.binary(min_size=SHAKE256_RATE_BYTES, max_size=300),
)

DRAWS = st.one_of(
    st.tuples(st.just("uniform_mod"), st.sampled_from(MODULI), st.integers(1, 40)),
    # Counts not divisible by 4, so the last byte's spare trits are discarded.
    st.tuples(st.just("ternary"), st.integers(1, 243).filter(lambda c: c % 4)),
    # eta 1-16 spans every sample width, 1 to 4 bytes.
    st.tuples(st.just("centered_binomial"), st.integers(1, 16), st.integers(1, 50)),
)


def draw(rng, spec):
    name, *args = spec
    return getattr(rng, name)(*args)


class TestShakeReader:
    @given(SEEDS, st.lists(st.integers(0, 700), min_size=1, max_size=8))
    def test_reads_match_scalar_stream(self, seed, sizes):
        """Any read sequence, across regrows, equals the scalar sponge's."""
        reader, scalar = ShakeReader(seed), shake256(seed)
        for size in sizes:
            assert reader.read(size) == scalar.read(size)

    def test_read_past_the_digest_regrows(self):
        """A small first read sizes the digest; longer reads re-digest it."""
        seed = bytes(range(200))
        reader, scalar = ShakeReader(seed), shake256(seed)
        for size in (1, 3, 10, 500, 1, 2000):
            assert reader.read(size) == scalar.read(size)


class TestPolyRngOracle:
    @given(SEEDS, st.lists(DRAWS, min_size=1, max_size=5))
    def test_interleaved_draws_match_scalar(self, seed, draws):
        fast, oracle = PolyRng(seed), ScalarPolyRng(seed)
        for spec in draws:
            assert draw(fast, spec) == draw(oracle, spec)
        # Same position in the stream: the next draw agrees too.
        assert fast.uniform_mod(2**64 - 59, 3) == oracle.uniform_mod(2**64 - 59, 3)

    def test_uniform_mod_rereads_rejected_candidates(self):
        """Each rejected candidate costs one more read, as in the scalar loop."""
        fast, oracle = PolyRng(b"reject"), ScalarPolyRng(b"reject")
        assert fast.uniform_mod(HIGH_REJECT, 1000) == oracle.uniform_mod(HIGH_REJECT, 1000)
        assert oracle.rejected > 0
        assert fast.ternary(7) == oracle.ternary(7)

    def test_ternary_discards_spare_trits_of_last_byte(self):
        fast, oracle = PolyRng(b"t"), ScalarPolyRng(b"t")
        for count in (1, 2, 3, 5, 7):
            assert fast.ternary(count) == oracle.ternary(count)
        assert fast.centered_binomial(2, 8) == oracle.centered_binomial(2, 8)

    def test_empty_draws_read_nothing(self):
        fast, oracle = PolyRng(b"e"), ScalarPolyRng(b"e")
        assert fast.ternary(0) == fast.uniform_mod(97, 0) == fast.centered_binomial(3, 0) == []
        assert fast.ternary(9) == oracle.ternary(9)

    def test_return_types(self):
        rng = PolyRng(b"types")
        for values in (rng.uniform_mod(2**64 - 59, 4), rng.ternary(5), rng.centered_binomial(16, 6)):
            assert isinstance(values, list) and all(type(v) is int for v in values)

    @given(SEEDS, st.integers(1, 40))
    def test_uniform_candidates_decode_to_uniform_mod(self, seed, count):
        """The candidates behind ``uniform_mod`` decode straight to the RNS
        residues of its ints, and leave the stream where it leaves it."""
        params = toy_parameters(PASTA_MICRO.p, n=64, log2_q=240)
        raw, ints = PolyRng(seed), PolyRng(seed)
        residues = uniform_residues(raw.uniform_candidates(params.q, count), params.rns_primes)
        ctx = get_rns_context(64, params.rns_primes)
        expected = [ctx.to_rns(ints.uniform_mod(params.q, count) + [0] * (64 - count))]
        assert np.array_equal(residues, expected[0][:, :count])
        assert raw.ternary(9) == ints.ternary(9)
