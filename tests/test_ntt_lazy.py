"""Guarantees of the vectorized NTT's division-free int64 kernel (repro.fhe.ntt_vec).

The int64 path reduces every twiddle product to a centered residue with a
precomputed float quotient and leaves butterfly sums unreduced under a
static bound. These tests pin the properties the kernel must not trade
away, on the chains the system runs (BatchEncoder's p = 65537, the
hhe_frame chain, the 30-bit default, the widest prime the int64 path
admits) and on stacked inputs: bit-exactness against the eager per-prime
scalar transform, the no-copy ``_check`` contract the keyswitch hot path
relies on, non-mutation of caller inputs (the BFV scheme hands the
transforms broadcast views and matrices it keeps using), and one shared
instance across threads (``get_vec_ntt`` hands the same object to every
service worker).
"""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ff.params import P17, P33
from repro.ff.primality import is_prime
from repro.fhe.ntt import get_ntt
from repro.fhe.ntt_vec import FORWARD_INPUT_LIMIT, VecNtt, butterfly_fits_int64, get_vec_ntt
from repro.fhe.rns import ntt_prime_chain

N = 64


def _widest_admitted_primes(n, count):
    """The ``count`` largest primes = 1 (mod 2n) that butterfly_fits_int64 admits."""
    top = 3037000500
    assert butterfly_fits_int64(top) and not butterfly_fits_int64(top + 1)
    candidate = top - (top - 1) % (2 * n)
    primes = []
    while len(primes) < count:
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= 2 * n
    return tuple(primes)


#: (N, chain) for every prime width the int64 kernel serves.
CHAINS = {
    "batch-encoder-65537": (512, (65537,)),
    "hhe-frame-26bit": (512, ntt_prime_chain(512, min_bits=240, prime_bits=26)),
    "default-30bit": (N, ntt_prime_chain(N, min_bits=90)),
    "widest-admitted": (N, _widest_admitted_primes(N, 2)),
}
LEADS = ((), (32,), (4, 8))
WIDE_CHAIN = ntt_prime_chain(N, min_bits=120, prime_bits=60)  # object dtype


def _residues(rng, n, primes, lead=()):
    """Random canonical residues; in a stack, the first three matrices are
    all zeros, all q - 1 and alternating 0 / q - 1 next to the random ones."""
    q = np.array(primes, dtype=np.int64).reshape(-1, 1)
    mat = rng.integers(0, 1 << 62, size=lead + (len(primes), n)) % q
    flat = mat.reshape((-1, len(primes), n))
    if flat.shape[0] >= 3:
        flat[0] = 0
        flat[1] = q - 1
        flat[2] = 0
        flat[2, :, 1::2] = (q - 1)
    return mat


def _cases(seed):
    rng = np.random.default_rng(seed)
    for n, primes in CHAINS.values():
        ntt = get_vec_ntt(n, primes)
        for lead in LEADS:
            yield ntt, primes, _residues(rng, n, primes, lead)


def _assert_rows_match_scalar(ntt, primes, mat, out, direction):
    assert out.dtype == np.int64 and out.shape == mat.shape
    for index in np.ndindex(mat.shape[:-1]):
        scalar = get_ntt(ntt.n, primes[index[-1]])
        ref = getattr(scalar, direction)([int(x) for x in mat[index]])
        assert out[index].tolist() == ref, index


class TestStaticBound:
    def test_widest_prime_all_max_inputs_exact_at_n4096(self):
        # The largest magnitudes the kernel can meet: every input at q - 1,
        # the widest admitted prime, and N = 4096 (twelve stages of growth).
        n = 4096
        primes = _widest_admitted_primes(n, 1)
        ntt = VecNtt(n, primes)
        assert ntt.dtype is np.int64
        mat = np.full((1, n), primes[0] - 1, dtype=np.int64)
        for direction in ("forward", "inverse"):
            _assert_rows_match_scalar(ntt, primes, mat, getattr(ntt, direction)(mat), direction)


class TestUnreducedForwardInput:
    """The forward transform reduces signed inputs below 2^48 itself, so a
    small coefficient vector broadcast over the limbs transforms exactly as
    its per-limb residues do (the BFV scheme's prepared plaintexts)."""

    @pytest.mark.parametrize(
        "n, primes, bound",
        [
            (*CHAINS["hhe-frame-26bit"], P17 // 2),  # omega = 17 on the hhe_frame chain
            (256, ntt_prime_chain(256, min_bits=230), P33 // 2),  # p/2 above every 30-bit q_i
            (N, WIDE_CHAIN, P33 // 2),  # object dtype, which no RNS chain may use
            (N, ntt_prime_chain(N, min_bits=120, prime_bits=26), 1 << 40),
        ],
        ids=["omega17-hhe-frame", "omega33-30bit", "object-60bit", "2^40-26bit"],
    )
    def test_broadcast_matches_per_limb_residues(self, n, primes, bound):
        ntt = get_vec_ntt(n, primes)
        x = np.random.default_rng(bound % 1009).integers(-bound, bound + 1, size=(3, 4, n))
        x[0, 0] = bound
        x[0, 1] = -bound
        x[0, 2, 1::2] = -bound
        limbs = np.broadcast_to(x[..., None, :], x.shape[:-1] + (len(primes), n))
        residues = np.stack([x % q for q in primes], axis=-2)
        assert np.array_equal(ntt.forward(limbs), ntt.forward(residues))

    def test_widest_prime_inputs_at_the_limit_exact_at_n4096(self):
        n = 4096
        primes = _widest_admitted_primes(n, 1)
        ntt = VecNtt(n, primes)
        assert ntt.dtype is np.int64
        edge = FORWARD_INPUT_LIMIT - 1
        for mat in (np.full((1, n), edge), np.full((1, n), -edge)):
            _assert_rows_match_scalar(ntt, primes, mat % primes[0], ntt.forward(mat), "forward")


class TestBitExactness:
    """Division-free int64 transforms match the eager scalar reference, row by row."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_forward_matches_scalar_reference(self, seed):
        for ntt, primes, mat in _cases(seed):
            _assert_rows_match_scalar(ntt, primes, mat, ntt.forward(mat), "forward")

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_inverse_matches_scalar_reference(self, seed):
        for ntt, primes, mat in _cases(seed):
            _assert_rows_match_scalar(ntt, primes, mat, ntt.inverse(mat), "inverse")

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_roundtrip_and_stacked_leads(self, seed):
        for ntt, _, mat in _cases(seed):
            assert np.array_equal(ntt.inverse(ntt.forward(mat)), mat)
            # A stack is its matrices transformed one at a time.
            flat = mat.reshape((-1,) + mat.shape[-2:])
            for direction in (ntt.forward, ntt.inverse):
                stacked = direction(mat).reshape(flat.shape)
                for i in range(flat.shape[0]):
                    assert np.array_equal(stacked[i], direction(flat[i]))

    def test_outputs_are_canonical_residues(self):
        for ntt, primes, mat in _cases(7):
            q_col = np.array(primes).reshape(-1, 1)
            for out in (ntt.forward(mat), ntt.inverse(mat)):
                assert (out >= 0).all() and (out < q_col).all()

    def test_object_dtype_chain_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        ntt = VecNtt(N, WIDE_CHAIN)
        assert ntt.dtype is object
        mat = np.stack(
            [np.array([int(x) for x in rng.integers(0, 2**62, size=N)], dtype=object) % q
             for q in WIDE_CHAIN]
        )
        fwd = ntt.forward(mat)
        for i, q in enumerate(WIDE_CHAIN):
            assert [int(x) for x in fwd[i]] == get_ntt(N, q).forward(
                [int(x) for x in mat[i]]
            )
        assert np.array_equal(ntt.inverse(fwd), mat)


class TestNoCopyContract:
    def test_check_returns_same_object_on_matching_dtype(self):
        # The keyswitch hot path hands already-int64 residue matrices to
        # the transform; the pre-fix unconditional copy was pure overhead.
        _, chain = CHAINS["default-30bit"]
        ntt = VecNtt(N, chain)
        mat = np.zeros((len(chain), N), dtype=np.int64)
        assert ntt._check(mat) is mat

    def test_check_converts_on_dtype_mismatch(self):
        _, chain = CHAINS["default-30bit"]
        ntt = VecNtt(N, chain)
        mat = np.zeros((len(chain), N), dtype=object)
        out = ntt._check(mat)
        assert out is not mat and out.dtype == np.int64

    def test_check_rejects_wrong_shape(self):
        _, chain = CHAINS["default-30bit"]
        ntt = VecNtt(N, chain)
        with pytest.raises(ParameterError, match="residue matrix"):
            ntt._check(np.zeros((len(chain), N + 1), dtype=np.int64))

    def test_forward_does_not_mutate_caller_input(self):
        # Callers keep using what they hand to forward (a key's residues, a
        # broadcast plaintext view); a stage writing into its input would
        # corrupt every later use.
        for ntt, _, mat in _cases(3):
            snapshot = mat.copy()
            ntt.forward(mat)
            assert np.array_equal(mat, snapshot)

    def test_inverse_does_not_mutate_caller_input(self):
        for ntt, _, mat in _cases(4):
            snapshot = mat.copy()
            ntt.inverse(mat)
            assert np.array_equal(mat, snapshot)

    def test_object_paths_do_not_mutate_caller_input(self):
        ntt = VecNtt(N, WIDE_CHAIN)
        mat = np.stack(
            [np.arange(N, dtype=object) % q for q in WIDE_CHAIN]
        )
        snapshot = mat.copy()
        ntt.forward(mat)
        ntt.inverse(mat)
        assert np.array_equal(mat, snapshot)


class TestSharedInstance:
    def test_threads_on_one_instance_match_serial_results(self):
        # More threads than cores on the one cached instance, switching as
        # often as the interpreter allows: scratch kept on the instance
        # would be overwritten mid-transform by another thread.
        n, primes = CHAINS["hhe-frame-26bit"]
        ntt = get_vec_ntt(n, primes)
        rng = np.random.default_rng(21)
        threads = max(8, (os.cpu_count() or 1) + 2)
        inputs = [_residues(rng, n, primes, (2, 2)) for _ in range(threads)]
        serial = [(ntt.forward(x), ntt.inverse(x)) for x in inputs]
        results = [[] for _ in inputs]

        def work(i):
            for _ in range(6):
                results[i].append((ntt.forward(inputs[i]), ntt.inverse(inputs[i])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for (fwd, inv), runs in zip(serial, results):
            assert len(runs) == 6
            for got_fwd, got_inv in runs:
                assert np.array_equal(got_fwd, fwd) and np.array_equal(got_inv, inv)
