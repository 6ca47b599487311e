"""Packed BSGS transciphering (repro.hhe.batched), against the cipher oracle.

:class:`BatchedHheServer` packs the whole 2t-element state of a packed
group into one ciphertext, folds Mix into the affine diagonals, runs
layer 0 on the pre-rotated key upload and layers 1..r as
baby-step/giant-step diagonal sums with hoisted baby rotations, the last
one as a t x 2t rectangle. It must be an *amortization, not an
approximation*: decrypted results equal the messages the pure-Python
cipher encrypted, the R half of each block's slots holds a copy of them,
every other slot decrypts to 0, op counts match the closed form exactly,
and the modeled noise headroom never exceeds the measured budget — for
every batch size, including batches that span several packed groups.
"""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.ml_inference import score_noise
from repro.errors import NoiseBudgetExhausted, ParameterError
from repro.ff.params import P33
from repro.fhe import BatchEncoder, Bfv, toy_parameters
from repro.fhe.engine import RnsEngine
from repro.fhe.galois import slots_to_rows
from repro.fhe.rns import ExactModSwitch
from repro.hhe import (
    BatchedHheServer,
    decrypt_batched_result,
    encrypt_key_batched,
    transcipher_parameters,
)
from repro.hhe.batched import circuit_noise, plan_levels
from repro.obs import get_registry, get_tracer
from repro.obs.noise import NoiseModel
from repro.pasta import (
    PASTA_MICRO,
    PASTA_TOY,
    Pasta,
    PastaParams,
    bsgs_split,
    generate_block_materials,
    homomorphic_op_counts,
    random_key,
)
from repro.pasta.xof import encode_block_seed

#: The split is over the 2t-element state: t=2 gives (bs, G) = (2, 2), t=4
#: gives (4, 2), so every rig runs the giant-step Horner loop and the
#: diagonal pre-rotation, and t=4 hoists three babies. The last layer's t
#: diagonals split (1, 2) and (2, 2).
QUAD = PastaParams(name="quad-17", t=4, rounds=2, p=PASTA_MICRO.p, secure=False)
#: The frame benchmark's server instance: t=32 -> (bs, G) = bsgs_split(64)
#: = (16, 4), and (8, 4) for the last layer's 32 diagonals, at N=512, so
#: one packed group holds (N/2)/t = 8 blocks, w = 4 per hypercube row.
FRAME = PastaParams(name="pasta-bsgs", t=32, rounds=2, p=PASTA_MICRO.p, secure=False)

N = 256
HALF = N // 2


def _chain(p, n, limbs, prime_bits=30):
    """BFV parameters on the first ``limbs`` primes of the ``prime_bits``-wide
    chain at ring ``n``: an explicit chain, for pinned and refused settings."""
    return toy_parameters(p, n=n, log2_q=limbs * prime_bits, prime_bits=prime_bits).at_level(limbs)


def _setup(pasta, seed=b"bsgs-tests", n=N, prime_bits=30, params=None):
    """A client's keys and packed key upload, on ``params`` or else the
    shortest chain the noise model admits."""
    params = params or transcipher_parameters(pasta, n, prime_bits)
    scheme = Bfv(params, seed=seed)
    sk, pk, rlk = scheme.keygen()
    gk = scheme.rotation_keygen(sk, BatchedHheServer.required_rotation_steps(pasta, n))
    encoder = BatchEncoder(params.n, pasta.p)
    key = random_key(pasta, seed=seed)
    enc_key = encrypt_key_batched(scheme, pk, encoder, key)
    return scheme, sk, rlk, gk, encoder, key, enc_key


@pytest.fixture(scope="module")
def micro():
    return _setup(PASTA_MICRO)


@pytest.fixture(scope="module")
def quad():
    return _setup(QUAD)


#: Plaintext primes of the differential settings, by omega.
PRIMES = {17: PASTA_MICRO.p, 33: P33}


def _pasta(t, omega, rounds):
    return PastaParams(
        name=f"diff-{t}-{omega}-{rounds}", t=t, rounds=rounds, p=PRIMES[omega], secure=False
    )


def _headroom(pasta, model, levels, after=None):
    """Modeled headroom of the result (or of ``after`` of it) along a plan."""
    key = model.fresh()
    estimate = circuit_noise(pasta, model, levels, key)
    return model.headroom_bits(after(model, estimate) if after else estimate)


@functools.lru_cache(maxsize=None)
def _admitted(t, omega, rounds, prime_bits, n=N):
    """The shortest chain the model admits for a differential setting."""
    return transcipher_parameters(_pasta(t, omega, rounds), n, prime_bits)


@pytest.fixture(scope="module")
def rigs():
    """Each differential setting's rig, built once per module on its first draw."""
    built = {}

    def rig(t, omega, rounds, prime_bits, extra, n=N):
        key = (t, omega, rounds, prime_bits, extra, n)
        if key not in built:
            pasta = _pasta(t, omega, rounds)
            limbs = _admitted(t, omega, rounds, prime_bits, n).levels + extra
            built[key] = _setup(
                pasta,
                seed=b"bsgs-diff-%d-%d-%d-%d-%d-%d" % key,
                n=n,
                params=_chain(pasta.p, n, limbs, prime_bits),
            )
        return built[key]

    return rig


def _xof_words(pasta, nonce, counter):
    """Block (nonce, counter)'s SHAKE128 word stream from hashlib, unbounded.

    ``tests/test_keccak_vectorized.py`` pins these words to the scalar
    sponge; the oracle reads them to skip the pure-Python Keccak.
    """
    xof = hashlib.shake_128(encode_block_seed(pasta, nonce, counter))
    done, words = 0, 4 * pasta.coefficients_per_block
    while True:
        yield from np.frombuffer(xof.digest(8 * words), dtype="<u8")[done:].tolist()
        done, words = words, 2 * words


def _encrypt_block(cipher, message, nonce, counter):
    """The scalar sampler and permutation over hashlib words."""
    pasta = cipher.params
    materials = generate_block_materials(
        pasta, nonce, counter, words=_xof_words(pasta, nonce, counter)
    )
    keystream = cipher.keystream_block(nonce, counter, materials=materials)
    return [(int(m) + int(k)) % pasta.p for m, k in zip(message, keystream)]


def _transcipher(pasta, rig, messages, nonce, counter0=0):
    """Client encrypts with the scalar cipher; a fresh server transciphers.

    The first block runs the whole scalar cipher (sponge included), the
    rest the scalar sampler and permutation over hashlib words: every block
    is checked against code independent of the batched sampler the server
    derives its schedule with.
    """
    scheme, sk, rlk, galois, encoder, key, enc_key = rig
    cipher = Pasta(pasta, key)
    counters = list(range(counter0, counter0 + len(messages)))
    blocks = [[int(x) for x in cipher.encrypt_block(messages[0], nonce=nonce, counter=counter0)]]
    blocks += [
        _encrypt_block(cipher, m, nonce, c) for c, m in zip(counters[1:], messages[1:])
    ]
    server = BatchedHheServer(pasta, scheme, rlk, encoder, enc_key, galois_keys=galois)
    result = server.transcipher_blocks(blocks, nonce=nonce, counters=counters)
    return server, result, decrypt_batched_result(scheme, sk, encoder, result)


def _ops(result):
    return dataclasses.asdict(result.ops)


class TestBsgsSplit:
    @given(t=st.sampled_from([2, 4, 8, 16, 32, 64, 128]))
    @settings(max_examples=7, deadline=None)
    def test_power_of_two_split_is_exact(self, t):
        bs, giants = bsgs_split(t)
        k = t.bit_length() - 1
        assert bs * giants == t
        assert giants == 1 << -(-k // 3)  # bs = 2^(k - ceil(k/3))
        assert bs >= giants or t == 2  # baby-heavy; 2 diagonals split (1, 2)

    @given(t=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_split_covers_all_diagonals(self, t):
        bs, giants = bsgs_split(t)
        assert bs * giants >= t
        assert (giants - 1) * bs < t  # no all-zero giant step

    def test_non_positive_rejected(self):
        with pytest.raises(ParameterError):
            bsgs_split(0)


class TestDifferential:
    """The one evaluator against the cipher oracle, over generated settings.

    Each draw picks a setting (N in {256, 512}, t in {2, 4}, omega in
    {17, 33}, rounds in {1, 2, 3}, and a chain of 26- or 30-bit primes 0 to
    2 limbs longer than :func:`transcipher_parameters` returns), a batch of
    1 to 2*capacity + 1 blocks (so up to three packed groups), a nonce and a
    first counter. The 26-bit primes are the frame benchmark's width; the
    drawn shape sizes layer 0's auxiliary basis and every layer's split.
    """

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_matches_cipher_oracle(self, rigs, data):
        n = data.draw(st.sampled_from([256, 512]), label="N")
        t = data.draw(st.sampled_from([2, 4]), label="t")
        omega = data.draw(st.sampled_from([17, 33]), label="omega")
        rounds = data.draw(st.sampled_from([1, 2, 3]), label="rounds")
        prime_bits = data.draw(st.sampled_from([26, 30]), label="prime bits")
        extra = data.draw(st.integers(min_value=0, max_value=2), label="extra limbs")
        limbs = _admitted(t, omega, rounds, prime_bits, n).levels + extra
        pasta = _pasta(t, omega, rounds)
        rig = rigs(t, omega, rounds, prime_bits, extra, n)
        scheme, sk, encoder = rig[0], rig[1], rig[4]
        assert scheme.level == limbs
        capacity = (n // 2) // t
        n_blocks = data.draw(st.integers(min_value=1, max_value=2 * capacity + 1), label="blocks")
        nonce = data.draw(st.integers(min_value=0, max_value=2**64 - 1), label="nonce")
        counter0 = data.draw(st.integers(min_value=0, max_value=2**32), label="counter0")
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="messages")
        messages = np.random.default_rng(seed).integers(0, pasta.p, size=(n_blocks, t)).tolist()
        server, result, decrypted = _transcipher(pasta, rig, messages, nonce, counter0)

        assert decrypted == messages
        groups = -(-n_blocks // capacity)
        assert len(result.ciphertexts) == groups
        assert result.group_size == capacity
        assert _ops(result) == {k: groups * v for k, v in homomorphic_op_counts(pasta).items()}
        model = scheme.noise_model
        modeled = model.headroom_bits(model.merge(ct.noise for ct in result.ciphertexts))
        measured = min(scheme.noise_budget_bits(sk, ct) for ct in result.ciphertexts)
        assert modeled <= measured
        # The run's ledger is the plan's closed form, and the result is back
        # on the full chain.
        planned = server.result_noise
        assert model.headroom_bits(planned) >= model.decryption_floor_bits
        assert all(ct.noise == planned for ct in result.ciphertexts)
        assert all(len(part.ctx.primes) == limbs for ct in result.ciphertexts for part in ct.parts)

        # The response carries only c - KS: the R half of every block's
        # slots holds a copy of the L half, and every slot of an unfilled
        # block decrypts to 0.
        w = capacity // 2
        block = np.arange(capacity).reshape(2, 1, w)
        for g, ct in enumerate(result.ciphertexts):
            slots = np.asarray([encoder.decode(scheme.decrypt_poly(sk, ct))])
            rows = slots_to_rows(n, slots)[0].reshape(2, 2 * t, w)  # [row, j, k % w]
            filled = np.broadcast_to(block < n_blocks - g * capacity, rows.shape)
            assert not rows[~filled].any()
            assert np.array_equal(rows[:, t:], rows[:, :t])

    @pytest.fixture(scope="class")
    def frame(self):
        return _setup(FRAME, seed=b"bsgs-frame", n=512, prime_bits=26)

    @pytest.mark.parametrize("n_blocks", [8, 17])
    def test_frame_instance(self, frame, n_blocks):
        """The frame benchmark's instance: pinned counts, exact decryption."""
        scheme, sk = frame[0], frame[1]
        assert bsgs_split(2 * FRAME.t) == (16, 4)
        assert bsgs_split(FRAME.t) == (8, 4)
        assert len(frame[3].keys) == 18
        messages = [[(b * FRAME.t + j) % FRAME.p for j in range(FRAME.t)] for b in range(n_blocks)]
        server, result, decrypted = _transcipher(FRAME, frame, messages, nonce=2**40 + 3)
        assert server.packed_capacity == 8
        assert server.levels == (10, 10, 9, 7, 5)
        (span,) = get_tracer().spans_named("hhe.transcipher")
        assert span.attributes["levels"] == "10,10,9,7,5"
        switches = {
            c.labels["limbs"]: c.value for c in get_registry().collect("fhe.mod_switch.calls")
        }
        groups = -(-n_blocks // 8)
        assert switches == {"10->9": groups, "9->7": groups, "7->5": groups}
        assert len(get_tracer().spans_named("fhe.mod_switch")) == 3 * groups
        assert decrypted == messages
        per_group = {
            "plain_muls": 161, "plain_adds": 4, "adds": 159, "squares": 2,
            "muls": 1, "relins": 3, "rotations": 30, "decompositions": 2,
            "keyswitches": 13,
        }
        assert homomorphic_op_counts(FRAME) == per_group
        assert _ops(result) == {k: groups * v for k, v in per_group.items()}
        assert min(scheme.noise_budget_bits(sk, ct) for ct in result.ciphertexts) > 0
        model = scheme.noise_model
        assert model.headroom_bits(model.merge(ct.noise for ct in result.ciphertexts)) >= 23.9
        assert {len(part.ctx.primes) for ct in result.ciphertexts for part in ct.parts} == {10}


#: One round of t = 4 at N = 64 on five 30-bit primes: after the cube the
#: noise sits less than a limb above the key-switch term of the last
#: layer's hoisted baby (its 4 diagonals split (2, 2)), which the diagonal
#: products amplify, so every drop costs more than a bit.
NO_SLACK = PastaParams(name="no-slack", t=4, rounds=1, p=PASTA_MICRO.p, secure=False)


class TestLevelPlan:
    """:func:`plan_levels`: one RNS level per stage, from the ledger alone."""

    @given(
        t=st.sampled_from([2, 4, 32]),
        omega=st.sampled_from([17, 33]),
        rounds=st.sampled_from([1, 2, 3]),
        limbs=st.integers(min_value=4, max_value=20),
        prime_bits=st.sampled_from([26, 30]),
        n=st.sampled_from([256, 512]),
    )
    @settings(max_examples=25, deadline=None)
    def test_plan_rule(self, t, omega, rounds, limbs, prime_bits, n):
        """Non-increasing, the full chain for layer 0 and the first S-box,
        a modeled final headroom within 1 bit of never switching, and a
        plan that drops keeps the bound under the decryption floor."""
        pasta = _pasta(t, omega, rounds)
        model = NoiseModel(_chain(pasta.p, n, limbs, prime_bits))
        levels = plan_levels(pasta, model, model.fresh())
        assert len(levels) == 2 * rounds + 1
        assert levels[0] == levels[1] == limbs
        assert all(a >= b >= 1 for a, b in zip(levels, levels[1:]))
        never = _headroom(pasta, model, (limbs,) * len(levels))
        planned = _headroom(pasta, model, levels)
        assert planned >= never - 1.0
        if levels[-1] < limbs:
            assert planned >= model.decryption_floor_bits

    def test_evaluation_builds_no_level_state(self, micro, monkeypatch):
        """Level views, key stacks, masks and switch transports are built at
        construction: a call builds none of them on its two threads."""
        scheme, sk, rlk, gk, encoder, key, enc_key = micro
        server = BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key, galois_keys=gk)
        assert server.levels == (8, 8, 8, 6, 4)
        built = []

        def counting(cls):
            init = cls.__init__

            def wrapper(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", wrapper)

        for cls in (ExactModSwitch, RnsEngine, NoiseModel):
            counting(cls)
        stacks = (len(rlk._tensor_stacks), len(gk._tensor_stacks))
        cipher = Pasta(PASTA_MICRO, key)
        messages = [[5, 6], [7, 8]]
        blocks = [[int(x) for x in cipher.encrypt_block(m, nonce=31, counter=c)]
                  for c, m in enumerate(messages)]
        result = server.transcipher_blocks(blocks, nonce=31, counters=[0, 1])
        assert decrypt_batched_result(scheme, sk, encoder, result) == messages
        assert built == []
        assert (len(rlk._tensor_stacks), len(gk._tensor_stacks)) == stacks

    def test_unknown_key_noise_plans_no_drop(self):
        model = NoiseModel(transcipher_parameters(PASTA_MICRO, N))
        assert plan_levels(PASTA_MICRO, model, None) == (8,) * 5

    def test_chain_with_no_slack_plans_no_drop(self):
        rig = _setup(NO_SLACK, seed=b"bsgs-no-slack", n=64)
        scheme, sk = rig[0], rig[1]
        assert scheme.level == 5
        messages = [[11, 22, 33, 44], [55, 66, 77, 88], [99, 111, 222, 333]]
        server, result, decrypted = _transcipher(NO_SLACK, rig, messages, nonce=77)
        assert server.levels == (5, 5, 5)
        # One drop would cost more than the 1-bit slack.
        never = _headroom(NO_SLACK, scheme.noise_model, (5, 5, 5))
        assert _headroom(NO_SLACK, scheme.noise_model, (5, 5, 4)) < never - 1.0
        assert decrypted == messages
        assert get_tracer().spans_named("fhe.mod_switch") == []
        model = scheme.noise_model
        assert model.headroom_bits(result.ciphertexts[0].noise) <= scheme.noise_budget_bits(
            sk, result.ciphertexts[0]
        )

    def test_chain_the_bound_does_not_guarantee_plans_no_drop(self):
        """t = 2, omega = 33, three rounds on 19 limbs of 26-bit primes: the
        unswitched bound leaves 12.9 bits of modeled headroom, under the
        33-bit decryption floor, so only the real noise's slack under the
        bound could make the result decrypt. The 1-bit rule alone would plan
        (19, 19, 16, 13, 11, 8, 5), whose switches spend that slack (every
        block decrypted wrongly), so the plan keeps the full chain; and the
        server refuses the circuit before evaluating it."""
        pasta = _pasta(2, 33, 3)
        params = _chain(pasta.p, N, 19, 26)
        model = NoiseModel(params)
        never = _headroom(pasta, model, (19,) * 7)
        assert 0 <= never < model.decryption_floor_bits
        assert plan_levels(pasta, model, model.fresh()) == (19,) * 7
        assert transcipher_parameters(pasta, N, prime_bits=26).levels > 19
        scheme, sk, rlk, gk, encoder, key, enc_key = _setup(
            pasta, seed=b"bsgs-floor", params=params
        )
        with pytest.raises(NoiseBudgetExhausted, match="decryption floor"):
            BatchedHheServer(pasta, scheme, rlk, encoder, enc_key, galois_keys=gk)


#: Chains :func:`transcipher_parameters` derives, by (instance, N, prime
#: width, whether the ML score follows): limbs and planned headroom. The
#: floor is 16.0 bits at p = 65537.
DERIVED = {
    "hhe_frame": (FRAME, 512, 26, False, 10, 24.1),
    "service-micro": (PASTA_MICRO, 256, 30, False, 8, 25.9),
    "client-micro": (PASTA_MICRO, 1024, 30, False, 9, 35.8),
    "service-toy": (PASTA_TOY, 256, 30, False, 11, 31.1),
    "client-toy": (PASTA_TOY, 1024, 30, False, 12, 33.0),
    "ml-micro": (PASTA_MICRO, 256, 30, True, 9, 31.8),
    "ml-toy": (PASTA_TOY, 1024, 30, True, 13, 36.0),
}


class TestAdmission:
    """:func:`transcipher_parameters` and the server's construction-time
    admission: one rule, the decryption floor."""

    @pytest.mark.parametrize("case", sorted(DERIVED))
    def test_derived_chain_is_the_shortest_admitted(self, case):
        pasta, n, prime_bits, scored, limbs, headroom = DERIVED[case]
        after = functools.partial(score_noise, t=pasta.t) if scored else None
        params = transcipher_parameters(pasta, n, prime_bits, after=after)
        assert params == _chain(pasta.p, n, limbs, prime_bits)

        def planned(params):
            model = NoiseModel(params)
            levels = plan_levels(pasta, model, model.fresh())
            return _headroom(pasta, model, levels, after), model.decryption_floor_bits

        got, floor = planned(params)
        assert round(got, 1) == headroom and got >= floor
        shorter, floor = planned(params.at_level(limbs - 1))
        assert shorter < floor

    def test_benchmarked_chains_are_unchanged(self):
        """hhe_frame's chain is the bench's 240 bits of 26-bit primes, and
        the service's PASTA_MICRO chain its former 230 bits."""
        frame = toy_parameters(FRAME.p, n=512, log2_q=240, prime_bits=26)
        assert transcipher_parameters(FRAME, 512, prime_bits=26) == frame
        micro = toy_parameters(PASTA_MICRO.p, n=N, log2_q=230)
        assert transcipher_parameters(PASTA_MICRO, N) == micro

    def test_no_chain_of_the_width_qualifies(self):
        # The 15-bit primes = 1 mod 512 cover 183 bits: too few for PASTA_TOY.
        with pytest.raises(ParameterError, match="no chain of 15-bit primes"):
            transcipher_parameters(PASTA_TOY, N, prime_bits=15)

    def test_server_refuses_before_evaluating(self):
        """PASTA_TOY at N = 1024 on 11 limbs plans +3.8 bits of modeled
        headroom, under the 16-bit floor: the constructor refuses it."""
        scheme, sk, rlk, gk, encoder, key, enc_key = _setup(
            PASTA_TOY, seed=b"bsgs-refused", n=1024, params=_chain(PASTA_TOY.p, 1024, 11)
        )
        with pytest.raises(NoiseBudgetExhausted, match="modeled headroom 3.8 bits"):
            BatchedHheServer(PASTA_TOY, scheme, rlk, encoder, enc_key, galois_keys=gk)
        assert get_tracer().spans_named("hhe.transcipher") == []
        assert get_tracer().spans_named("hhe.prepare") == []


#: Round counts other than the differential rigs' 2 at N = 256, on the
#: chains the model admits: one round has no Feistel layer, and PASTA_TOY
#: (t = 4, 3 rounds) takes 11 limbs.
ROUNDS_RIGS = {
    "rounds-1": PastaParams(name="one-round", t=2, rounds=1, p=PASTA_MICRO.p, secure=False),
    "rounds-3": PASTA_TOY,
}


class TestRounds:
    @pytest.mark.parametrize("rig", sorted(ROUNDS_RIGS))
    def test_two_groups_match_cipher_oracle(self, rig):
        pasta = ROUNDS_RIGS[rig]
        built = _setup(pasta, seed=b"bsgs-" + rig.encode())
        scheme, sk = built[0], built[1]
        capacity = HALF // pasta.t
        rng = np.random.default_rng(3)
        messages = rng.integers(0, pasta.p, size=(capacity + 1, pasta.t)).tolist()
        _, result, decrypted = _transcipher(pasta, built, messages, nonce=2**63 + 1)

        assert decrypted == messages
        assert len(result.ciphertexts) == 2
        assert _ops(result) == {k: 2 * v for k, v in homomorphic_op_counts(pasta).items()}
        model = scheme.noise_model
        modeled = model.headroom_bits(model.merge(ct.noise for ct in result.ciphertexts))
        assert modeled <= min(scheme.noise_budget_bits(sk, ct) for ct in result.ciphertexts)


class TestHoistedBsgs:
    """Hoisted baby steps: one shared decomposition per BSGS affine layer."""

    def test_hoisted_run_matches_closed_form(self, micro):
        server, result, _ = _transcipher(PASTA_MICRO, micro, [[7, 9], [3, 4]], 5)
        expected = homomorphic_op_counts(PASTA_MICRO)
        assert _ops(result) == expected
        # Layer 0 runs on the pre-rotated key and the last layer's two
        # diagonals split (1, 2): only layer 1 decomposes. Three
        # relinearizations, two giant steps, the fold, the Feistel shift
        # and that decomposition are the key switches.
        assert expected["decompositions"] == PASTA_MICRO.rounds - 1
        assert expected["keyswitches"] == 8

    def test_giant_step_hoisted_run_matches_closed_form(self, quad):
        server, result, _ = _transcipher(QUAD, quad, [[1, 2, 3, 4]], 5)
        assert _ops(result) == homomorphic_op_counts(QUAD)

    def test_hoisted_superset_of_rotation_steps(self):
        # t=16 -> bsgs_split(32) = (8, 4): hoisted babies rotate the source
        # directly by every k*w, so the key schedule must cover 2w..7w too;
        # the last layer's 16 diagonals split (4, 4) inside those steps and
        # fold by t*w.
        wide = PastaParams(name="x16", t=16, rounds=2, p=PASTA_MICRO.p, secure=False)
        steps = BatchedHheServer.required_rotation_steps(wide, N)
        w = HALF // (2 * wide.t)
        bs, giants = bsgs_split(2 * wide.t)
        assert bs == 8
        expected = {k * w for k in range(1, bs)} | {bs * w, wide.t * w, HALF - w}
        assert set(steps) == expected
        assert steps == sorted(expected)


class TestOpCounts:
    def test_bsgs_run_matches_closed_form(self, micro):
        server, result, _ = _transcipher(PASTA_MICRO, micro, [[7, 9], [3, 4]], 5)
        assert _ops(result) == homomorphic_op_counts(PASTA_MICRO)

    def test_giant_step_run_matches_closed_form(self, quad):
        server, result, _ = _transcipher(QUAD, quad, [[1, 2, 3, 4]], 5)
        assert _ops(result) == homomorphic_op_counts(QUAD)

    @given(t=st.sampled_from([2, 4, 8, 16, 32, 64, 128]),
           rounds=st.integers(min_value=1, max_value=4))
    @settings(max_examples=12, deadline=None)
    def test_bsgs_formula_scaling(self, t, rounds):
        params = PastaParams(name="x", t=t, rounds=rounds, p=PASTA_MICRO.p, secure=False)
        counts = homomorphic_op_counts(params)
        bs, giants = bsgs_split(2 * t)
        last_bs, last_giants = bsgs_split(t)
        # O(t) plain muls per layer and O(t^(2/3)) rotations per BSGS layer
        # (layers 1..r; layer 0 runs on the pre-rotated key, and the last
        # layer is a t x 2t rectangle plus one fold), against t^2 plain muls
        # per layer side with one ciphertext per state element.
        assert counts["plain_muls"] == 2 * t * rounds + t + (rounds - 1)
        assert counts["rotations"] == (
            (rounds - 1) * (bs + giants - 2) + (last_bs + last_giants - 1) + (rounds - 1)
        )
        assert counts["decompositions"] == (rounds - 1) * (bs > 1) + (last_bs > 1)
        # Not hoisted: G - 1 giant steps per layer, the fold and r - 1
        # Feistel shifts.
        assert counts["keyswitches"] == (
            counts["relins"] + counts["decompositions"] + (rounds - 1) * giants + last_giants
        )


class TestEngineSelection:
    def test_bsgs_without_keys_rejected(self, micro):
        scheme, sk, rlk, gk, encoder, key, enc_key = micro
        with pytest.raises(ParameterError, match="[Gg]alois"):
            BatchedHheServer(
                PASTA_MICRO, scheme, rlk, encoder, enc_key, engine="bsgs"
            )

    def test_bsgs_with_incomplete_keys_rejected(self, quad):
        scheme, sk, rlk, gk, encoder, key, enc_key = quad
        partial = scheme.rotation_keygen(sk, [HALF // (2 * QUAD.t)])  # one baby step only
        with pytest.raises(ParameterError, match="missing"):
            BatchedHheServer(
                QUAD, scheme, rlk, encoder, enc_key, engine="bsgs", galois_keys=partial
            )

    def test_overflow_batch_runs_in_packed_groups(self, quad):
        # More blocks than the packed capacity: the server answers with one
        # packed ciphertext per group, not a truncated or crashed batch.
        capacity = HALF // QUAD.t
        n_blocks = capacity + 1
        messages = [[(b + j) % QUAD.p for j in range(QUAD.t)] for b in range(n_blocks)]
        server, result, decrypted = _transcipher(QUAD, quad, messages, 91)
        assert server.packed_capacity == capacity
        assert decrypted == messages
        assert result.group_size == capacity
        assert len(result.ciphertexts) == 2
        assert _ops(result) == {k: 2 * v for k, v in homomorphic_op_counts(QUAD).items()}

    def test_required_rotation_steps_are_deduped_and_sorted(self):
        steps = BatchedHheServer.required_rotation_steps(QUAD, N)
        assert steps == sorted(set(steps))
        w = HALF // (2 * QUAD.t)
        bs, giants = bsgs_split(2 * QUAD.t)
        expected = {k * w for k in range(1, bs)} | {bs * w, HALF - w}
        assert set(steps) == expected
