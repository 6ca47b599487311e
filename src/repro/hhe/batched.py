"""Batched (SIMD) transciphering: many PASTA blocks per circuit evaluation.

This is the one homomorphic PASTA evaluator. Real HHE deployments —
including the PASTA paper's own server-side evaluation — amortize: with
BFV batching, one evaluation of the decryption circuit transciphers many
blocks at once. Only the affine constants differ per block, so the
circuit's plaintext multiplications become plaintext-*polynomial*
multiplications of encoded constant vectors.

:class:`BatchedHheServer` evaluates the *packed* layout. ONE ciphertext
carries a packed group: the N slots form two hypercube rows of N/2 (see
:func:`repro.fhe.galois.galois_slot_order`), each row holds the whole
2t-element state ``[L ‖ R]`` of ``w = (N/2) / (2t)`` blocks, and the two
rows hold different blocks. Block k of a group sits in row ``k // w``, its
state element j at that row's logical slot ``j * w + k % w``. Column
rotations ``tau_{3^s}`` rotate both rows at once, so a shift by whole
state elements needs no conjugation key.

* Each affine layer runs as ``A = [[2M_L, M_R], [M_L, 2M_R]]`` with round
  constant ``[2rc_L + rc_R, rc_L + 2rc_R]``: PASTA's Mix folded into the
  2t generalized diagonals, all at multiples of w.
* The client uploads the key pre-rotated (:func:`encrypt_key_batched`), so
  layer 0 is a rotation-free diagonal sum. Its diagonals are small
  plaintexts, so it runs in a two- or three-prime auxiliary NTT basis
  (:class:`~repro.fhe.rns.AuxiliaryBasis`, sized by
  ``|B| > 2 * 2t * N * (p-1)/2 * (max q_i - 1)/2``) that the key upload is
  converted into once, at construction: each frame transforms its 2t
  diagonals into |B| limbs instead of L, and an exact lift returns the
  product to the chain, residue for residue.
* Layers 1..r run the baby-step/giant-step diagonal method with hoisted
  baby rotations (Halevi-Shoup, "Algorithms in HElib"), split by
  :func:`~repro.pasta.decrypt_circuit.bsgs_split`: (16, 4) for 2t = 64.
  The last layer keeps only the L rows, so it is the t x 2t rectangle it
  is: t extended diagonals at (8, 4) for t = 32, then one fold
  ``out = z + rot(z, t*w)``, which leaves a copy of the L half in the R
  half (:class:`BatchedTranscipherResult`).
* The Feistel shift ``x[j] + x[j-1]^2`` is one rotation right by w and one
  mask that drops the wrapped element.

It requires the RNS engine and a :class:`~repro.fhe.bfv.GaloisKey`
covering :meth:`BatchedHheServer.required_rotation_steps`. One evaluation
covers the packed capacity ``2w = (N/2) / t`` blocks at an operation count
that does not depend on how many of them are filled (reported by the
``hhe_cost`` experiment); a larger batch runs as consecutive packed
groups, one result ciphertext per group.

The circuit runs on planned RNS levels (prefixes of the prime chain,
:meth:`repro.fhe.bfv.Bfv.at_level`). At construction,
:func:`plan_levels` reads the noise ledger's closed forms only and picks
one level per stage: layer 0 and the first S-box on the full chain, then
before each later stage the fewest limbs that keep the modeled final
headroom within :data:`LEVEL_SLACK_BITS` of the circuit that never
switches and above the decryption floor. BFV noise is scale-invariant
once it has grown, which it has after the first S-box, so the later
stages (their key switches, tensor products and prepared plaintexts) run
on fewer limbs at almost no cost in headroom. The last state is raised back to the full chain by an exact
multiply, so results keep their chain, wire size and headroom for
whatever the client evaluates next.

The same closed forms admit the circuit: the constructor refuses, with
:class:`~repro.errors.NoiseBudgetExhausted`, a plan whose result estimate
leaves less modeled headroom than the decryption floor (about log2 p),
before it evaluates anything, and :func:`transcipher_parameters` returns
the shortest prime chain that passes.

The prepared plaintexts of every layer depend only on the public
(nonce, counters), so each call prepares them beside the evaluation, as
the paper's schedule generates round i+1's matrices while round i's
MatMul runs: the calling thread prepares group 0's layer 0 and evaluates,
while one ``hhe-prepare`` thread prepares every later (group, layer), at
most one group of layers ahead of the evaluator. A group's block
materials are derived at most once per call, only when one of its layers
misses the prepared-plaintext caches, and every layer's matrices are built
from them.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NoiseBudgetExhausted, ParameterError
from repro.utils.budget import BudgetedLru, CacheBudget
from repro.fhe.batching import BatchEncoder
from repro.fhe.bfv import Bfv, BfvParams, Ciphertext, GaloisKey, PublicKey, RelinKey
from repro.fhe.engine import CiphertextTensor
from repro.fhe.galois import rotation_element, rows_to_slots, slots_to_rows
from repro.fhe.rns import AuxiliaryBasis, ntt_prime_chain
from repro.obs.noise import NoiseEstimate, NoiseModel
from repro.obs.trace import SpanContext, Tracer, get_tracer
from repro.pasta.batch import batched_sequential_matrices, get_engine
from repro.pasta.cipher import field_elements
from repro.pasta.decrypt_circuit import affine_diagonals, bsgs_split
from repro.pasta.params import PastaParams
from repro.pasta.xof import as_u64

#: How far below the never-switching circuit's modeled final headroom the
#: level plan may go, in bits.
LEVEL_SLACK_BITS = 1.0

#: Default prepared-plaintext budget, in slot rows (one encoded plaintext
#: polynomial = one row; a layer's diagonal stack costs 2t rows, its
#: round-constant row 1). Applied per server when no shared
#: :class:`CacheBudget` is given — the streaming service passes ONE budget
#: to every tenant's server so the aggregate stays bounded however many
#: tenants are live.
DEFAULT_PREPARED_ROWS = 4096


@dataclass
class BfvOpCounts:
    """Homomorphic-operation counters of one call (see ``homomorphic_op_counts``)."""

    adds: int = 0
    plain_adds: int = 0
    plain_muls: int = 0
    squares: int = 0
    muls: int = 0
    relins: int = 0
    rotations: int = 0  #: Galois automorphism + key switch
    decompositions: int = 0  #: Hoisted digit decompositions shared by rotations
    #: Digit decompositions run: relinearizations, rotations that are not
    #: hoisted, and hoisted decompositions.
    keyswitches: int = 0


@dataclass
class BatchedTranscipherResult:
    """One packed ciphertext per group of ``group_size`` transciphered blocks.

    Ciphertext g holds blocks ``g * group_size`` onward. With
    ``w = group_size / 2``, the group's k-th block sits in hypercube row
    ``k // w``, its message element j at that row's logical slot
    ``j * w + k % w`` (:func:`repro.fhe.galois.slots_to_rows` order), for
    j < t (the L half). The R half holds a copy: slot ``(t + j) * w + k % w``
    decrypts to element j too, since the last affine layer runs as a t x 2t
    rectangle whose fold fills both halves. The slots of unfilled blocks
    decrypt to 0. Readers take the L half (:func:`decrypt_batched_result`)
    or mask the R half off. ``ops`` sums every group's evaluation.
    """

    ciphertexts: List[Ciphertext]
    counters: List[int]
    ops: BfvOpCounts
    group_size: int


def require_headroom(model: NoiseModel, estimate: Optional[NoiseEstimate]) -> None:
    """Refuse an estimate whose modeled headroom is below the decryption floor.

    The server holds no secret key, so the noise ledger's bound is its only
    evidence that a result still decrypts, and the bound guarantees that
    only above :attr:`~repro.obs.noise.NoiseModel.decryption_floor_bits`
    (about log2 p); below it :class:`NoiseBudgetExhausted` is raised
    instead. ``None`` (a ciphertext the ledger never saw) passes.
    """
    headroom = model.headroom_bits(estimate)
    if headroom is not None and headroom < model.decryption_floor_bits:
        raise NoiseBudgetExhausted(
            f"modeled headroom {headroom:.1f} bits is below the "
            f"{model.decryption_floor_bits:.1f}-bit decryption floor"
        )


def _row_width(width: int, ring_n: int) -> int:
    """Blocks per hypercube row, w = (N/2) / width, for a 2t-element state."""
    half = ring_n // 2
    if width < 1 or half < width or half % width:
        raise ParameterError(
            f"packing needs 2t={width} to divide the slot-row width N/2={half}"
        )
    return half // width


def _check_encoder(scheme: Bfv, encoder: BatchEncoder) -> None:
    """Refuse a slot encoder for another ring or plaintext modulus.

    Slots encoded mod another prime still encrypt and evaluate, but every
    slot of the result then decrypts to garbage.
    """
    ours, theirs = (scheme.params.n, scheme.params.p), (encoder.n, encoder.p)
    if theirs != ours:
        raise ParameterError(
            f"slot encoder (n, p) = {theirs} does not match the scheme's (n, p) = {ours}"
        )


def circuit_noise(
    params: PastaParams, full: NoiseModel, levels: Sequence[int], key_noise
) -> Optional[NoiseEstimate]:
    """The ledger's closed forms along a level plan: the result's estimate.

    Stage 0 is layer 0 (a 2t-term diagonal sum on the key upload, then the
    round-constant add), stage ``2i + 1`` round i's S-box (Feistel, or the
    cube in the last round) and stage ``2i + 2`` layer ``i + 1`` (BSGS,
    then the round-constant add; the last layer folds its rectangle
    first); a drop between stages is a modulus switch, and the last
    stage's level is raised back to the full chain before the negation and
    the message add. These are the growth rules the
    :class:`~repro.fhe.bfv.Bfv` wrappers apply while
    :class:`BatchedHheServer` evaluates, in the same order, so the
    evaluated result carries exactly this estimate. ``full`` is the full
    chain's model.
    """
    estimate = full.add_plain(full.affine(key_noise, 2 * params.t))
    for stage in range(1, len(levels)):
        model = full.at_level(levels[stage])
        if levels[stage] < levels[stage - 1]:
            estimate = full.at_level(levels[stage - 1]).mod_switch(estimate, model)
        if stage % 2 == 0:
            estimate = model.bsgs_affine(
                estimate, *bsgs_split(affine_diagonals(params, stage // 2))
            )
            if stage == len(levels) - 1:  # the rectangle's fold
                estimate = model.add(estimate, model.rotate(estimate))
            estimate = model.add_plain(estimate)
        elif stage < len(levels) - 2:
            square = model.rotate(model.multiply(estimate, estimate))
            estimate = model.add(estimate, model.mul_plain_poly(square))
        else:
            estimate = model.multiply(model.multiply(estimate, estimate), estimate)
    if levels[-1] < full.params.levels:
        estimate = full.at_level(levels[-1]).mod_raise(estimate, full)
    return full.add_plain(full.neg(estimate))


def plan_levels(params: PastaParams, model: NoiseModel, key_noise) -> Tuple[int, ...]:
    """One RNS level (limb count) per stage of the packed circuit, greedily.

    Stages as in :func:`circuit_noise`: ``2r + 1`` of them. Layer 0 and
    the first S-box keep the full chain: before the first product the
    noise is small and fixed, so every dropped bit would cost a bit of
    headroom. Before each later stage the plan takes the fewest limbs that
    keep the modeled final headroom, with every later stage on those limbs
    too, within :data:`LEVEL_SLACK_BITS` of the plan that never drops, and
    above :attr:`~repro.obs.noise.NoiseModel.decryption_floor_bits`.

    The second bound matters because a switch also spends the real noise's
    slack under the worst-case bound: its rounding term puts the real
    noise near the modeled one, and the products after it grow from there.
    Where the bound of the unswitched circuit does not guarantee
    decryption, only that slack does, so such a circuit plans no drop (and
    the server refuses it). Only ``model``, the full chain's ledger, is
    read: no level view or RNS engine is built. An unknown key noise plans
    no drop.
    """
    full = model.params.levels
    stages = 2 * params.rounds + 1
    if key_noise is None:
        return (full,) * stages

    def headroom(levels) -> float:
        return model.headroom_bits(circuit_noise(params, model, levels, key_noise))

    floor = max(
        headroom((full,) * stages) - LEVEL_SLACK_BITS, model.decryption_floor_bits
    )
    levels = [full, full]
    for stage in range(2, stages):
        best = levels[-1]
        for level in range(best - 1, 0, -1):
            if math.prod(model.params.rns_primes[:level]) <= params.p:
                break
            if headroom(levels + [level] * (stages - stage)) < floor:
                break
            best = level
        levels.append(best)
    return tuple(levels)


def transcipher_parameters(
    params: PastaParams,
    n: int,
    prime_bits: int = 30,
    after: Optional[Callable[[NoiseModel, NoiseEstimate], NoiseEstimate]] = None,
) -> BfvParams:
    """The shortest BFV chain the noise ledger admits for transciphering
    PASTA ``params`` at ring degree ``n``.

    The candidates are the prefixes of one
    :func:`~repro.fhe.rns.ntt_prime_chain` of ``prime_bits``-wide primes,
    shortest first. A prefix qualifies when the result estimate of its
    level plan (:func:`plan_levels` and :func:`circuit_noise` on a fresh
    key upload), passed through ``after(model, estimate)`` when the caller
    evaluates more on the result (e.g.
    :func:`repro.apps.ml_inference.score_noise`), passes
    :func:`require_headroom`: the rule :class:`BatchedHheServer` admits a
    circuit by. Only closed forms are read; no scheme or RNS engine is
    built. Raises :class:`ParameterError` when the primes of that width
    run out first.
    """
    primes: Tuple[int, ...] = ()
    while True:
        # The scan is deterministic, so asking for one bit past the current
        # product appends the chain's next prime.
        try:
            primes = ntt_prime_chain(n, math.prod(primes).bit_length() + 1, prime_bits)
        except ParameterError as exc:
            raise ParameterError(
                f"no chain of {prime_bits}-bit primes at N = {n} admits {params.name}: {exc}"
            ) from None
        q = math.prod(primes)
        if q <= params.p:
            continue
        bfv = BfvParams(n=n, q=q, p=params.p, rns_primes=primes)
        model = NoiseModel(bfv)
        key = model.fresh()
        estimate = circuit_noise(params, model, plan_levels(params, model, key), key)
        if after is not None:
            estimate = after(model, estimate)
        try:
            require_headroom(model, estimate)
        except NoiseBudgetExhausted:
            continue
        return bfv


def _place(per_block: np.ndarray, w: int) -> np.ndarray:
    """``(n, ..., 2t)`` per-block state vectors -> ``(..., 2, N/2)`` hypercube rows.

    Block k goes to row ``k // w``, its element j to slot ``j * w + k % w``;
    the slots of the ``2w - n`` unfilled blocks stay 0.
    """
    grid = np.zeros((2 * w,) + per_block.shape[1:], dtype=per_block.dtype)
    grid[: per_block.shape[0]] = per_block
    grid = np.moveaxis(grid.reshape((2, w) + per_block.shape[1:]), (0, 1), (-3, -1))
    return grid.reshape(grid.shape[:-2] + (-1,))


def _mix(left: np.ndarray, right: np.ndarray, axis: int) -> np.ndarray:
    """PASTA's Mix over the affine output rows: ``[2L + R, L + 2R]``."""
    return np.concatenate([2 * left + right, left + 2 * right], axis=axis)


def encrypt_key_batched(
    scheme: Bfv, pk: PublicKey, encoder: BatchEncoder, key: Sequence[int]
) -> List[Ciphertext]:
    """Client side: the 2t-element key, packed and pre-rotated 2t ways.

    Ciphertext d holds the key rotated left by d state elements: slot
    ``j * w + c`` of both hypercube rows holds ``key[(j + d) mod 2t]``, for
    every c < w. These are exactly the inputs of layer 0's diagonal sum, so
    the server evaluates that layer without a rotation. 2t fresh
    encryptions, like one per key element, made as one batch
    (:meth:`Bfv.encrypt_polys`): each ciphertext's randomness is drawn in
    the order of 2t :meth:`Bfv.encrypt_poly` calls, so the upload is bit for
    bit theirs, and the batch's polynomials are transformed as stacks.
    """
    _check_encoder(scheme, encoder)
    values = np.asarray([int(k) for k in key], dtype=np.int64)
    width = len(values)
    w = _row_width(width, encoder.n)
    j = np.arange(width)
    rotated = values[(j[:, None] + j[None, :]) % width]  # [d, j] = key[(j + d) mod 2t]
    rows = np.broadcast_to(np.repeat(rotated, w, axis=1)[:, None], (width, 2, width * w))
    return scheme.encrypt_polys(pk, encoder.encode_rows(rows_to_slots(encoder.n, rows)))


class BatchedHheServer:
    """Evaluate PASTA decryption over slot-packed BFV ciphertexts.

    One server may serve concurrent calls (the service runs several worker
    threads against a tenant's server): all per-call state — op counts and
    the layers prepared ahead — lives in the call, and each call starts and
    joins its own ``hhe-prepare`` thread. Nothing runs between calls.
    """

    def __init__(
        self,
        params: PastaParams,
        scheme: Bfv,
        rlk: RelinKey,
        encoder: BatchEncoder,
        encrypted_key: Sequence[Ciphertext],
        engine: str = "bsgs",
        galois_keys: Optional[GaloisKey] = None,
        tenant: str = "default",
        prepared_budget: Optional[CacheBudget] = None,
    ):
        if engine != "bsgs":
            raise ParameterError(f"unknown evaluation engine {engine!r} (only 'bsgs')")
        if scheme.params.p != params.p:
            raise ParameterError("BFV plaintext modulus must equal the PASTA prime")
        _check_encoder(scheme, encoder)
        if len(encrypted_key) != params.key_size:
            raise ParameterError(f"expected {params.key_size} encrypted key elements")
        scheme_engine = getattr(scheme.engine, "name", "bigint")
        if scheme_engine != "rns":
            raise ParameterError(
                f"the packed evaluator requires the RNS evaluation engine, "
                f"scheme uses {scheme_engine!r}"
            )
        n = scheme.params.n
        width = 2 * params.t
        #: Blocks per hypercube row; the packed capacity is 2w.
        self._width = w = _row_width(width, n)
        if galois_keys is None:
            raise ParameterError(
                "the packed evaluator requires Galois rotation keys "
                "(Bfv.rotation_keygen over required_rotation_steps)"
            )
        required = self.required_rotation_steps(params, n)
        elements = {rotation_element(n, step) for step in required} - {1}
        missing = sorted(elements - set(galois_keys.keys))
        if missing:
            raise ParameterError(
                f"Galois key is missing elements {missing} for rotation "
                f"steps {required} (have {sorted(galois_keys.keys)})"
            )
        self.params = params
        self.scheme = scheme
        self.rlk = rlk
        self.encoder = encoder
        self.galois_keys = galois_keys
        #: Shared batched keystream engine: each packed group's block
        #: materials for the public (nonce, counter) schedule come from it
        #: at most once per call (:meth:`_schedule`).
        self.engine = get_engine(params)

        # Stack every key now: the engine refuses material from another
        # ring or prime chain here, at setup, instead of mid-frame.
        key = scheme.stack_ciphertexts(list(encrypted_key))
        self._key_noise = key.noise
        #: The RNS level of each circuit stage (:func:`plan_levels`), and
        #: the result's planned noise estimate (:func:`circuit_noise`): a
        #: circuit the bound does not cover is refused before anything of
        #: it is built or evaluated.
        model = scheme.noise_model
        self.levels = plan_levels(params, model, self._key_noise)
        self.result_noise = circuit_noise(params, model, self.levels, self._key_noise)
        require_headroom(model, self.result_noise)
        #: Layer 0's basis: the key upload is converted into it once, here,
        #: so each frame transforms its 2t diagonals into |B| limbs, not L.
        self._aux = AuxiliaryBasis(scheme.engine.ctx, width, params.p // 2)
        self._key = self._aux.convert(key.data)
        #: The scheme view each stage evaluates on.
        self._stages = [scheme.at_level(level) for level in self.levels]
        # Feistel mask: drop state element 0's slots, where the rotated
        # square of element 2t - 1 wraps around.
        not_first = np.ones((1, 2, n // 2), dtype=np.int64)
        not_first[..., :w] = 0
        not_first = self._encode(not_first)
        # Every level view, key stack, mask and switch transport the plan
        # needs is built here, so the evaluating threads only read them.
        for view in dict.fromkeys(self._stages):
            view._relin_key_stacks(rlk)
            for element in sorted(elements):
                view._galois_key_stacks(galois_keys, element)
        feistels = dict.fromkeys(self._stages[1 : 2 * params.rounds - 1 : 2])
        self._masks = {view.level: view.prepare_mul_rows(not_first) for view in feistels}
        # The drops between stages, then the raise back to the full chain.
        moves = list(zip(self._stages, self._stages[1:])) + [(scheme, self._stages[-1])]
        for high, low in moves:
            if high is not low:
                high.engine.level_switch(low.engine)

        # Prepared-plaintext caches keyed by the public schedule: the affine
        # diagonals and round constants depend only on (nonce, counters,
        # layer), so re-serving a schedule skips the slot encode and the
        # forward NTT of every prepared plaintext. They are
        # :class:`BudgetedLru` instances costed in slot rows against ONE
        # shared :class:`CacheBudget` — per-server by default,
        # process-global when the streaming service passes its budget in —
        # with eviction pressure applied to whichever tenant holds the most
        # rows, so a hot tenant cannot push a cold one below its fair share.
        self.tenant = tenant
        self.prepared_budget = prepared_budget or CacheBudget(DEFAULT_PREPARED_ROWS)
        self._caches: Dict[str, BudgetedLru] = {
            kind: BudgetedLru(
                owner=tenant,
                budget=self.prepared_budget,
                cost_of=lambda key, value, rows=rows: rows,
            )
            for kind, rows in (("diags_bsgs", float(width)), ("rc_bsgs", 1.0))
        }

    def prepared_cache_info(self) -> Dict[str, Dict[str, float]]:
        """Per-cache hit/miss/size/cost plus the shared budget snapshot."""
        info = {kind: lru.cache_info() for kind, lru in self._caches.items()}
        info["budget"] = dict(self.prepared_budget.snapshot())
        return info

    @staticmethod
    def required_rotation_steps(params: PastaParams, ring_n: int) -> List[int]:
        """Left-rotation steps the packed evaluator key-switches by.

        With ``w = (N/2) / (2t)`` blocks per hypercube row, hoisted baby
        steps rotate the *source* directly by every multiple ``k * w``
        (k = 1..bs-1), Horner giant steps advance ``bs * w``, the last
        layer folds its rectangle by ``t * w``, and the Feistel S-box
        shifts the squared state one element *right* (``N/2 - w`` left),
        with ``(bs, G) = bsgs_split(D)`` for each BSGS layer's D diagonals
        (2t, and t for the last). Steps whose factor collapses to 1 for the
        parameter set are omitted.
        """
        half = ring_n // 2
        w = half // (2 * params.t)
        steps = {params.t * w}  # the last layer's fold
        for layer in range(1, params.rounds + 1):
            bs, giants = bsgs_split(affine_diagonals(params, layer))
            steps.update(k * w for k in range(1, bs))
            if giants > 1:
                steps.add(bs * w)
        if params.rounds > 1:
            steps.add(half - w)
        return sorted(steps)

    @property
    def packed_capacity(self) -> int:
        """Blocks per packed ciphertext: w per hypercube row, two rows."""
        return 2 * self._width

    def _encode(self, rows: np.ndarray) -> np.ndarray:
        """(R, 2, N/2) hypercube rows -> (R, N) encoded plaintext polynomials."""
        return self.encoder.encode_rows(rows_to_slots(self.scheme.params.n, rows))

    # -- public schedule -> prepared plaintexts ---------------------------------------

    def _schedule(self, nonce: int, counters: Tuple[int, ...]):
        """A group's block materials and every layer's ``(2, n, t, t)``
        matrices (sides L, R), derived in one batched pass each: the
        recurrence of paper Eq. (1) runs once over all layers and sides."""
        params = self.params
        materials = self.engine.materials(nonce, list(counters))
        alphas = np.stack(
            [
                getattr(m.layers[layer], f"alpha_{side}")
                for layer in range(params.rounds + 1)
                for side in "lr"
                for m in materials
            ]
        )
        matrices = batched_sequential_matrices(params, alphas)
        shape = (params.rounds + 1, 2, len(materials)) + matrices.shape[1:]
        return materials, matrices.reshape(shape)

    def _prepared_diags(
        self, nonce: int, counters: Tuple[int, ...], layer: int, schedule: Callable[[], tuple]
    ):
        """The generalized diagonals of layer ``layer``'s Mix∘Affine matrix,
        prepared on the layer's basis. On a cache miss they are built from
        ``schedule()``, the group's :meth:`_schedule`.

        Diagonal d holds ``A_k[j mod D, (j + d) mod 2t]`` at block k's slot
        of element j, for the layer's ``D = affine_diagonals(...)``
        diagonals (2t, or t for the last layer's rectangle). Layer 0
        consumes them as they are, transformed into the auxiliary basis
        only (:meth:`AuxiliaryBasis.prepare`), against the pre-rotated key;
        layers 1..r pre-rotate diagonal ``g*bs + i`` right by ``g*bs*w``
        for the giant-step Horner form and prepare ONE (G, bs) tensor on
        the layer's level.
        """

        def build():
            params, w = self.params, self._width
            width = 2 * params.t
            count = affine_diagonals(params, layer)
            sides = schedule()[1][layer]
            zeros = np.zeros_like(sides[0])
            matrix = _mix(
                np.concatenate([sides[0], zeros], axis=-1),
                np.concatenate([zeros, sides[1]], axis=-1),
                axis=-2,
            ) % params.p  # (n, 2t, 2t)
            j, d = np.arange(width), np.arange(count)
            diags = matrix[:, j[None, :] % count, (j[None, :] + d[:, None]) % width]  # [k, d, j]
            rows = _place(diags, w)  # (D, 2, N/2)
            if layer == 0:
                encoded = self._encode(rows)
                centered = (encoded + params.p // 2) % params.p - params.p // 2
                return self._aux.prepare(centered[None])
            bs, giants = bsgs_split(count)
            for g in range(1, giants):
                rows[g * bs : (g + 1) * bs] = np.roll(
                    rows[g * bs : (g + 1) * bs], g * bs * w, axis=-1
                )
            encoded = self._encode(rows)
            return self._stages[2 * layer].prepare_matrix(encoded.reshape((giants, bs, -1)))

        return self._caches["diags_bsgs"].get_or_create((nonce, counters, layer), build)

    def _prepared_rc(
        self, nonce: int, counters: Tuple[int, ...], layer: int, schedule: Callable[[], tuple]
    ):
        """Layer ``layer``'s Mix-folded round constants as one prepared row
        (``Delta_k``-scaled on the layer's level), built on a cache miss from
        ``schedule()``. The last layer's L half is copied into its R half,
        where the rectangle's fold puts the L rows' copy."""

        def build():
            params = self.params
            rc = [
                np.stack([getattr(m.layers[layer], f"rc_{side}") for m in schedule()[0]])
                for side in "lr"
            ]  # (n, t) each
            vectors = _mix(rc[0], rc[1], axis=-1)
            if layer == params.rounds:
                vectors[:, params.t :] = vectors[:, : params.t]
            rows = _place(vectors % params.p, self._width)
            return self._stages[2 * layer].prepare_add_rows(self._encode(rows[None]))

        return self._caches["rc_bsgs"].get_or_create((nonce, counters, layer), build)

    def _prepare_layer(
        self,
        nonce: int,
        counters: Tuple[int, ...],
        schedule: Callable[[], tuple],
        group: int,
        layer: int,
        tracer: Tracer,
        parent: SpanContext,
    ):
        """One (group, layer)'s prepared diagonals and round constants.

        ``schedule()`` returns the group's :meth:`_schedule`; only a cache
        miss calls it. Runs in an ``hhe.prepare`` span parented explicitly
        under the call's ``hhe.transcipher`` span, on whichever thread
        prepares the layer.
        """
        with tracer.span(
            "hhe.prepare", parent=parent, metric="hhe.prepare.seconds", group=group, layer=layer
        ):
            return (
                self._prepared_diags(nonce, counters, layer, schedule),
                self._prepared_rc(nonce, counters, layer, schedule),
            )

    # -- circuit pieces ---------------------------------------------------------------

    def _rotate_stack(
        self, scheme: Bfv, state: CiphertextTensor, steps: int, ops: BfvOpCounts
    ) -> CiphertextTensor:
        """Rotate every stacked ciphertext left by ``steps`` (keyswitch each)."""
        ops.rotations += state.slots
        ops.keyswitches += state.slots
        with get_tracer().span("hhe.rotate", metric="hhe.rotate.seconds", steps=steps):
            return scheme.tensor_rotate(state, steps, self.galois_keys)

    def _hoisted_decompose(self, scheme: Bfv, state: CiphertextTensor, ops: BfvOpCounts):
        """Digit-decompose the c1 halves once for a batch of rotations."""
        ops.decompositions += state.slots
        ops.keyswitches += state.slots
        with get_tracer().span("hhe.hoist_decompose", metric="hhe.hoist_decompose.seconds"):
            return scheme.hoisted_decompose(state)

    def _rotate_hoisted(
        self,
        scheme: Bfv,
        state: CiphertextTensor,
        digits: np.ndarray,
        steps: Sequence[int],
        ops: BfvOpCounts,
    ) -> CiphertextTensor:
        """Rotate by each of ``steps`` via a shared digit stack (the apply
        halves of hoisted rotations), stacked in order."""
        ops.rotations += len(steps) * state.slots
        with get_tracer().span(
            "hhe.rotate", metric="hhe.rotate.seconds", steps=",".join(map(str, steps))
        ):
            return scheme.tensor_rotate_hoisted(state, digits, steps, self.galois_keys)

    @staticmethod
    def _at_level(scheme: Bfv, state: CiphertextTensor, dst: Bfv) -> CiphertextTensor:
        """Move ``state`` from ``scheme``'s level to ``dst``'s: switch down,
        raise up, or keep it where it is."""
        if dst.level < scheme.level:
            return scheme.tensor_mod_switch(state, dst.level)
        if dst.level > scheme.level:
            return scheme.tensor_mod_raise(state, dst.level)
        return state

    def _key_affine(self, diags: np.ndarray, rc, ops: BfvOpCounts) -> CiphertextTensor:
        """Layer 0 on the pre-rotated key: ``sum_d diag_d . key_d + rc``.

        Uploaded ciphertext d already holds the key rotated left by d
        elements, so the layer is one 2t-term diagonal sum with no rotation
        and no decomposition. It runs in the auxiliary basis the key was
        converted into at construction (:class:`AuxiliaryBasis`), and its
        residues equal the chain's eval-domain product.
        """
        width = 2 * self.params.t
        ops.plain_muls += width
        ops.adds += width - 1
        ops.plain_adds += 1
        scheme = self.scheme
        with get_tracer().span("hhe.affine", metric="hhe.affine.seconds", layer=0):
            out = CiphertextTensor(scheme.engine.ctx, self._aux.product(diags, self._key))
            out.noise = scheme.noise_model.affine(self._key_noise, width)
            return scheme.tensor_add_plain_rows(out, rc)

    def _bsgs_affine(
        self, scheme: Bfv, state: CiphertextTensor, diags, rc, layer: int, ops: BfvOpCounts
    ) -> CiphertextTensor:
        """One Mix-folded affine layer on the packed state, BSGS-style.

        The layer's D generalized diagonals sit at multiples of w:

            z = sum_d diag(d) . rot(d*w, x)

        Split d = g*bs + i and hoist the giant rotations out of the sum
        (Horner over g), with the diagonals pre-rotated by ``g*bs*w``:

            z = sum_g rot(g*bs*w, sum_i prep_diag[g, i] . rot(i*w, x))

        The bs babies share ONE digit decomposition of the source
        (Halevi-Shoup hoisting), the inner sums are ONE prepared-matrix
        product, and each Horner step is one regular rotation of the
        accumulator: bs*G (= D) plain muls, bs*G - 1 adds and
        (bs-1) + (G-1) rotations, plus one decomposition when bs > 1. The
        last layer's D = t extended diagonals give the L rows only in
        halves; its fold ``out = z + rot(t*w, z)`` sums them, which puts a
        copy of the L half in the R half.
        """
        w, t = self._width, self.params.t
        count = affine_diagonals(self.params, layer)
        bs, giants = bsgs_split(count)
        ctx = scheme.engine.ctx
        diags = scheme._take_prepared_tensor(diags, "matmul")
        ops.plain_muls += bs * giants
        ops.adds += bs * giants - 1
        ops.plain_adds += 1
        with get_tracer().span("hhe.affine", metric="hhe.affine.seconds", layer=layer):
            babies = state.data
            if bs > 1:
                digits = self._hoisted_decompose(scheme, state, ops)
                steps = [i * w for i in range(1, bs)]
                rotated = self._rotate_hoisted(scheme, state, digits, steps, ops)
                babies = np.concatenate([babies, rotated.data])
            # (G, bs, L, N) x (bs, 2, L, N) -> (G, 2, L, N)
            sums = ctx.matmul_mod(diags, babies)
            acc = CiphertextTensor(ctx, sums[giants - 1 :])
            for g in range(giants - 2, -1, -1):
                rotated = self._rotate_stack(scheme, acc, bs * w, ops)
                acc = scheme.tensor_add(CiphertextTensor(ctx, sums[g : g + 1]), rotated)
            # The raw matmul_mod contraction above bypasses the Bfv wrappers,
            # so the ledger gets the sum's closed-form bound in one step.
            acc.noise = scheme.noise_model.bsgs_affine(state.noise, bs, giants)
            if count < 2 * t:
                ops.adds += 1
                acc = scheme.tensor_add(acc, self._rotate_stack(scheme, acc, t * w, ops))
            return scheme.tensor_add_plain_rows(acc, rc)

    def _feistel(self, scheme: Bfv, state: CiphertextTensor, ops: BfvOpCounts) -> CiphertextTensor:
        """Feistel over the packed state: ``out[j] = x[j] + x[j-1]^2``, j >= 1.

        Square, rotate the square one element RIGHT (element j - 1 lands on
        element j in both rows), and mask out element 0, where element
        2t - 1 wraps around.
        """
        ops.squares += 1
        ops.relins += 1
        ops.keyswitches += 1
        ops.plain_muls += 1
        ops.adds += 1
        sq = scheme.tensor_square(state, self.rlk)
        shifted = self._rotate_stack(scheme, sq, scheme.params.n // 2 - self._width, ops)
        masked = scheme.tensor_mul_plain_rows(shifted, self._masks[scheme.level])
        return scheme.tensor_add(state, masked)

    def _cube(self, scheme: Bfv, state: CiphertextTensor, ops: BfvOpCounts) -> CiphertextTensor:
        ops.squares += 1
        ops.muls += 1
        ops.relins += 2
        ops.keyswitches += 2
        return scheme.tensor_mul(scheme.tensor_square(state, self.rlk), state, self.rlk)

    # -- public API -----------------------------------------------------------------

    def transcipher_blocks(
        self,
        ciphertext_blocks: Sequence[Sequence[int]],
        nonce: int,
        counters: Sequence[int],
    ) -> BatchedTranscipherResult:
        """Transcipher full blocks, one circuit evaluation per packed group.

        ``ciphertext_blocks[b]`` must hold t elements encrypted under
        ``(nonce, counters[b])``. Blocks ``g * packed_capacity`` onward land
        in result ciphertext g (see :class:`BatchedTranscipherResult`).

        Schedule: the call starts one ``hhe-prepare`` thread, prepares
        group 0's layer 0 itself and evaluates. The helper prepares group
        0's layers 1..r, then each later group's layers 0..r (queued once
        the caller holds group 0's layer 0), in evaluation order, at most one
        group (r + 1 layers) ahead of the evaluator. A group's layers that
        miss the prepared-plaintext caches are built from its schedule (the
        block materials and every layer's matrices), derived once in one
        batched pass by the first of them and held until the group's last
        layer is prepared. Each layer's evaluation starts when its prepared
        plaintexts arrive, so the critical path is layer 0's preparation
        plus the evaluation; results and op counts are those of preparing
        every layer in line. A preparation error is raised here, where the
        evaluator needs that layer; on any exit the call stops and joins its
        helper. The constructor admitted the planned result; a result whose
        modeled headroom still ends below the decryption floor is refused
        with :class:`NoiseBudgetExhausted` (:func:`require_headroom`).
        """
        from repro.obs import get_registry, record_headroom
        from repro.obs.noise import HEADROOM_ATTR, NOISE_ATTR

        params = self.params
        obs = get_registry()
        obs.counter(
            "hhe.transcipher.blocks", variant=params.name, omega=params.modulus_bits
        ).inc(len(counters))
        tracer = get_tracer()
        with tracer.span(
            "hhe.transcipher",
            metric="hhe.transcipher.seconds",
            variant=params.name,
            omega=params.modulus_bits,
            blocks=len(counters),
            levels=",".join(map(str, self.levels)),
        ) as span:
            result = self._transcipher_blocks(
                ciphertext_blocks, nonce, counters, tracer, span.context
            )
            # Ledger exit point: the worst modeled bound across the result
            # ciphertexts becomes the span's noise attributes and the
            # fhe.noise.headroom_bits gauge — no secret key involved.
            model = self.scheme.noise_model
            worst = model.merge(ct.noise for ct in result.ciphertexts)
            if worst is not None:
                headroom = model.headroom_bits(worst)
                span.set_attribute(NOISE_ATTR, round(worst.bits, 3))
                span.set_attribute(HEADROOM_ATTR, round(headroom, 3))
                record_headroom(headroom, engine="bsgs", tenant=self.tenant)
                require_headroom(model, worst)
            return result

    def _transcipher_blocks(
        self,
        ciphertext_blocks: Sequence[Sequence[int]],
        nonce: int,
        counters: Sequence[int],
        tracer: Tracer,
        parent: SpanContext,
    ) -> BatchedTranscipherResult:
        params = self.params
        t = params.t
        if len(ciphertext_blocks) != len(counters):
            raise ParameterError("one counter per block required")
        if not counters:
            raise ParameterError("empty batch: transciphering needs at least one block")
        if len(counters) > self.encoder.n:
            raise ParameterError(f"at most {self.encoder.n} blocks per batch")
        for block in ciphertext_blocks:
            if len(block) != t:
                raise ParameterError("batched transciphering requires full t-element blocks")
        # The evaluator reduces elements mod p unchecked.
        elements = field_elements(ciphertext_blocks, params.p).astype(np.int64)
        nonce = as_u64(nonce, "nonce")
        block_counters = tuple(as_u64(c, "counter") for c in counters)

        capacity = self.packed_capacity
        starts = range(0, len(block_counters), capacity)
        groups = [block_counters[start : start + capacity] for start in starts]
        r = params.rounds
        # Each group's schedule (materials and every layer's matrices) is
        # derived at most once, by the first of its layers that misses the
        # prepared-plaintext caches, held for its other layers and dropped
        # once all r + 1 are prepared. No layer re-reads the engine's LRU,
        # which a group larger than it would evict, and a group whose
        # layers all hit derives nothing. Both threads may ask for group
        # 0's, so the lock makes the second wait for the first's.
        lock = threading.Lock()
        held: Dict[int, tuple] = {}
        unprepared = [r + 1] * len(groups)

        def schedule(group: int):
            with lock:
                if group not in held:
                    held[group] = self._schedule(nonce, groups[group])
                return held[group]

        def prepare(group: int, layer: int):
            try:
                return self._prepare_layer(
                    nonce, groups[group], partial(schedule, group), group, layer, tracer, parent
                )
            finally:
                with lock:
                    unprepared[group] -= 1
                    if not unprepared[group]:
                        held.pop(group, None)

        ops = BfvOpCounts()
        # Every (group, layer) after group 0's layer 0, in evaluation order.
        later = iter([(g, layer) for g in range(len(groups)) for layer in range(r + 1)][1:])
        ahead: Deque[Future] = deque()
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hhe-prepare")

        def submit(count: int) -> None:
            for g, layer in itertools.islice(later, count):
                ahead.append(pool.submit(prepare, g, layer))

        def prepared(group: int, layer: int):
            if group == layer == 0:
                return first
            future = ahead.popleft()
            submit(1)
            if future.done():
                return future.result()
            with tracer.span(
                "hhe.prepare_wait", metric="hhe.prepare_wait.seconds", group=group, layer=layer
            ):
                return future.result()

        try:
            submit(r)  # group 0's layers 1..r, beside the caller's layer 0
            first = prepare(0, 0)
            submit(1)  # at most one group ahead of the evaluator
            out = [
                self._evaluate(elements[start : start + capacity], ops, partial(prepared, g))
                for g, start in enumerate(starts)
            ]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return BatchedTranscipherResult(
            ciphertexts=out,
            counters=list(block_counters),
            ops=ops,
            group_size=capacity,
        )

    def _evaluate(
        self, elements: np.ndarray, ops: BfvOpCounts, prepared: Callable[[int], tuple]
    ) -> Ciphertext:
        """The packed circuit for one group: ONE ciphertext end to end.

        Layer 0 on the pre-rotated key, then per round the S-box and the
        next Mix-folded affine layer, each affine layer on the prepared
        ``(diags, rc)`` that ``prepared(layer)`` returns; the result holds
        ``c - KS`` in both halves of every filled block's slots and 0
        everywhere else.
        """
        params = self.params
        stages = self._stages
        state = self._key_affine(*prepared(0), ops)
        for i in range(params.rounds):
            sbox, affine = stages[2 * i + 1], stages[2 * i + 2]
            state = self._at_level(stages[2 * i], state, sbox)
            last = i == params.rounds - 1
            state = self._cube(sbox, state, ops) if last else self._feistel(sbox, state, ops)
            state = self._at_level(sbox, state, affine)
            state = self._bsgs_affine(affine, state, *prepared(i + 1), i + 1, ops)
        # Back to the full chain: the exact product by P = q / q_k.
        state = self._at_level(stages[-1], state, self.scheme)

        # m = c - KS: one negate + one packed plain add.
        message = np.concatenate([elements, elements], axis=1)
        prepared_message = self.scheme.prepare_add_rows(
            self._encode(_place(message, self._width)[None])
        )
        ops.plain_adds += 1
        (result,) = self.scheme.unstack_ciphertexts(
            self.scheme.tensor_add_plain_rows(self.scheme.tensor_neg(state), prepared_message)
        )
        return result


def decrypt_batched_result(
    scheme: Bfv, sk, encoder: BatchEncoder, result: BatchedTranscipherResult
) -> List[List[int]]:
    """Client side: decode every group's ciphertext into its blocks' messages.

    Block k of group g is read from hypercube row ``k // w`` of ciphertext
    g (``w = group_size / 2``), its element j from that row's logical slot
    ``j * w + k % w``.
    """
    _check_encoder(scheme, encoder)
    capacity = result.group_size
    t = (encoder.n // 2) // capacity
    w = capacity // 2
    blocks: List[List[int]] = []
    for ct in result.ciphertexts:
        slots = np.asarray([encoder.decode(scheme.decrypt_poly(sk, ct))])
        grid = slots_to_rows(encoder.n, slots)[0].reshape(2, 2 * t, w)  # [row, j, k % w]
        count = min(capacity, len(result.counters) - len(blocks))
        blocks.extend(grid[k // w, :t, k % w].tolist() for k in range(count))
    return blocks
