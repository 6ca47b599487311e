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
  2t generalized diagonals, all at multiples of w. The last layer keeps
  only the L rows, so the result carries ``c - KS`` and zeros.
* The client uploads the key pre-rotated (:func:`encrypt_key_batched`), so
  layer 0 is a rotation-free diagonal sum (:meth:`Bfv.tensor_affine`).
* Layers 1..r run the baby-step/giant-step diagonal method with hoisted
  baby rotations (Halevi-Shoup, "Algorithms in HElib") — 2t diagonal
  plaintext products plus O(sqrt t) Galois rotations.
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

The prepared plaintexts of every layer depend only on the public
(nonce, counters), so each call prepares them beside the evaluation, as
the paper's schedule generates round i+1's matrices while round i's
MatMul runs: the calling thread prepares group 0's layer 0 and evaluates,
while one ``hhe-prepare`` thread prepares every later (group, layer), at
most one group of layers ahead of the evaluator.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NoiseBudgetExhausted, ParameterError
from repro.utils.budget import BudgetedLru, CacheBudget
from repro.fhe.batching import BatchEncoder
from repro.fhe.bfv import Bfv, Ciphertext, GaloisKey, PublicKey, RelinKey
from repro.fhe.engine import CiphertextTensor
from repro.fhe.galois import rotation_element, rows_to_slots, slots_to_rows
from repro.obs.trace import SpanContext, Tracer, get_tracer
from repro.pasta.batch import get_engine
from repro.pasta.cipher import field_elements
from repro.pasta.decrypt_circuit import bsgs_split
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


@dataclass
class BatchedTranscipherResult:
    """One packed ciphertext per group of ``group_size`` transciphered blocks.

    Ciphertext g holds blocks ``g * group_size`` onward. With
    ``w = group_size / 2``, the group's k-th block sits in hypercube row
    ``k // w``, its message element j at that row's logical slot
    ``j * w + k % w`` (:func:`repro.fhe.galois.slots_to_rows` order). Every
    other slot — the R half of each row and the slots of unfilled blocks —
    decrypts to 0. ``ops`` sums every group's evaluation.
    """

    ciphertexts: List[Ciphertext]
    counters: List[int]
    ops: BfvOpCounts
    group_size: int


def require_headroom(headroom: Optional[float]) -> None:
    """Refuse a result whose modeled noise headroom is below 0 bits.

    The server holds no secret key, so the noise ledger's bound is its only
    evidence that a result still decrypts; past it the result may be
    garbage, and :class:`NoiseBudgetExhausted` is raised instead of
    returning it. ``None`` (a ciphertext the ledger never saw) passes.
    """
    if headroom is not None and headroom < 0:
        raise NoiseBudgetExhausted(f"modeled headroom {headroom:.1f} bits")


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


def circuit_noise(params: PastaParams, scheme: Bfv, levels: Sequence[int], key_noise):
    """The ledger's closed forms along a level plan: the result's estimate.

    Stage 0 is layer 0 (a 2t-term diagonal sum on the key upload), stage
    ``2i + 1`` round i's S-box (Feistel, or the cube in the last round)
    and stage ``2i + 2`` layer ``i + 1`` (BSGS); a drop between stages is
    a modulus switch, and the last stage's level is raised back to the
    full chain before the negation and the message add. These are the
    growth rules the :class:`~repro.fhe.bfv.Bfv` wrappers apply while
    :class:`BatchedHheServer` evaluates, so the evaluated result carries
    this estimate.
    """
    bs, giants = bsgs_split(2 * params.t)
    full = scheme.noise_model
    estimate = full.affine(key_noise, 2 * params.t)
    for stage in range(1, len(levels)):
        model = full.at_level(levels[stage])
        if levels[stage] < levels[stage - 1]:
            estimate = full.at_level(levels[stage - 1]).mod_switch(estimate, model)
        if stage % 2 == 0:
            estimate = model.bsgs_affine(estimate, bs, giants)
        elif stage < len(levels) - 2:
            square = model.rotate(model.multiply(estimate, estimate))
            estimate = model.add(estimate, model.mul_plain_poly(square))
        else:
            estimate = model.multiply(model.multiply(estimate, estimate), estimate)
    if levels[-1] < scheme.level:
        estimate = full.at_level(levels[-1]).mod_raise(estimate, full)
    return full.add_plain(full.neg(estimate))


def plan_levels(params: PastaParams, scheme: Bfv, key_noise) -> Tuple[int, ...]:
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
    decryption, only that slack does, so such a circuit plans no drop.
    Only the ledger's closed forms are read (no level view is built); an
    unknown key noise plans no drop.
    """
    full = scheme.level
    stages = 2 * params.rounds + 1
    if key_noise is None:
        return (full,) * stages
    model = scheme.noise_model

    def headroom(levels) -> float:
        return model.headroom_bits(circuit_noise(params, scheme, levels, key_noise))

    floor = max(
        headroom((full,) * stages) - LEVEL_SLACK_BITS, model.decryption_floor_bits
    )
    levels = [full, full]
    for stage in range(2, stages):
        best = levels[-1]
        for level in range(best - 1, 0, -1):
            if math.prod(scheme.params.rns_primes[:level]) <= params.p:
                break
            if headroom(levels + [level] * (stages - stage)) < floor:
                break
            best = level
        levels.append(best)
    return tuple(levels)


def _place(per_block: np.ndarray, w: int) -> np.ndarray:
    """``(n, ..., 2t)`` per-block state vectors -> ``(..., 2, N/2)`` hypercube rows.

    Block k goes to row ``k // w``, its element j to slot ``j * w + k % w``;
    the slots of the ``2w - n`` unfilled blocks stay 0.
    """
    grid = np.zeros((2 * w,) + per_block.shape[1:], dtype=per_block.dtype)
    grid[: per_block.shape[0]] = per_block
    grid = np.moveaxis(grid.reshape((2, w) + per_block.shape[1:]), (0, 1), (-3, -1))
    return grid.reshape(grid.shape[:-2] + (-1,))


def _mix(left: np.ndarray, right: np.ndarray, last: bool, axis: int) -> np.ndarray:
    """PASTA's Mix over the affine output rows: ``[2L + R, L + 2R]``.

    The last layer keeps only the L rows; its bottom rows are zero, so the
    evaluation never computes the R half of the final state.
    """
    top = 2 * left + right
    bottom = np.zeros_like(top) if last else left + 2 * right
    return np.concatenate([top, bottom], axis=axis)


def encrypt_key_batched(
    scheme: Bfv, pk: PublicKey, encoder: BatchEncoder, key: Sequence[int]
) -> List[Ciphertext]:
    """Client side: the 2t-element key, packed and pre-rotated 2t ways.

    Ciphertext d holds the key rotated left by d state elements: slot
    ``j * w + c`` of both hypercube rows holds ``key[(j + d) mod 2t]``, for
    every c < w. These are exactly the inputs of layer 0's diagonal sum, so
    the server evaluates that layer without a rotation. 2t fresh
    encryptions, like one per key element.
    """
    _check_encoder(scheme, encoder)
    values = np.asarray([int(k) for k in key], dtype=np.int64)
    width = len(values)
    w = _row_width(width, encoder.n)
    j = np.arange(width)
    rotated = values[(j[:, None] + j[None, :]) % width]  # [d, j] = key[(j + d) mod 2t]
    rows = np.broadcast_to(np.repeat(rotated, w, axis=1)[:, None], (width, 2, width * w))
    encoded = encoder.encode_rows(rows_to_slots(encoder.n, rows))
    return [scheme.encrypt_poly(pk, poly.tolist()) for poly in encoded]


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
        #: Shared batched keystream engine: materials and matrices for the
        #: public (nonce, counter) schedule come from its LRU, so the
        #: schedule builders of one frame derive each block once.
        self.engine = get_engine(params)
        self._bsgs = bsgs_split(width)

        # Stack every key now: the engine refuses material from another
        # ring or prime chain here, at setup, instead of mid-frame.
        self._key = scheme.stack_ciphertexts(list(encrypted_key))
        #: The RNS level of each circuit stage (:func:`plan_levels`), and
        #: the scheme view each stage evaluates on.
        self.levels = plan_levels(params, scheme, self._key.noise)
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
        (k = 1..bs-1), Horner giant steps advance ``bs * w``, and the
        Feistel S-box shifts the squared state one element *right*
        (``N/2 - w`` left), with ``(bs, G) = bsgs_split(2t)``. Steps whose
        factor collapses to 1 for the parameter set are omitted.
        """
        half = ring_n // 2
        w = half // (2 * params.t)
        bs, giants = bsgs_split(2 * params.t)
        steps: List[int] = [k * w for k in range(1, bs)]
        if giants > 1:
            steps.append(bs * w)
        if params.rounds > 1:
            steps.append(half - w)
        return sorted(set(steps))

    @property
    def packed_capacity(self) -> int:
        """Blocks per packed ciphertext: w per hypercube row, two rows."""
        return 2 * self._width

    def _encode(self, rows: np.ndarray) -> np.ndarray:
        """(R, 2, N/2) hypercube rows -> (R, N) encoded plaintext polynomials."""
        return self.encoder.encode_rows(rows_to_slots(self.scheme.params.n, rows))

    # -- public schedule -> prepared plaintexts ---------------------------------------

    def _prepared_diags(self, nonce: int, counters: Tuple[int, ...], layer: int):
        """The 2t generalized diagonals of layer ``layer``'s Mix∘Affine matrix,
        prepared on the layer's level.

        Diagonal d holds ``A_k[j, (j + d) mod 2t]`` at block k's slot of
        element j. Layer 0 consumes them as they are, as ONE (1, 2t) matmul
        tensor against the pre-rotated key; layers 1..r pre-rotate
        diagonal ``g*bs + i`` right by ``g*bs*w`` for the giant-step
        Horner form and prepare ONE (G, bs) tensor.
        """

        def build():
            width, w = 2 * self.params.t, self._width
            bs, giants = self._bsgs
            last = layer == self.params.rounds
            sides = [self.engine.matrices(nonce, counters, layer, side) for side in "lr"]
            zeros = np.zeros_like(sides[0])
            matrix = _mix(
                np.concatenate([sides[0], zeros], axis=-1),
                np.concatenate([zeros, sides[1]], axis=-1),
                last,
                axis=-2,
            ) % self.params.p  # (n, 2t, 2t)
            j = np.arange(width)
            diags = matrix[:, j[None, :], (j[None, :] + j[:, None]) % width]  # [k, d, j]
            rows = _place(diags, w)  # (2t, 2, N/2)
            if layer == 0:
                shape = (1, width)
            else:
                for g in range(1, giants):
                    rows[g * bs : (g + 1) * bs] = np.roll(
                        rows[g * bs : (g + 1) * bs], g * bs * w, axis=-1
                    )
                shape = (giants, bs)
            encoded = self._encode(rows)
            return self._stages[2 * layer].prepare_matrix(encoded.reshape(shape + (-1,)))

        return self._caches["diags_bsgs"].get_or_create((nonce, counters, layer), build)

    def _prepared_rc(self, nonce: int, counters: Tuple[int, ...], layer: int):
        """Layer ``layer``'s Mix-folded round constants as one prepared row
        (``Delta_k``-scaled on the layer's level)."""

        def build():
            materials = self.engine.materials(nonce, list(counters))
            rc = [
                np.stack([getattr(m.layers[layer], f"rc_{side}") for m in materials])
                for side in "lr"
            ]  # (n, t) each
            vectors = _mix(rc[0], rc[1], layer == self.params.rounds, axis=-1)
            rows = _place(vectors % self.params.p, self._width)
            return self._stages[2 * layer].prepare_add_rows(self._encode(rows[None]))

        return self._caches["rc_bsgs"].get_or_create((nonce, counters, layer), build)

    def _prepare_layer(
        self,
        nonce: int,
        counters: Tuple[int, ...],
        group: int,
        layer: int,
        tracer: Tracer,
        parent: SpanContext,
    ):
        """One (group, layer)'s prepared diagonals and round constants.

        Runs in an ``hhe.prepare`` span parented explicitly under the call's
        ``hhe.transcipher`` span, on whichever thread prepares the layer.
        """
        with tracer.span(
            "hhe.prepare", parent=parent, metric="hhe.prepare.seconds", group=group, layer=layer
        ):
            return (
                self._prepared_diags(nonce, counters, layer),
                self._prepared_rc(nonce, counters, layer),
            )

    # -- circuit pieces ---------------------------------------------------------------

    def _rotate_stack(
        self, scheme: Bfv, state: CiphertextTensor, steps: int, ops: BfvOpCounts
    ) -> CiphertextTensor:
        """Rotate every stacked ciphertext left by ``steps`` (keyswitch each)."""
        ops.rotations += state.slots
        with get_tracer().span("hhe.rotate", metric="hhe.rotate.seconds", steps=steps):
            return scheme.tensor_rotate(state, steps, self.galois_keys)

    def _hoisted_decompose(self, scheme: Bfv, state: CiphertextTensor, ops: BfvOpCounts):
        """Digit-decompose the c1 halves once for a batch of rotations."""
        ops.decompositions += state.slots
        with get_tracer().span("hhe.hoist_decompose", metric="hhe.hoist_decompose.seconds"):
            return scheme.hoisted_decompose(state)

    def _rotate_hoisted(
        self,
        scheme: Bfv,
        state: CiphertextTensor,
        digits: np.ndarray,
        steps: int,
        ops: BfvOpCounts,
    ) -> CiphertextTensor:
        """Rotate via a shared digit stack (apply half of a hoisted rotation)."""
        ops.rotations += state.slots
        with get_tracer().span("hhe.rotate", metric="hhe.rotate.seconds", steps=steps):
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

    def _key_affine(self, diags, rc, ops: BfvOpCounts) -> CiphertextTensor:
        """Layer 0 on the pre-rotated key: ``sum_d diag_d . key_d + rc``.

        Uploaded ciphertext d already holds the key rotated left by d
        elements, so the layer is one 2t-term diagonal sum with no rotation
        and no decomposition.
        """
        width = 2 * self.params.t
        ops.plain_muls += width
        ops.adds += width - 1
        ops.plain_adds += 1
        with get_tracer().span("hhe.affine", metric="hhe.affine.seconds", layer=0):
            return self.scheme.tensor_affine(self._key, diags, rc)

    def _bsgs_affine(
        self, scheme: Bfv, state: CiphertextTensor, diags, rc, layer: int, ops: BfvOpCounts
    ) -> CiphertextTensor:
        """One Mix-folded affine layer on the packed state, BSGS-style.

        The 2t generalized diagonals sit at multiples of w:

            out = sum_d diag(d) . rot(d*w, x)

        Split d = g*bs + i and hoist the giant rotations out of the sum
        (Horner over g), with the diagonals pre-rotated by ``g*bs*w``:

            out = sum_g rot(g*bs*w, sum_i prep_diag[g, i] . rot(i*w, x))

        The bs babies share ONE digit decomposition of the source
        (Halevi-Shoup hoisting), the inner sums are ONE prepared-matrix
        product, and each Horner step is one regular rotation of the
        accumulator: bs*G (= 2t) plain muls, bs*G - 1 adds and
        (bs-1) + (G-1) rotations, plus one decomposition when bs > 1.
        """
        bs, giants = self._bsgs
        w = self._width
        ctx = scheme.engine.ctx
        diags = scheme._take_prepared_tensor(diags, "matmul")
        ops.plain_muls += bs * giants
        ops.adds += bs * giants - 1
        ops.plain_adds += 1
        with get_tracer().span("hhe.affine", metric="hhe.affine.seconds", layer=layer):
            babies = [state]
            if bs > 1:
                digits = self._hoisted_decompose(scheme, state, ops)
                babies += [
                    self._rotate_hoisted(scheme, state, digits, i * w, ops) for i in range(1, bs)
                ]
            # (G, bs, L, N) x (bs, 2, L, N) -> (G, 2, L, N)
            sums = ctx.matmul_mod(diags, np.concatenate([b.data for b in babies]))
            acc = CiphertextTensor(ctx, sums[giants - 1 :])
            for g in range(giants - 2, -1, -1):
                rotated = self._rotate_stack(scheme, acc, bs * w, ops)
                acc = scheme.tensor_add(CiphertextTensor(ctx, sums[g : g + 1]), rotated)
            out = scheme.tensor_add_plain_rows(acc, rc)
            # The raw matmul_mod contraction above bypasses the Bfv wrappers,
            # so the ledger gets the layer's closed-form bound in one step.
            out.noise = scheme.noise_model.bsgs_affine(
                state.noise, bs, giants, round_constant=True
            )
            return out

    def _feistel(self, scheme: Bfv, state: CiphertextTensor, ops: BfvOpCounts) -> CiphertextTensor:
        """Feistel over the packed state: ``out[j] = x[j] + x[j-1]^2``, j >= 1.

        Square, rotate the square one element RIGHT (element j - 1 lands on
        element j in both rows), and mask out element 0, where element
        2t - 1 wraps around.
        """
        ops.squares += 1
        ops.relins += 1
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

        Schedule: after one batched derivation of group 0's materials, the
        call starts one ``hhe-prepare`` thread, prepares group 0's layer 0
        itself and evaluates. The helper prepares group 0's layers 1..r,
        then each later group's layers 0..r (deriving the group's materials
        at its layer 0, queued once the caller holds group 0's layer 0), in
        evaluation order, at most one group (r + 1 layers) ahead of the
        evaluator. Each layer's evaluation starts when its prepared
        plaintexts arrive, so the critical path is layer 0's preparation
        plus the evaluation; results and op counts are those of preparing
        every layer in line. A preparation error is raised here, where the
        evaluator needs that layer; on any exit the call stops and joins its
        helper. A result whose modeled noise headroom is below 0 bits is
        refused with :class:`NoiseBudgetExhausted` (:func:`require_headroom`).
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
                require_headroom(headroom)
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
        # One batched derivation of group 0's materials, which both threads
        # prepare from; the helper derives each later group when it reaches
        # its layer 0. Deriving every group here would evict the early ones
        # from the engine's LRU before they are read. Matrices are retained
        # by that LRU, and the prepared-plaintext LRUs key off the same
        # public schedule.
        self.engine.materials(nonce, list(groups[0]))
        r = params.rounds
        ops = BfvOpCounts()
        # Every (group, layer) after group 0's layer 0, in evaluation order.
        later = iter([(g, layer) for g in range(len(groups)) for layer in range(r + 1)][1:])
        ahead: Deque[Future] = deque()
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hhe-prepare")

        def submit(count: int) -> None:
            for g, layer in itertools.islice(later, count):
                ahead.append(
                    pool.submit(self._prepare_layer, nonce, groups[g], g, layer, tracer, parent)
                )

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
            first = self._prepare_layer(nonce, groups[0], 0, 0, tracer, parent)
            # Group 1's layer 0 waits for group 0's: deriving group 1 could
            # evict the materials the caller still reads from the LRU.
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
        ``c - KS`` in the L half of every filled block's slots and 0
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
        message = np.zeros((len(elements), 2 * params.t), dtype=np.int64)
        message[:, : params.t] = elements
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
