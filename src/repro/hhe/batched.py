"""Batched (SIMD) transciphering: many PASTA blocks per circuit evaluation.

The scalar server (:mod:`repro.hhe.protocol`) evaluates one PASTA
decryption circuit per block. Real HHE deployments — including the PASTA
paper's own server-side evaluation — amortize: with BFV batching, one
evaluation of the t-element circuit transciphers many blocks at once. The
circuit structure is identical; only the affine constants differ per
block, turning scalar plaintext multiplications into plaintext-*polynomial*
multiplications of encoded constant vectors.

:class:`BatchedHheServer` evaluates the *packed* layout: ONE ciphertext
per state side carries the whole t-element state across slot groups
(state j of block b sits at logical slot ``j * group + b``), and each
affine layer side runs by the baby-step/giant-step diagonal method with
hoisted baby rotations (Halevi-Shoup, "Algorithms in HElib") — t diagonal
plaintext products plus O(sqrt t) Galois rotations instead of t^2 plain
muls. It requires the RNS engine and a :class:`~repro.fhe.bfv.GaloisKey`
covering :meth:`BatchedHheServer.required_rotation_steps`.

One evaluation covers the packed capacity ``(N/2) / t`` blocks at an
operation count that does not depend on how many of them are filled
(reported by the ``hhe_cost`` experiment); a larger batch runs as
consecutive packed groups, one result ciphertext per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.utils.budget import BudgetedLru, CacheBudget
from repro.fhe.batching import BatchEncoder
from repro.fhe.bfv import Bfv, Ciphertext, GaloisKey, PublicKey, RelinKey
from repro.fhe.engine import CiphertextTensor
from repro.fhe.galois import (
    replicate_rows_to_slots,
    rotation_element,
    slots_to_logical,
)
from repro.hhe.backend import BfvOpCounts
from repro.pasta.batch import get_engine
from repro.pasta.cipher import field_elements
from repro.pasta.decrypt_circuit import bsgs_split
from repro.pasta.params import PastaParams
from repro.pasta.xof import as_u64

#: Default prepared-plaintext budget, in slot rows (one encoded plaintext
#: polynomial = one row; a diagonal stack costs t rows, a round-constant
#: pair 2). Applied per server when no shared :class:`CacheBudget` is
#: given — the streaming service passes ONE budget to every tenant's server
#: so the aggregate stays bounded however many tenants are live.
DEFAULT_PREPARED_ROWS = 4096


@dataclass
class BatchedTranscipherResult:
    """One packed ciphertext per group of ``group_size`` transciphered blocks.

    Ciphertext g holds blocks ``g * group_size`` onward: message element j
    of the group's b-th block sits at logical slot ``j * group_size + b``
    (generator slot order, row 0). ``ops`` sums every group's evaluation.
    """

    ciphertexts: List[Ciphertext]
    counters: List[int]
    ops: BfvOpCounts
    group_size: int


def encrypt_key_batched(
    scheme: Bfv, pk: PublicKey, encoder: BatchEncoder, key: Sequence[int]
) -> List[Ciphertext]:
    """Client side: encrypt each key element replicated across all slots."""
    return [
        scheme.encrypt_poly(pk, encoder.constant(int(k)))
        for k in key
    ]


class BatchedHheServer:
    """Evaluate PASTA decryption over slot-packed BFV ciphertexts."""

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
        if len(encrypted_key) != params.key_size:
            raise ParameterError(f"expected {params.key_size} encrypted key elements")
        scheme_engine = getattr(scheme.engine, "name", "bigint")
        if scheme_engine != "rns":
            raise ParameterError(
                f"the packed evaluator requires the RNS evaluation engine, "
                f"scheme uses {scheme_engine!r}"
            )
        half = scheme.params.n // 2
        if half < params.t or half % params.t:
            raise ParameterError(
                f"packing needs t={params.t} to divide the slot-row width N/2={half}"
            )
        if galois_keys is None:
            raise ParameterError(
                "the packed evaluator requires Galois rotation keys "
                "(Bfv.rotation_keygen over required_rotation_steps)"
            )
        required = self.required_rotation_steps(params, scheme.params.n)
        missing = sorted(
            {rotation_element(scheme.params.n, step) for step in required}
            - set(galois_keys.keys)
            - {1}
        )
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

        # Prepared-plaintext caches keyed by the public schedule: the affine
        # diagonals and round constants depend only on (nonce, counters,
        # layer[, side]), so re-serving a schedule skips the slot encode and
        # the forward NTT of every prepared plaintext. They are
        # :class:`BudgetedLru` instances costed in slot rows against ONE
        # shared :class:`CacheBudget` — per-server by default,
        # process-global when the streaming service passes its budget in —
        # with eviction pressure applied to whichever tenant holds the most
        # rows, so a hot tenant cannot push a cold one below its fair share.
        self.tenant = tenant
        self.prepared_budget = prepared_budget or CacheBudget(DEFAULT_PREPARED_ROWS)
        t = params.t
        #: Slots per state group == packed block capacity.
        self._group_size = B = half // t
        self._bsgs = bs, giants = bsgs_split(t)

        # Pack the 2t slot-replicated key ciphertexts into [L, R]: one
        # (2, 2t, L, N) mask tensor contracted against the (2t, 2, L, N) key
        # stack — a single einsum, once per server instance (key-setup cost,
        # excluded from the per-evaluation op counts like key packing in
        # encrypt_key_batched itself).
        masks = np.zeros((2, 2 * t, half), dtype=np.int64)
        for j in range(t):
            masks[0, j, j * B : (j + 1) * B] = 1
            masks[1, t + j, j * B : (j + 1) * B] = 1
        encoded = self._encode_logical_rows(masks.reshape(4 * t, half))
        prepared = scheme.prepare_matrix(encoded.reshape(2, 2 * t, scheme.params.n))
        key_stack = scheme.stack_ciphertexts(list(encrypted_key))
        self._packed_key = scheme.tensor_affine(key_stack, prepared)

        # Feistel masks: "not the first state group" (both sides) and "the
        # first state group" (cross term from L's last group into R's first).
        not_first = np.ones((2, half), dtype=np.int64)
        not_first[:, :B] = 0
        first = np.zeros((1, half), dtype=np.int64)
        first[0, :B] = 1
        self._mask_not_first = scheme.prepare_mul_rows(self._encode_logical_rows(not_first))
        self._mask_first = scheme.prepare_mul_rows(self._encode_logical_rows(first))

        self._caches: Dict[str, BudgetedLru] = {
            kind: BudgetedLru(
                owner=tenant,
                budget=self.prepared_budget,
                cost_of=lambda key, value, rows=rows: rows,
            )
            for kind, rows in (("diags_bsgs", float(bs * giants)), ("rc_bsgs", 2.0))
        }
        diags_cache, rc_cache = self._caches["diags_bsgs"], self._caches["rc_bsgs"]

        # Prepared diagonal stacks per (schedule, layer, side): the G*bs
        # generalized diagonals of the blocked affine matrix, pre-rotated
        # for the giant-step Horner form, as ONE (G, bs, L, N) prepared
        # matmul tensor.
        def _prepared_diags(nonce: int, counters: Tuple[int, ...], layer: int, side: str):
            def build():
                n_blocks = len(counters)
                mats = self.engine.matrices(nonce, counters, layer, side)  # (n_blocks, t, t)
                rows = np.zeros((giants * bs, half), dtype=mats.dtype)
                j = np.arange(t)
                for d in range(min(giants * bs, t)):
                    ld = np.zeros((t, B), dtype=mats.dtype)
                    ld[:, :n_blocks] = mats[:, j, (j + d) % t].T  # ld[j, b] = M_b[j, j+d]
                    rows[d] = np.roll(ld.reshape(half), (d // bs) * bs * B)
                encoded = self._encode_logical_rows(rows)
                return self.scheme.prepare_matrix(
                    encoded.reshape(giants, bs, self.scheme.params.n)
                )

            return diags_cache.get_or_create((nonce, counters, layer, side), build)

        def _prepared_rc(nonce: int, counters: Tuple[int, ...], layer: int):
            def build():
                materials = self.engine.materials(nonce, list(counters))
                n_blocks = len(counters)
                vals = {
                    side: np.stack(
                        [np.asarray(getattr(m.layers[layer], f"rc_{side}")) for m in materials],
                        axis=-1,
                    )
                    for side in ("l", "r")
                }  # (t, n_blocks) each
                rows = np.zeros((2, half), dtype=vals["l"].dtype)
                for s_idx, side in enumerate(("l", "r")):
                    ld = np.zeros((t, B), dtype=vals[side].dtype)
                    ld[:, :n_blocks] = vals[side]
                    rows[s_idx] = ld.reshape(half)
                return self.scheme.prepare_add_rows(self._encode_logical_rows(rows))

            return rc_cache.get_or_create((nonce, counters, layer), build)

        self._prepared_diags = _prepared_diags
        self._prepared_rc = _prepared_rc

    def prepared_cache_info(self) -> Dict[str, Dict[str, float]]:
        """Per-cache hit/miss/size/cost plus the shared budget snapshot."""
        info = {kind: lru.cache_info() for kind, lru in self._caches.items()}
        info["budget"] = dict(self.prepared_budget.snapshot())
        return info

    @staticmethod
    def required_rotation_steps(params: PastaParams, ring_n: int) -> List[int]:
        """Left-rotation steps the packed evaluator key-switches by.

        Hoisted baby steps rotate the *source* directly by every multiple
        ``k * group`` (k = 1..bs-1) of the state-group size; Horner giant
        steps advance ``bs`` groups, and the Feistel S-box shifts the
        squared state one group *right* (``N/2 - group`` left). Steps whose
        factor collapses to 1 for the parameter set are omitted.
        """
        half = ring_n // 2
        group = half // params.t
        bs, giants = bsgs_split(params.t)
        steps: List[int] = [k * group for k in range(1, bs)]
        if giants > 1:
            steps.append(bs * group)
        if params.rounds > 1:
            steps.append(half - group)
        return sorted(set(steps))

    @property
    def packed_capacity(self) -> int:
        """Blocks per packed ciphertext (= slots per state group)."""
        return self._group_size

    def _encode_logical_rows(self, rows: np.ndarray) -> np.ndarray:
        """(R, N/2) logical rows -> (R, N) encoded plaintext polynomials."""
        slots = replicate_rows_to_slots(self.scheme.params.n, rows)
        return self.encoder.encode_rows(slots)

    # -- circuit pieces ---------------------------------------------------------------

    def _affine_span(self, layer: int, side: str, n_blocks: int):
        """Span for one affine layer, nested under ``hhe.transcipher``.

        Carries the MatMul stage's modeled cycles (``6 + t + log2 t`` per
        block): :func:`repro.obs.cycles.attribute` then reports the kernel's
        measured share of the evaluation against the stage's modeled share
        of the block budget.
        """
        from repro.obs import get_tracer
        from repro.obs.cycles import modeled_matmul_attributes

        return get_tracer().span(
            "hhe.affine",
            metric="hhe.affine.seconds",
            engine="bsgs",
            layer=layer,
            side=side,
            **modeled_matmul_attributes(self.params, n_blocks),
        )

    def _rotate_stack(self, state: CiphertextTensor, steps: int) -> CiphertextTensor:
        """Rotate every stacked ciphertext left by ``steps`` (keyswitch each)."""
        from repro.obs import get_tracer
        from repro.obs.cycles import modeled_rotation_attributes

        self._ops.rotations += state.slots
        with get_tracer().span(
            "hhe.rotate",
            metric="hhe.rotate.seconds",
            engine="bsgs",
            steps=steps,
            **modeled_rotation_attributes(self.params, state.slots),
        ):
            return self.scheme.tensor_rotate(state, steps, self.galois_keys)

    def _hoisted_decompose(self, state: CiphertextTensor):
        """Digit-decompose the c1 halves once for a batch of rotations."""
        from repro.obs import get_tracer
        from repro.obs.cycles import modeled_decompose_attributes

        self._ops.decompositions += state.slots
        with get_tracer().span(
            "hhe.hoist_decompose",
            metric="hhe.hoist_decompose.seconds",
            engine="bsgs_hoisted",
            **modeled_decompose_attributes(self.params, state.slots),
        ):
            return self.scheme.hoisted_decompose(state)

    def _rotate_hoisted(
        self, state: CiphertextTensor, digits: np.ndarray, steps: int
    ) -> CiphertextTensor:
        """Rotate via a shared digit stack (apply half of a hoisted rotation)."""
        from repro.obs import get_tracer
        from repro.obs.cycles import modeled_hoisted_apply_attributes

        self._ops.rotations += state.slots
        with get_tracer().span(
            "hhe.rotate",
            metric="hhe.rotate.seconds",
            engine="bsgs_hoisted",
            steps=steps,
            **modeled_hoisted_apply_attributes(self.params, state.slots),
        ):
            return self.scheme.tensor_rotate_hoisted(
                state, digits, steps, self.galois_keys
            )

    def _bsgs_affine_pair(
        self, state: CiphertextTensor, nonce: int, counters: Tuple[int, ...], layer: int
    ) -> CiphertextTensor:
        """Both affine layer sides on the packed [L, R] pair, BSGS-style.

        With the state-major packing the blocked t*B x t*B matrix has t
        generalized diagonals, all at multiples of the group size B:

            out = sum_d diag(d*B) . rot(d*B, v)

        Split d = g*bs + i and hoist the giant rotations out of the sum
        (Horner over g), pre-rotating the diagonals by ``g*bs*B`` right at
        preparation time:

            out = sum_g rot(g*bs*B, sum_i prep_diag[g, i] . baby_i)

        The bs babies share ONE digit decomposition of the source pair
        (Halevi-Shoup hoisting; each baby rotates the original state by
        ``i*B`` through the shared digit stack), the inner sums are ONE
        prepared-matrix einsum per side, and each Horner step is one
        regular rotation of the fresh [L, R] accumulator pair. Total per
        side: bs*G (= t) plain muls, bs*G - 1 adds, (bs-1)+(G-1)
        rotations, plus one decomposition when bs > 1.
        """
        bs, giants = self._bsgs
        B = self._group_size
        eng = self.scheme.engine
        prep = {
            side: self.scheme._take_prepared_tensor(
                self._prepared_diags(nonce, counters, layer, side), "matmul"
            )
            for side in ("l", "r")
        }
        rc = self._prepared_rc(nonce, counters, layer)
        self._ops.plain_muls += 2 * bs * giants
        self._ops.adds += 2 * (giants * bs - 1)
        self._ops.plain_adds += 2
        with self._affine_span(layer, "lr", 2 * len(counters)):
            babies = [state]
            if bs > 1:
                digits = self._hoisted_decompose(state)
                babies += [self._rotate_hoisted(state, digits, i * B) for i in range(1, bs)]
            giant_sums = [
                eng.ctx.matmul_mod(
                    prep[side], np.stack([b.data[s_idx] for b in babies])
                )  # (G, bs, L, N) x (bs, 2, L, N) -> (G, 2, L, N)
                for s_idx, side in enumerate(("l", "r"))
            ]
            acc = CiphertextTensor(
                eng.ctx, np.stack([giant_sums[0][giants - 1], giant_sums[1][giants - 1]])
            )
            for g in range(giants - 2, -1, -1):
                rotated = self._rotate_stack(acc, bs * B)
                pair = CiphertextTensor(
                    eng.ctx, np.stack([giant_sums[0][g], giant_sums[1][g]])
                )
                acc = self.scheme.tensor_add(pair, rotated)
            out = self.scheme.tensor_add_plain_rows(acc, rc)
            # The raw matmul_mod contractions above bypass the Bfv wrappers,
            # so the ledger gets the layer's closed-form bound in one step.
            out.noise = self.scheme.noise_model.bsgs_affine(
                state.noise, bs, giants, round_constant=True
            )
            return out

    def _packed_mix(self, state: CiphertextTensor) -> CiphertextTensor:
        self._ops.adds += 3
        s = self.scheme.tensor_add(state[0], state[1])
        return CiphertextTensor.concat(
            [self.scheme.tensor_add(state[0], s), self.scheme.tensor_add(state[1], s)]
        )

    def _packed_feistel(self, state: CiphertextTensor) -> CiphertextTensor:
        """Feistel over the packed 2t-element state [L, R].

        ``out[j] = x[j] + x[j-1]^2`` becomes: square both packed sides,
        rotate the squares one state group RIGHT, then mask — groups 1..t-1
        add their left neighbor's square in place, and R's group 0 picks up
        L's last group through the cross mask.
        """
        half = self.scheme.params.n // 2
        B = self._group_size
        self._ops.squares += 2
        self._ops.relins += 2
        self._ops.plain_muls += 3
        self._ops.adds += 3
        sq = self.scheme.tensor_square(state, self.rlk)
        sq_rot = self._rotate_stack(sq, half - B)  # right by one group
        masked = self.scheme.tensor_mul_plain_rows(sq_rot, self._mask_not_first)
        out = self.scheme.tensor_add(state, masked)
        cross = self.scheme.tensor_mul_plain_rows(sq_rot[0], self._mask_first)
        return CiphertextTensor.concat(
            [out[0], self.scheme.tensor_add(out[1], cross)]
        )

    def _packed_cube(self, state: CiphertextTensor) -> CiphertextTensor:
        self._ops.squares += 2
        self._ops.muls += 2
        self._ops.relins += 4
        return self.scheme.tensor_mul(
            self.scheme.tensor_square(state, self.rlk), state, self.rlk
        )

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
        """
        from repro.obs import get_registry, get_tracer, record_headroom
        from repro.obs.cycles import modeled_cycle_attributes
        from repro.obs.noise import HEADROOM_ATTR, NOISE_ATTR

        params = self.params
        obs = get_registry()
        obs.counter(
            "hhe.transcipher.blocks", variant=params.name, omega=params.modulus_bits
        ).inc(len(counters))
        # The modeled cycles are the accelerator's budget for deriving the
        # same keystream material — the hardware-comparable slice of the
        # homomorphic evaluation this stage performs.
        with get_tracer().span(
            "hhe.transcipher",
            metric="hhe.transcipher.seconds",
            variant=params.name,
            omega=params.modulus_bits,
            engine="bsgs",
            blocks=len(counters),
            **modeled_cycle_attributes(params, len(counters)),
        ) as span:
            result = self._transcipher_blocks(ciphertext_blocks, nonce, counters)
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
            return result

    def _transcipher_blocks(
        self,
        ciphertext_blocks: Sequence[Sequence[int]],
        nonce: int,
        counters: Sequence[int],
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
        field_elements(ciphertext_blocks, params.p)
        nonce = as_u64(nonce, "nonce")
        block_counters = tuple(as_u64(c, "counter") for c in counters)

        # One batched derivation for every block's materials; matrices are
        # materialized through (and retained by) the engine's LRU cache, and
        # the prepared-plaintext LRUs key off the same public schedule.
        self.engine.materials(nonce, list(block_counters))

        self._ops = BfvOpCounts()
        capacity = self._group_size
        out: List[Ciphertext] = []
        for start in range(0, len(block_counters), capacity):
            group = slice(start, start + capacity)
            out.extend(self._evaluate(ciphertext_blocks[group], nonce, block_counters[group]))
        return BatchedTranscipherResult(
            ciphertexts=out,
            counters=list(block_counters),
            ops=self._ops,
            group_size=capacity,
        )

    def _evaluate(
        self,
        ciphertext_blocks: Sequence[Sequence[int]],
        nonce: int,
        block_counters: Tuple[int, ...],
    ) -> List[Ciphertext]:
        """The packed circuit for one group: ONE [L, R] ciphertext pair end to end.

        Same PASTA permutation, BSGS affine layers; the result is a single
        ciphertext whose slot groups hold the t message elements of every
        block of the group.
        """
        params = self.params
        t = params.t
        B = self._group_size
        half = self.scheme.params.n // 2
        state = self._packed_key
        for i in range(params.rounds):
            state = self._bsgs_affine_pair(state, nonce, block_counters, i)
            state = self._packed_mix(state)
            state = (
                self._packed_feistel(state)
                if i < params.rounds - 1
                else self._packed_cube(state)
            )
        state = self._bsgs_affine_pair(state, nonce, block_counters, params.rounds)
        state = self._packed_mix(state)

        # m = c - KS on the left side: one negate + one packed plain add.
        negated = self.scheme.tensor_neg(state[0])
        rows = np.zeros((1, half), dtype=np.int64)
        grouped = rows.reshape(t, B)
        for b, block in enumerate(ciphertext_blocks):
            for j, c in enumerate(block):
                grouped[j, b] = int(c) % params.p
        self._ops.plain_adds += 1
        prepared = self.scheme.prepare_add_rows(self._encode_logical_rows(rows))
        return self.scheme.unstack_ciphertexts(
            self.scheme.tensor_add_plain_rows(negated, prepared)
        )


def decrypt_batched_result(
    scheme: Bfv, sk, encoder: BatchEncoder, result: BatchedTranscipherResult
) -> List[List[int]]:
    """Client side: decode every group's ciphertext into its blocks' messages.

    Message element j of the b-th block of group g is read from logical
    slot ``j * group_size + b`` of ciphertext g's generator-ordered slot row.
    """
    B = result.group_size
    t = (encoder.n // 2) // B
    blocks: List[List[int]] = []
    for ct in result.ciphertexts:
        logical = slots_to_logical(encoder.n, encoder.decode(scheme.decrypt_poly(sk, ct)))
        count = min(B, len(result.counters) - len(blocks))
        blocks.extend([logical[j * B + b] for j in range(t)] for b in range(count))
    return blocks
