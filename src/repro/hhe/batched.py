"""Batched (SIMD) transciphering: many PASTA blocks per circuit evaluation.

The scalar server (:mod:`repro.hhe.protocol`) evaluates one PASTA
decryption circuit per block. Real HHE deployments — including the PASTA
paper's own server-side evaluation — amortize: with BFV batching, slot
``b`` of every ciphertext carries block ``b``'s state, so ONE evaluation
of the t-element circuit transciphers ``B`` blocks at once. The circuit
structure is identical; only the affine constants differ per slot, turning
scalar plaintext multiplications into plaintext-*polynomial*
multiplications of encoded constant vectors.

Cost intuition (reported by the ``hhe_cost`` experiment): the homomorphic
operation count per evaluation is unchanged, so the per-block cost drops
by ~B at the price of polynomially heavier plain multiplications.

Two evaluation engines share that circuit:

* ``engine="scalar"`` — one :class:`~repro.fhe.bfv.Ciphertext` object per
  state element, one scheme call per homomorphic op (the original path,
  retained bit-exact).
* ``engine="tensor"`` — the t state ciphertexts live in one
  :class:`~repro.fhe.engine.CiphertextTensor` ``(t, 2, L, N)`` NTT-domain
  residue ndarray; each affine layer side is a single prepared-matrix
  einsum per residue prime plus a broadcast round-constant add, and the
  S-boxes run batched square/multiply kernels. Requires the RNS engine.
  Both engines produce bit-identical ciphertext residues and identical op
  counts.
* ``engine="bsgs"`` — the *packed* layout: ONE ciphertext per state side
  carries the whole t-element state across slot groups (state j of block b
  sits at logical slot ``j * group + b``), and each affine layer side runs
  by the baby-step/giant-step diagonal method — t diagonal plaintext
  products plus O(sqrt t) Galois rotations instead of t^2 plain muls.
  Requires the RNS engine *and* a :class:`~repro.fhe.bfv.GaloisKey`
  covering :meth:`BatchedHheServer.required_rotation_steps`;
  ``engine="auto"`` (the default) picks it whenever both are available,
  falling back to ``tensor`` (RNS without rotation keys) then ``scalar``.
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

#: Default prepared-plaintext budget, in slot rows (one encoded plaintext
#: polynomial = one row; a tensor matrix costs t*t rows, a row stack t).
#: Applied per server when no shared :class:`CacheBudget` is given — the
#: streaming service passes ONE budget to every tenant's server so the
#: aggregate stays bounded however many tenants are live.
DEFAULT_PREPARED_ROWS = 4096


@dataclass
class BatchedTranscipherResult:
    """t ciphertexts whose slots hold the B transciphered blocks.

    Under the packed BSGS engine there is a single ciphertext instead and
    ``group_size`` is set: message element j of block b sits at logical
    slot ``j * group_size + b`` (generator slot order, row 0).
    """

    ciphertexts: List[Ciphertext]
    counters: List[int]
    ops: BfvOpCounts
    group_size: Optional[int] = None


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
        engine: str = "auto",
        galois_keys: Optional[GaloisKey] = None,
        tenant: str = "default",
        prepared_budget: Optional[CacheBudget] = None,
        hoisted: bool = True,
    ):
        if scheme.params.p != params.p:
            raise ParameterError("BFV plaintext modulus must equal the PASTA prime")
        if len(encrypted_key) != params.key_size:
            raise ParameterError(f"expected {params.key_size} encrypted key elements")
        self.params = params
        self.scheme = scheme
        self.rlk = rlk
        self.encoder = encoder
        self.encrypted_key = list(encrypted_key)
        self.galois_keys = galois_keys
        scheme_engine = getattr(scheme.engine, "name", "bigint")
        packable = scheme.params.n // 2 >= params.t and (scheme.params.n // 2) % params.t == 0
        if engine == "auto":
            if scheme_engine == "rns" and galois_keys is not None and packable:
                engine = "bsgs"
            else:
                engine = "tensor" if scheme_engine == "rns" else "scalar"
        if engine not in ("scalar", "tensor", "bsgs"):
            raise ParameterError(f"unknown evaluation engine {engine!r}")
        if engine in ("tensor", "bsgs") and scheme_engine != "rns":
            raise ParameterError(
                f"engine={engine!r} requires the RNS evaluation engine, "
                f"scheme uses {scheme_engine!r}"
            )
        if engine == "bsgs":
            if not packable:
                raise ParameterError(
                    f"engine='bsgs' needs t={params.t} to divide the slot-row "
                    f"width N/2={scheme.params.n // 2}"
                )
            if galois_keys is None:
                raise ParameterError(
                    "engine='bsgs' requires Galois rotation keys "
                    "(Bfv.rotation_keygen over required_rotation_steps)"
                )
            required = self.required_rotation_steps(params, scheme.params.n)
            missing = sorted(
                {
                    rotation_element(scheme.params.n, step)
                    for step in required
                }
                - set(galois_keys.keys)
                - {1}
            )
            if missing:
                raise ParameterError(
                    f"Galois key is missing elements {missing} for rotation "
                    f"steps {required} (have {sorted(galois_keys.keys)})"
                )
        #: Which circuit evaluator ``transcipher_blocks`` dispatches to
        #: ("scalar" | "tensor" | "bsgs"). Named ``eval_engine`` because
        #: ``engine`` is the keystream engine below.
        self.eval_engine = engine
        #: Share one digit decomposition across the BSGS baby rotations
        #: (Halevi-Shoup hoisting). ``False`` pins the per-rotation
        #: keyswitch path — the perf baseline and the parity comparator.
        self.hoisted = bool(hoisted)
        #: Shared batched keystream engine: materials and matrices for the
        #: public (nonce, counter) schedule come from its LRU, so the
        #: schedule builders of one frame derive each block once.
        self.engine = get_engine(params)

        # Prepared-plaintext caches keyed by the public schedule. The affine
        # constants depend only on (nonce, counters, layer, side, row[, col]),
        # so re-serving a schedule skips both the slot encode and — under the
        # RNS engine — the forward NTT of every matrix/round-constant
        # plaintext (the handle caches its eval form after first use).
        #
        # These used to be per-server ``lru_cache`` closures (maxsize
        # 8192/4096 each): individually bounded, unbounded in aggregate once
        # every tenant gets its own server. They are now :class:`BudgetedLru`
        # instances costed in slot rows against ONE shared
        # :class:`CacheBudget` — per-server by default, process-global when
        # the streaming service passes its budget in — with eviction
        # pressure applied to whichever tenant holds the most rows, so a hot
        # tenant cannot push a cold one below its fair share.
        self.tenant = tenant
        t = params.t
        self.prepared_budget = prepared_budget or CacheBudget(DEFAULT_PREPARED_ROWS)
        self._caches: Dict[str, BudgetedLru] = {}

        def _cache(kind: str, rows: float) -> BudgetedLru:
            lru = BudgetedLru(
                owner=tenant,
                budget=self.prepared_budget,
                cost_of=lambda key, value, rows=rows: rows,
            )
            self._caches[kind] = lru
            return lru

        matrix_cache = _cache("matrix", 1.0)
        rc_cache = _cache("rc", 1.0)
        matrix_tensor_cache = _cache("matrix_tensor", float(t * t))
        rc_tensor_cache = _cache("rc_tensor", float(t))

        def _prepared_matrix(
            nonce: int, counters: Tuple[int, ...], layer: int, side: str, j: int, k: int
        ):
            def build():
                per_slot = [
                    int(self.engine.matrix(nonce, c, layer, side)[j, k]) for c in counters
                ]
                return self.scheme.prepare_mul_plain(self.encoder.encode(per_slot))

            return matrix_cache.get_or_create((nonce, counters, layer, side, j, k), build)

        def _prepared_rc(nonce: int, counters: Tuple[int, ...], layer: int, side: str, j: int):
            def build():
                per_slot = [
                    int(
                        getattr(
                            self.engine.materials(nonce, [c])[0].layers[layer], f"rc_{side}"
                        )[j]
                    )
                    for c in counters
                ]
                return self.scheme.prepare_add_plain(self.encoder.encode(per_slot))

            return rc_cache.get_or_create((nonce, counters, layer, side, j), build)

        self._prepared_matrix = _prepared_matrix
        self._prepared_rc = _prepared_rc

        # Tensor-path prepared plaintexts: one (t, t, L, N) NTT-domain
        # residue tensor per (nonce, counters, layer, side) — the whole
        # affine matrix encodes with ONE batched slot-NTT (t^2 rows) and
        # forward-transforms with one batched residue NTT, vs t^2 scalar
        # handles. Entries cost t^2 budget rows apiece, so the shared budget
        # keeps them correspondingly scarcer than scalar handles.
        def _prepared_matrix_tensor(
            nonce: int, counters: Tuple[int, ...], layer: int, side: str
        ):
            def build():
                mats = np.moveaxis(
                    self.engine.matrices(nonce, counters, layer, side), 0, -1
                )  # (t, t, B): slot b carries block b's matrix entry
                encoded = self.encoder.encode_rows(mats.reshape(t * t, len(counters)))
                return self.scheme.prepare_matrix(encoded.reshape(t, t, self.encoder.n))

            return matrix_tensor_cache.get_or_create((nonce, counters, layer, side), build)

        def _prepared_rc_tensor(
            nonce: int, counters: Tuple[int, ...], layer: int, side: str
        ):
            def build():
                materials = self.engine.materials(nonce, list(counters))
                rows = np.stack(
                    [np.asarray(getattr(m.layers[layer], f"rc_{side}")) for m in materials],
                    axis=-1,
                )  # (t, B)
                return self.scheme.prepare_add_rows(self.encoder.encode_rows(rows))

            return rc_tensor_cache.get_or_create((nonce, counters, layer, side), build)

        self._prepared_matrix_tensor = _prepared_matrix_tensor
        self._prepared_rc_tensor = _prepared_rc_tensor

        if engine == "bsgs":
            self._init_bsgs()

    def prepared_cache_info(self) -> Dict[str, Dict[str, float]]:
        """Per-cache hit/miss/size/cost plus the shared budget snapshot."""
        info = {kind: lru.cache_info() for kind, lru in self._caches.items()}
        info["budget"] = dict(self.prepared_budget.snapshot())
        return info

    # -- packed BSGS layout --------------------------------------------------------

    @staticmethod
    def required_rotation_steps(params: PastaParams, ring_n: int) -> List[int]:
        """Left-rotation steps the packed BSGS evaluator key-switches by.

        Hoisted baby steps rotate the *source* directly by every multiple
        ``k * group`` (k = 1..bs-1) of the state-group size — the unhoisted
        chain only ever needed the single ``group`` step; Horner giant
        steps advance ``bs`` groups, and the Feistel S-box shifts the
        squared state one group *right* (``N/2 - group`` left). Steps whose
        factor collapses to 1 for the parameter set are omitted, so bs = 2
        parameter sets keep the exact pre-hoisting key schedule (and its
        keygen draw order).
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

    def _init_bsgs(self) -> None:
        t = self.params.t
        half = self.scheme.params.n // 2
        #: Slots per state group == packed block capacity.
        self._group_size = half // t
        self._bsgs = bsgs_split(t)

        # Pack the 2t slot-replicated key ciphertexts into [L, R]: one
        # (2, 2t, L, N) mask tensor contracted against the (2t, 2, L, N) key
        # stack — a single einsum, once per server instance (key-setup cost,
        # excluded from the per-evaluation op counts like key packing in
        # encrypt_key_batched itself).
        B = self._group_size
        masks = np.zeros((2, 2 * t, half), dtype=np.int64)
        for j in range(t):
            masks[0, j, j * B : (j + 1) * B] = 1
            masks[1, t + j, j * B : (j + 1) * B] = 1
        encoded = self._encode_logical_rows(masks.reshape(4 * t, half))
        prepared = self.scheme.prepare_matrix(
            encoded.reshape(2, 2 * t, self.scheme.params.n)
        )
        key_stack = self.scheme.stack_ciphertexts(self.encrypted_key)
        self._packed_key = self.scheme.tensor_affine(key_stack, prepared)

        # Feistel masks: "not the first state group" (both sides) and "the
        # first state group" (cross term from L's last group into R's first).
        not_first = np.ones((2, half), dtype=np.int64)
        not_first[:, :B] = 0
        first = np.zeros((1, half), dtype=np.int64)
        first[0, :B] = 1
        self._mask_not_first = self.scheme.prepare_mul_rows(
            self._encode_logical_rows(not_first)
        )
        self._mask_first = self.scheme.prepare_mul_rows(self._encode_logical_rows(first))

        # Prepared diagonal stacks per (schedule, layer, side): the G*bs
        # generalized diagonals of the blocked affine matrix, pre-rotated
        # for the giant-step Horner form, as ONE (G, bs, L, N) prepared
        # matmul tensor. The budgeted cache plays the role the per-(j, k)
        # handle cache plays for the slot engines.
        bs_, giants_ = self._bsgs
        diags_cache = BudgetedLru(
            owner=self.tenant,
            budget=self.prepared_budget,
            cost_of=lambda key, value, rows=float(bs_ * giants_): rows,
        )
        self._caches["diags_bsgs"] = diags_cache
        rc_bsgs_cache = BudgetedLru(
            owner=self.tenant,
            budget=self.prepared_budget,
            cost_of=lambda key, value: 2.0,
        )
        self._caches["rc_bsgs"] = rc_bsgs_cache

        def _prepared_diags_bsgs(
            nonce: int, counters: Tuple[int, ...], layer: int, side: str
        ):
            def build():
                bs, giants = self._bsgs
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

        def _prepared_rc_bsgs(nonce: int, counters: Tuple[int, ...], layer: int):
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

            return rc_bsgs_cache.get_or_create((nonce, counters, layer), build)

        self._prepared_diags_bsgs = _prepared_diags_bsgs
        self._prepared_rc_bsgs = _prepared_rc_bsgs

    # -- slot-wise circuit pieces -------------------------------------------------

    def _mul_const_vector(self, ct: Ciphertext, constants: Sequence[int]) -> Ciphertext:
        self._ops.plain_muls += 1
        return self.scheme.mul_plain_poly(ct, self.encoder.encode(list(constants)))

    def _add_const_vector(self, ct: Ciphertext, constants: Sequence[int]) -> Ciphertext:
        self._ops.plain_adds += 1
        return self.scheme.add_plain_poly(ct, self.encoder.encode(list(constants)))

    def _add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._ops.adds += 1
        return self.scheme.add(a, b)

    def _square(self, ct: Ciphertext) -> Ciphertext:
        self._ops.squares += 1
        self._ops.relins += 1
        return self.scheme.square(ct, self.rlk)

    def _mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._ops.muls += 1
        self._ops.relins += 1
        return self.scheme.multiply(a, b, self.rlk)

    def _affine_span(self, engine: str, layer: int, side: str, n_blocks: int):
        """Span for one affine layer side, nested under ``hhe.transcipher``.

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
            engine=engine,
            layer=layer,
            side=side,
            **modeled_matmul_attributes(self.params, n_blocks),
        )

    def _affine(self, state, nonce: int, counters: Tuple[int, ...], layer: int, side: str):
        """Slot-wise affine over the public schedule, via prepared handles."""
        t = len(state)
        with self._affine_span("scalar", layer, side, len(counters)):
            out = []
            for j in range(t):
                acc = None
                for k in range(t):
                    handle = self._prepared_matrix(nonce, counters, layer, side, j, k)
                    self._ops.plain_muls += 1
                    term = self.scheme.mul_plain_poly(state[k], handle)
                    acc = term if acc is None else self._add(acc, term)
                self._ops.plain_adds += 1
                rc = self._prepared_rc(nonce, counters, layer, side, j)
                out.append(self.scheme.add_plain_poly(acc, rc))
            return out

    def _mix(self, xl, xr):
        s = [self._add(a, b) for a, b in zip(xl, xr)]
        return [self._add(a, m) for a, m in zip(xl, s)], [self._add(b, m) for b, m in zip(xr, s)]

    def _feistel(self, state):
        out = [state[0]]
        for j in range(1, len(state)):
            out.append(self._add(state[j], self._square(state[j - 1])))
        return out

    def _cube(self, state):
        return [self._mul(self._square(x), x) for x in state]

    # -- tensor-path circuit pieces (same circuit, fused kernels) ------------------

    def _tensor_affine(
        self, state: CiphertextTensor, nonce: int, counters: Tuple[int, ...], layer: int, side: str
    ) -> CiphertextTensor:
        """Fused affine layer side: one einsum per residue prime + rc add."""
        t = self.params.t
        matrix = self._prepared_matrix_tensor(nonce, counters, layer, side)
        rc = self._prepared_rc_tensor(nonce, counters, layer, side)
        self._ops.plain_muls += t * t
        self._ops.adds += t * (t - 1)
        self._ops.plain_adds += t
        with self._affine_span("tensor", layer, side, len(counters)):
            return self.scheme.tensor_affine(state, matrix, rc)

    def _tensor_mix(self, xl: CiphertextTensor, xr: CiphertextTensor):
        self._ops.adds += 3 * self.params.t
        s = self.scheme.tensor_add(xl, xr)
        return self.scheme.tensor_add(xl, s), self.scheme.tensor_add(xr, s)

    def _tensor_feistel(self, full: CiphertextTensor) -> CiphertextTensor:
        n = full.slots
        self._ops.squares += n - 1
        self._ops.relins += n - 1
        self._ops.adds += n - 1
        squared = self.scheme.tensor_square(full[:-1], self.rlk)
        return CiphertextTensor.concat(
            [full[:1], self.scheme.tensor_add(full[1:], squared)]
        )

    def _tensor_cube(self, full: CiphertextTensor) -> CiphertextTensor:
        n = full.slots
        self._ops.squares += n
        self._ops.muls += n
        self._ops.relins += 2 * n
        return self.scheme.tensor_mul(self.scheme.tensor_square(full, self.rlk), full, self.rlk)

    # -- packed BSGS circuit pieces ------------------------------------------------

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
        rotations, plus one decomposition when hoisted and bs > 1. With
        ``hoisted=False`` the babies fall back to the rotation chain.
        """
        bs, giants = self._bsgs
        B = self._group_size
        eng = self.scheme.engine
        prep = {
            side: self._take_prepared_diags(nonce, counters, layer, side)
            for side in ("l", "r")
        }
        rc = self._prepared_rc_bsgs(nonce, counters, layer)
        self._ops.plain_muls += 2 * bs * giants
        self._ops.adds += 2 * (giants * bs - 1)
        self._ops.plain_adds += 2
        use_hoisted = self.hoisted and bs > 1
        with self._affine_span("bsgs", layer, "lr", 2 * len(counters)):
            babies = [state]
            if use_hoisted:
                digits = self._hoisted_decompose(state)
                for i in range(1, bs):
                    babies.append(self._rotate_hoisted(state, digits, i * B))
            else:
                for _ in range(bs - 1):
                    babies.append(self._rotate_stack(babies[-1], B))
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
                state.noise, bs, giants, round_constant=True, hoisted=use_hoisted
            )
            return out

    def _take_prepared_diags(self, nonce, counters, layer, side):
        return self.scheme._take_prepared_tensor(
            self._prepared_diags_bsgs(nonce, counters, layer, side), "matmul"
        )

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
        """Transcipher B full blocks with one circuit evaluation.

        ``ciphertext_blocks[b]`` must hold t elements encrypted under
        ``(nonce, counters[b])``. Slot b of output ciphertext j encrypts
        message element j of block b.
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
            engine=self.eval_engine,
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
                record_headroom(
                    headroom, engine=self.eval_engine, tenant=self.tenant
                )
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
        if len(counters) > self.encoder.n:
            raise ParameterError(f"at most {self.encoder.n} blocks per batch")
        for block in ciphertext_blocks:
            if len(block) != t:
                raise ParameterError("batched transciphering requires full t-element blocks")
        # The engines reduce elements mod p (or truncate them) unchecked.
        field_elements(ciphertext_blocks, params.p)

        # One batched derivation for every block's materials; matrices are
        # materialized through (and retained by) the engine's LRU cache, and
        # the prepared-plaintext LRUs key off the same public schedule.
        block_counters = tuple(int(c) for c in counters)
        self.engine.materials(nonce, list(block_counters))

        self._ops = BfvOpCounts()

        group_size = None
        if self.eval_engine == "bsgs" and len(block_counters) <= self._group_size:
            out = self._evaluate_bsgs(ciphertext_blocks, nonce, block_counters)
            group_size = self._group_size
        elif self.eval_engine in ("tensor", "bsgs"):
            # A batch beyond the packed capacity falls back to the slot
            # layout (capacity n instead of n / 2t) for this call only.
            out = self._evaluate_tensor(ciphertext_blocks, nonce, block_counters)
        else:
            out = self._evaluate_scalar(ciphertext_blocks, nonce, block_counters)
        return BatchedTranscipherResult(
            ciphertexts=out,
            counters=[int(c) for c in counters],
            ops=self._ops,
            group_size=group_size,
        )

    def _evaluate_scalar(
        self,
        ciphertext_blocks: Sequence[Sequence[int]],
        nonce: int,
        block_counters: Tuple[int, ...],
    ) -> List[Ciphertext]:
        params = self.params
        t = params.t
        xl = list(self.encrypted_key[:t])
        xr = list(self.encrypted_key[t:])
        for i in range(params.rounds):
            xl = self._affine(xl, nonce, block_counters, i, "l")
            xr = self._affine(xr, nonce, block_counters, i, "r")
            xl, xr = self._mix(xl, xr)
            full = xl + xr
            full = self._feistel(full) if i < params.rounds - 1 else self._cube(full)
            xl, xr = full[:t], full[t:]
        last = params.rounds
        xl = self._affine(xl, nonce, block_counters, last, "l")
        xr = self._affine(xr, nonce, block_counters, last, "r")
        xl, _ = self._mix(xl, xr)

        # m = c - KS, slot-wise: negate the keystream, add the per-block c_j.
        out: List[Ciphertext] = []
        for j in range(t):
            negated = self.scheme.neg(xl[j])
            per_slot_c = [int(block[j]) for block in ciphertext_blocks]
            out.append(self._add_const_vector(negated, per_slot_c))
        return out

    def _evaluate_tensor(
        self,
        ciphertext_blocks: Sequence[Sequence[int]],
        nonce: int,
        block_counters: Tuple[int, ...],
    ) -> List[Ciphertext]:
        """Same circuit on one (2t, 2, L, N) eval-domain residue tensor.

        Op counters are incremented with the per-slot totals of each fused
        kernel, so ``ops`` is identical to the scalar path's — the kernels
        are the amortization, not an op-count change.
        """
        params = self.params
        t = params.t
        state = self.scheme.stack_ciphertexts(self.encrypted_key)
        xl, xr = state[:t], state[t:]
        for i in range(params.rounds):
            xl = self._tensor_affine(xl, nonce, block_counters, i, "l")
            xr = self._tensor_affine(xr, nonce, block_counters, i, "r")
            xl, xr = self._tensor_mix(xl, xr)
            full = CiphertextTensor.concat([xl, xr])
            full = self._tensor_feistel(full) if i < params.rounds - 1 else self._tensor_cube(full)
            xl, xr = full[:t], full[t:]
        last = params.rounds
        xl = self._tensor_affine(xl, nonce, block_counters, last, "l")
        xr = self._tensor_affine(xr, nonce, block_counters, last, "r")
        xl, _ = self._tensor_mix(xl, xr)

        # m = c - KS: one batched negate + one prepared broadcast row add.
        negated = self.scheme.tensor_neg(xl)
        rows = np.asarray(
            [[int(c) for c in block] for block in ciphertext_blocks]
        ).T  # (t, B)
        self._ops.plain_adds += t
        prepared = self.scheme.prepare_add_rows(self.encoder.encode_rows(rows))
        return self.scheme.unstack_ciphertexts(
            self.scheme.tensor_add_plain_rows(negated, prepared)
        )

    def _evaluate_bsgs(
        self,
        ciphertext_blocks: Sequence[Sequence[int]],
        nonce: int,
        block_counters: Tuple[int, ...],
    ) -> List[Ciphertext]:
        """The packed circuit: ONE [L, R] ciphertext pair end to end.

        Same PASTA permutation, BSGS affine layers; the result is a single
        ciphertext whose slot groups hold the t message elements of every
        block (``group_size`` on the result describes the layout).
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
    """Client side: decode slot b of every ciphertext into block b's message.

    Packed (BSGS) results carry one ciphertext with ``group_size`` set:
    message element j of block b is read from logical slot
    ``j * group_size + b`` of the generator-ordered slot row.
    """
    n_blocks = len(result.counters)
    if result.group_size:
        B = result.group_size
        (ct,) = result.ciphertexts
        logical = slots_to_logical(encoder.n, encoder.decode(scheme.decrypt_poly(sk, ct)))
        t = (encoder.n // 2) // B
        return [[logical[j * B + b] for j in range(t)] for b in range(n_blocks)]
    per_element_slots = [
        encoder.decode(scheme.decrypt_poly(sk, ct))[:n_blocks] for ct in result.ciphertexts
    ]
    return [[per_element_slots[j][b] for j in range(len(per_element_slots))] for b in range(n_blocks)]
