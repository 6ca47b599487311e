"""Closed-form BFV noise ledger: per-op growth rules and headroom.

The server evaluates the PASTA decryption circuit without the secret
key, so it cannot *measure* ciphertext noise (``Bfv.noise_budget_bits``
needs ``sk``). This module gives it the next best thing hardware noise
managers (BASALISC's levels tracker, Medha's budget registers) build
into the datapath: a sound closed-form **upper bound** on the invariant
noise ``v = c0 + c1*s - Delta*m (mod q)``, updated at every homomorphic
op and carried on the ciphertext itself as a :class:`NoiseEstimate`.

All bounds live in the log2 domain (``bits`` = log2 upper bound on
``|v|_inf``) and compose with the log-sum-exp of the underlying linear
rules, so a 380-bit modulus never materializes as a float. Headroom is
``log2(q) - 1 - bits`` — the same normalization as the measured
``noise_budget_bits``, which makes soundness a one-line invariant::

    modeled bits >= log2|v|  =>  modeled headroom <= measured headroom

The model is deliberately worst-case (every triangle inequality tight,
ternary secrets at full Hamming weight): modeled headroom below
:attr:`NoiseModel.decryption_floor_bits` (about ``log2(p)``, where the
bound reaches ``Delta/2``) means decryption *may* fail, never that it
must. The measured-vs-modeled
gap is surfaced by :func:`divergence_report`, the noise analogue of
``obs/cycles.py``'s cycle attribution.

Growth rules (N = ring degree, p = plain modulus, q = ciphertext
modulus, eta = error bound of the centered-binomial sampler):

========================  =====================================================
op                        bound on the new ``|v|_inf``
========================  =====================================================
fresh encrypt             ``eta * (2N + 1)``
add / sub                 ``V1 + V2 + p``      (plaintext sum may wrap mod p)
neg                       ``V + p``            (phase shifts by ``Delta*p``)
add_plain                 ``V + p``            (plaintext-wrap carry, < p)
mul_plain (scalar)        ``V*p/2 + p^2/2``    (centered scalar, |c| <= p/2)
mul_plain_poly (rows)     ``(N*p/2) * (V + p)``
affine (t-term row sum)   ``t * (N*p/2)(V + p) + p``
multiply (tensor)         ``N(N+4)p(V1+V2) + 2N(N+4)p^2 + pN*V1*V2/q + N^2``
relin / keyswitch         ``V + D*N*T*eta``    (D digits of T = 2^base bits)
rotate (Galois + switch)  ``V + D*N*T*eta``    (automorphism preserves |v|)
hoisted_rotation          ``V + D*N*T*eta``    (one keyswitch term per shared
                          decomposition: every rotation hoisted from the same
                          digit stack switches the *source*, not a chain)
bsgs_affine               babies -> diagonal sums -> Horner rotations, composed
mod_switch (q -> q_k)     ``V*q_k/q + (1+N)/2 + p``  (round(c/P), P = q/q_k)
mod_raise (q_k -> q)      ``P*(V + p)``        (exact multiply by P)
========================  =====================================================

The rules read the level they act at: each chain prefix ``q_k`` (a level
view, :meth:`repro.fhe.bfv.Bfv.at_level`) has its own model, whose
``log q`` and keyswitch term (``D_k`` digits) are those of ``q_k``. The
switch divides the noise by ``P`` and adds the rounding of both parts
(``1/2 + |s|_1/2`` for a ternary secret) and the plaintext term ``p``
that ``Delta/P - Delta_k`` leaves; the raise multiplies by ``P`` and pays
``P*p`` for ``P*Delta_k - Delta``. Past the first S-box the noise is far
above both additive terms, so a switch costs almost no headroom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "NOISE_ATTR",
    "HEADROOM_ATTR",
    "NoiseEstimate",
    "NoiseModel",
    "NoiseCheckpoint",
    "NoiseReport",
    "divergence_report",
    "lse",
]

#: Span-attribute keys carrying the modeled bound alongside timing.
NOISE_ATTR = "noise_bits"
HEADROOM_ATTR = "noise_headroom_bits"


def lse(*bits: float) -> float:
    """log2 of a sum of powers of two: ``lse(a, b) = log2(2^a + 2^b)``.

    The composition operator for every additive growth rule; numerically
    stable for arbitrarily large exponents (the 300+-bit moduli in play
    would overflow float64 if exponentiated directly).
    """
    vals = [b for b in bits if b != -math.inf]
    if not vals:
        return -math.inf
    top = max(vals)
    return top + math.log2(sum(2.0 ** (b - top) for b in vals))


@dataclass(frozen=True)
class NoiseEstimate:
    """log2 upper bound on the invariant-noise magnitude of a ciphertext.

    ``bits`` bounds ``log2 |v|_inf`` for ``v = phase - Delta*m``; ``ops``
    counts how many growth-rule applications produced it (depth of the
    ledger, useful when reading a divergence report).
    """

    bits: float
    ops: int = 1

    def grown(self, bits: float, extra_ops: int = 1) -> "NoiseEstimate":
        return NoiseEstimate(bits=bits, ops=self.ops + extra_ops)


class NoiseModel:
    """Growth rules specialized to one ``BfvParams`` instance.

    Every rule is ``None``-propagating: a ciphertext whose provenance the
    ledger never saw (hand-built parts, deserialized blobs) carries
    ``noise=None`` and stays unannotated rather than acquiring a bogus
    bound.
    """

    def __init__(self, params) -> None:
        self.params = params
        self._levels: dict = {}
        self.n = int(params.n)
        self.log_n = math.log2(self.n)
        self.log_p = math.log2(int(params.p))
        self.log_q = math.log2(int(params.q))
        self.log_eta = math.log2(int(params.eta))
        # Digit-decomposition keyswitch additive term: D digits, each a
        # degree-N product of a < 2^base digit with an eta-bounded key error.
        self.ks_bits = (
            math.log2(int(params.relin_parts))
            + self.log_n
            + float(params.relin_base_bits)
            + self.log_eta
        )
        # Fresh encryption: v = e1 + e2*s - e*u with ternary s, u.
        self._fresh_bits = self.log_eta + math.log2(2 * self.n + 1)

    def at_level(self, level: int) -> "NoiseModel":
        """The model of the chain's first ``level`` primes (its own ``log q_k``
        and ``D_k``-digit keyswitch term), cached."""
        if level == self.params.levels:
            return self
        model = self._levels.get(level)
        if model is None:
            model = self._levels[level] = NoiseModel(self.params.at_level(level))
        return model

    # -- budget normalization ----------------------------------------------------

    @property
    def budget_bits(self) -> float:
        """Total budget: ``log2(q) - 1``, matching ``noise_budget_bits``."""
        return self.log_q - 1.0

    @property
    def decryption_floor_bits(self) -> float:
        """The modeled headroom above which the bound guarantees decryption.

        ``round(p * phase / q)`` returns ``m`` while ``|v| < q/(2p) - p``
        (``Delta*p = q - (q mod p)`` leaves an offset below ``p``). In this
        normalization that is a headroom above ``log2(q) - 1 -
        log2(q/(2p) - p)``, about ``log2(p)``: between 0 and this floor the
        bound no longer rules out a wrong result.
        """
        q, p = int(self.params.q), int(self.params.p)
        return self.budget_bits - math.log2(max(q // (2 * p) - p, 1))

    def headroom_bits(self, estimate: Optional[NoiseEstimate]) -> Optional[float]:
        """Modeled headroom left before decryption may fail (can go < 0)."""
        if estimate is None:
            return None
        return self.budget_bits - max(estimate.bits, 0.0)

    def noise_fraction(self, estimate: Optional[NoiseEstimate]) -> Optional[float]:
        """Fraction of the budget consumed (< 1 iff headroom is positive)."""
        if estimate is None:
            return None
        return max(estimate.bits, 0.0) / self.budget_bits

    # -- growth rules ------------------------------------------------------------

    def fresh(self) -> NoiseEstimate:
        return NoiseEstimate(self._fresh_bits, ops=1)

    def add(
        self, a: Optional[NoiseEstimate], b: Optional[NoiseEstimate]
    ) -> Optional[NoiseEstimate]:
        if a is None or b is None:
            return None
        # The plaintext sum may wrap mod p, shifting the phase by Delta*p
        # = q - (q mod p): the invariant noise picks up a term bounded by p
        # on top of V1 + V2.
        return NoiseEstimate(lse(a.bits, b.bits, self.log_p), ops=a.ops + b.ops + 1)

    def add_plain(self, a: Optional[NoiseEstimate]) -> Optional[NoiseEstimate]:
        if a is None:
            return None
        return a.grown(lse(a.bits, self.log_p))

    def neg(self, a: Optional[NoiseEstimate]) -> Optional[NoiseEstimate]:
        """Negation shifts the phase by ``Delta*p = q - (q mod p)``, so the
        invariant noise picks up a correction term bounded by ``p`` — the
        same envelope as :meth:`add_plain`, not a free op."""
        return self.add_plain(a)

    def mul_plain(self, a: Optional[NoiseEstimate]) -> Optional[NoiseEstimate]:
        """Centered scalar multiplier: ``|c| <= p/2``."""
        if a is None:
            return None
        return a.grown(lse(a.bits + self.log_p - 1.0, 2.0 * self.log_p - 1.0))

    def mul_plain_poly(self, a: Optional[NoiseEstimate]) -> Optional[NoiseEstimate]:
        """Degree-N centered plaintext polynomial: ``(Np/2)(V + p)``."""
        if a is None:
            return None
        return a.grown(self._mul_plain_poly_bits(a.bits))

    def _mul_plain_poly_bits(self, bits: float) -> float:
        return self.log_n + self.log_p - 1.0 + lse(bits, self.log_p)

    def affine(self, a: Optional[NoiseEstimate], terms: int) -> Optional[NoiseEstimate]:
        """A ``terms``-wide diagonal/row sum of plain-muls (the round
        constant is a separate :meth:`add_plain`)."""
        if a is None:
            return None
        bits = math.log2(max(terms, 1)) + self._mul_plain_poly_bits(a.bits)
        return a.grown(bits, extra_ops=max(terms, 1))

    def multiply_raw(
        self, a: Optional[NoiseEstimate], b: Optional[NoiseEstimate]
    ) -> Optional[NoiseEstimate]:
        """Three-part tensor product, before relinearization.

        Bound on the scaled product noise: the cross terms contribute
        ``N(N+4)p(V1+V2)``, the q-overflow polynomial of the phase product
        ``2N(N+4)p^2``, the rounded ``p*v1*v2/q`` term, and the three
        per-part rounding errors at most ``N^2``.
        """
        if a is None or b is None:
            return None
        log_nn4p = math.log2(self.n * (self.n + 4)) + self.log_p
        bits = lse(
            log_nn4p + lse(a.bits, b.bits),
            1.0 + log_nn4p + self.log_p,
            self.log_p + self.log_n + a.bits + b.bits - self.log_q,
            2.0 * self.log_n,
        )
        return NoiseEstimate(bits, ops=a.ops + b.ops + 1)

    def keyswitch(self, a: Optional[NoiseEstimate]) -> Optional[NoiseEstimate]:
        if a is None:
            return None
        return a.grown(lse(a.bits, self.ks_bits))

    def multiply(
        self, a: Optional[NoiseEstimate], b: Optional[NoiseEstimate]
    ) -> Optional[NoiseEstimate]:
        return self.keyswitch(self.multiply_raw(a, b))

    def rotate(self, a: Optional[NoiseEstimate]) -> Optional[NoiseEstimate]:
        """Galois automorphism (norm-preserving) + key switch."""
        return self.keyswitch(a)

    def hoisted_rotation(self, a: Optional[NoiseEstimate]) -> Optional[NoiseEstimate]:
        """Rotation through a shared hoisted decomposition of the source.

        Every rotation applied from one hoisted digit stack keyswitches the
        *source* ciphertext directly: ``tau_g`` keeps each digit below the
        base-T magnitude bound, so the output carries exactly one
        keyswitch-noise term over the source — however many rotations share
        the decomposition — instead of the chain accumulation of repeated
        :meth:`rotate` calls.
        """
        return self.keyswitch(a)

    def bsgs_affine(
        self, a: Optional[NoiseEstimate], bs: int, giants: int
    ) -> Optional[NoiseEstimate]:
        """Baby-step/giant-step diagonal sum: the packed affine layer.

        Every baby rotates the source through one shared hoisted
        decomposition, so the babies carry a single key-switch error; every
        giant sums ``bs`` diagonal plain-muls of the worst baby; the Horner
        recombination adds ``giants - 1`` more rotations of partial sums
        (each acts on a fresh accumulator, so none is hoisted). The round
        constant is a separate :meth:`add_plain`.
        """
        if a is None:
            return None
        baby_bits = lse(a.bits, self.ks_bits) if bs > 1 else a.bits
        bits = math.log2(max(giants * bs, 1)) + self._mul_plain_poly_bits(baby_bits)
        if giants > 1:
            bits = lse(bits, self.ks_bits + math.log2(giants - 1))
        return a.grown(bits, extra_ops=giants * bs)

    def mod_switch(
        self, a: Optional[NoiseEstimate], dst: "NoiseModel"
    ) -> Optional[NoiseEstimate]:
        """Drop to ``dst``'s shorter chain: ``V q_k / q + (1 + N)/2 + p``."""
        if a is None:
            return None
        drop = self.log_q - dst.log_q
        rounding = math.log2((1 + self.n) / 2)
        return a.grown(lse(a.bits - drop, rounding, self.log_p))

    def mod_raise(
        self, a: Optional[NoiseEstimate], dst: "NoiseModel"
    ) -> Optional[NoiseEstimate]:
        """Raise to ``dst``'s longer chain by ``P = q / q_k``: ``P (V + p)``."""
        if a is None:
            return None
        return a.grown(dst.log_q - self.log_q + lse(a.bits, self.log_p))

    def merge(
        self, estimates: Iterable[Optional[NoiseEstimate]]
    ) -> Optional[NoiseEstimate]:
        """Worst-slot bound for a stack of independent ciphertexts."""
        worst: Optional[NoiseEstimate] = None
        for est in estimates:
            if est is None:
                return None
            if worst is None or est.bits > worst.bits:
                worst = est
        return worst


# -- measured-vs-modeled divergence (the cycles.py analogue) ---------------------


@dataclass(frozen=True)
class NoiseCheckpoint:
    """One labeled ciphertext's modeled bound against its measured noise."""

    label: str
    modeled_bits: float
    measured_bits: float
    modeled_headroom: float
    measured_headroom: float
    ops: int

    @property
    def slack_bits(self) -> float:
        """Bits of pessimism: >= 0 iff the model stayed a sound bound."""
        return self.measured_headroom - self.modeled_headroom

    @property
    def sound(self) -> bool:
        return self.slack_bits >= -1e-9


@dataclass(frozen=True)
class NoiseReport:
    """Soundness check of the ledger against ``noise_budget_bits``."""

    rows: Tuple[NoiseCheckpoint, ...]
    budget_bits: float

    @property
    def sound(self) -> bool:
        return all(row.sound for row in self.rows)

    def flagged(self) -> List[NoiseCheckpoint]:
        """Checkpoints where the model was *optimistic* — always a bug."""
        return [row for row in self.rows if not row.sound]

    def to_dict(self) -> dict:
        return {
            "budget_bits": self.budget_bits,
            "sound": self.sound,
            "rows": [
                {
                    "label": r.label,
                    "modeled_bits": r.modeled_bits,
                    "measured_bits": r.measured_bits,
                    "modeled_headroom": r.modeled_headroom,
                    "measured_headroom": r.measured_headroom,
                    "slack_bits": r.slack_bits,
                    "ops": r.ops,
                    "sound": r.sound,
                }
                for r in self.rows
            ],
        }

    def render(self) -> str:
        header = (
            f"{'checkpoint':<28} {'modeled':>9} {'measured':>9} "
            f"{'headroom':>9} {'meas.hdrm':>9} {'slack':>8}  verdict"
        )
        lines = [
            f"noise divergence (budget {self.budget_bits:.1f} bits)",
            header,
            "-" * len(header),
        ]
        for r in self.rows:
            verdict = "ok" if r.sound else "UNSOUND (model optimistic)"
            lines.append(
                f"{r.label:<28} {r.modeled_bits:>9.1f} {r.measured_bits:>9.1f} "
                f"{r.modeled_headroom:>9.1f} {r.measured_headroom:>9.1f} "
                f"{r.slack_bits:>8.1f}  {verdict}"
            )
        return "\n".join(lines)


def divergence_report(scheme, sk, labeled: Sequence[Tuple[str, object]]) -> NoiseReport:
    """Compare the ledger against measured noise for labeled ciphertexts.

    ``labeled`` holds ``(label, Ciphertext | CiphertextTensor)`` pairs; the
    harness side holds ``sk`` so the *measured* column uses the exact
    ``noise_budget_bits``. Tensors are unstacked and scored per slot
    against the tensor's shared (worst-slot) modeled bound.
    """
    model = scheme.noise_model
    rows: List[NoiseCheckpoint] = []
    for label, ct in labeled:
        cts = scheme.unstack_ciphertexts(ct) if hasattr(ct, "data") else [ct]
        estimate = getattr(ct, "noise", None)
        if estimate is None:
            continue
        measured_headroom = min(scheme.noise_budget_bits(sk, c) for c in cts)
        modeled_headroom = model.headroom_bits(estimate)
        rows.append(
            NoiseCheckpoint(
                label=label,
                modeled_bits=estimate.bits,
                measured_bits=model.budget_bits - measured_headroom,
                modeled_headroom=modeled_headroom,
                measured_headroom=measured_headroom,
                ops=estimate.ops,
            )
        )
    return NoiseReport(rows=tuple(rows), budget_bits=model.budget_bits)
