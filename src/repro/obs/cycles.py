"""Cycle attribution: measured span time vs the accelerator's cycle model.

The paper's performance claims are *cycle*-level — 21+5 cc overlapped XOF
batches, ``6 + t + log2 t`` MatMul latency, the Table 2 block budgets —
while the running system reports *seconds*. This bridge joins the two:

* The client's keystream call site
  (:meth:`~repro.pasta.batch.KeystreamEngine.keystream_pairs`) decorates
  its ``pasta.keystream`` span with ``modeled_cycles`` — the cycles the
  modeled accelerator (:func:`repro.hw.scheduler.simulate_block`, whose
  XOF timing comes from :mod:`repro.keccak.hw_model`) would spend
  producing the same keystream. The per-block figure is simulated once per
  parameter set and cached; annotating a span is then one multiply.
* :func:`attribute` folds a span buffer into per-stage rows: measured
  seconds and share vs modeled cycles and share, plus the implied clock
  (modeled cycles / measured second). A stage whose measured share
  diverges from its modeled share by more than ``tolerance`` (in share
  points) is flagged — the software reproduction is spending its time in
  different proportions than the hardware model predicts, which is either
  an implementation inefficiency or a model bug, and both are worth a
  look.

Only client stages carry the paper's cycle model. The HHE server's spans
(``hhe.transcipher``, ``hhe.affine``, ``hhe.rotate``, ...) report measured
time, with their homomorphic op counts in
:class:`~repro.hhe.batched.BfvOpCounts`; they appear in the report as
unmodeled stages. Shares are computed over the *modeled* stages only, so
container spans (``service.produce.batch`` wraps ``service.encrypt`` wraps
``pasta.keystream``) don't double-count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Type

from repro.keccak.hw_model import OverlappedKeccakCore
from repro.obs.trace import Span

__all__ = [
    "modeled_block_cycles",
    "modeled_cycle_attributes",
    "StageAttribution",
    "AttributionReport",
    "attribute",
]

#: Span attribute carrying the model's cycle figure for the span's work.
CYCLES_ATTR = "modeled_cycles"

#: Default share-divergence threshold (in share points, 0..1).
DEFAULT_TOLERANCE = 0.25

_block_cycles_cache: Dict[Tuple[str, str], int] = {}


def modeled_block_cycles(params, core_cls: Optional[Type] = None) -> int:
    """Accelerator cycles for one keystream block of ``params`` (cached).

    Runs the transaction-level schedule of :func:`repro.hw.scheduler.simulate_block`
    once per (parameter set, Keccak core) and memoizes ``total_cycles``.
    Rejection counts vary slightly with (nonce, counter); the fixed
    (0, 0) block is representative at the share level this bridge reports.
    """
    if core_cls is None:
        core_cls = OverlappedKeccakCore
    cache_key = (params.name, core_cls.name)
    cycles = _block_cycles_cache.get(cache_key)
    if cycles is None:
        from repro.hw.scheduler import simulate_block
        from repro.pasta.cipher import random_key

        key = random_key(params, b"obs-cycle-bridge")
        _, report = simulate_block(params, key, nonce=0, counter=0, core_cls=core_cls)
        cycles = report.total_cycles
        _block_cycles_cache[cache_key] = cycles
    return cycles


def modeled_cycle_attributes(params, n_blocks: int) -> Dict[str, object]:
    """Span attributes for ``n_blocks`` blocks of modeled keystream work."""
    per_block = modeled_block_cycles(params)
    return {
        CYCLES_ATTR: per_block * n_blocks,
        "modeled_cycles_per_block": per_block,
        "modeled_blocks": n_blocks,
    }


@dataclass(frozen=True)
class StageAttribution:
    """One stage (span name) of the measured-vs-modeled comparison."""

    stage: str
    spans: int
    measured_seconds: float
    modeled_cycles: Optional[int]  #: None => stage has no cycle model
    measured_share: Optional[float]  #: share among modeled stages
    modeled_share: Optional[float]
    implied_mhz: Optional[float]  #: modeled cycles / measured microsecond

    @property
    def divergence(self) -> Optional[float]:
        """measured_share - modeled_share, in share points."""
        if self.measured_share is None or self.modeled_share is None:
            return None
        return self.measured_share - self.modeled_share


@dataclass
class AttributionReport:
    """Per-stage cycle attribution with divergence flags."""

    rows: List[StageAttribution]
    tolerance: float

    def flagged(self) -> List[StageAttribution]:
        return [
            r
            for r in self.rows
            if r.divergence is not None and abs(r.divergence) > self.tolerance
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "tolerance": self.tolerance,
            "stages": [
                {
                    "stage": r.stage,
                    "spans": r.spans,
                    "measured_seconds": r.measured_seconds,
                    "modeled_cycles": r.modeled_cycles,
                    "measured_share": r.measured_share,
                    "modeled_share": r.modeled_share,
                    "implied_mhz": r.implied_mhz,
                    "divergence": r.divergence,
                    "flagged": r.divergence is not None
                    and abs(r.divergence) > self.tolerance,
                }
                for r in self.rows
            ],
        }

    def render(self) -> str:
        """Aligned text table: the ``repro trace`` report body."""
        header = (
            f"{'stage':<28} {'spans':>6} {'measured':>12} {'share':>7} "
            f"{'cycles':>12} {'share':>7} {'MHz~':>8}  flag"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            measured = f"{r.measured_seconds * 1e3:.2f} ms"
            m_share = f"{r.measured_share:6.1%}" if r.measured_share is not None else "      -"
            cycles = f"{r.modeled_cycles:,}" if r.modeled_cycles is not None else "-"
            c_share = f"{r.modeled_share:6.1%}" if r.modeled_share is not None else "      -"
            mhz = f"{r.implied_mhz:8.1f}" if r.implied_mhz is not None else "       -"
            div = r.divergence
            flag = ""
            if div is not None and abs(div) > self.tolerance:
                flag = f"DIVERGES ({div:+.1%})"
            lines.append(
                f"{r.stage:<28} {r.spans:>6} {measured:>12} {m_share:>7} "
                f"{cycles:>12} {c_share:>7} {mhz:>8}  {flag}"
            )
        return "\n".join(lines)


def attribute(spans: Iterable[Span], tolerance: float = DEFAULT_TOLERANCE) -> AttributionReport:
    """Fold finished spans into a per-stage measured-vs-modeled report."""
    seconds: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    cycles: Dict[str, int] = {}
    for span in spans:
        seconds[span.name] = seconds.get(span.name, 0.0) + span.duration
        counts[span.name] = counts.get(span.name, 0) + 1
        modeled = span.attributes.get(CYCLES_ATTR)
        if isinstance(modeled, (int, float)):
            cycles[span.name] = cycles.get(span.name, 0) + int(modeled)

    seconds_total = sum(seconds[name] for name in cycles)
    cycles_total = sum(cycles.values())
    rows: List[StageAttribution] = []
    for name in sorted(seconds, key=lambda n: -seconds[n]):
        stage_cycles = cycles.get(name)
        if stage_cycles is not None:
            measured_share = seconds[name] / seconds_total if seconds_total > 0 else None
            modeled_share = stage_cycles / cycles_total if cycles_total > 0 else None
            implied_mhz = (
                stage_cycles / (seconds[name] * 1e6) if seconds[name] > 0 else None
            )
        else:
            measured_share = modeled_share = implied_mhz = None
        rows.append(
            StageAttribution(
                stage=name,
                spans=counts[name],
                measured_seconds=seconds[name],
                modeled_cycles=stage_cycles,
                measured_share=measured_share,
                modeled_share=modeled_share,
                implied_mhz=implied_mhz,
            )
        )
    return AttributionReport(rows=rows, tolerance=tolerance)
