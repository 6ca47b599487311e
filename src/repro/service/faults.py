"""Deterministic fault injection for the modeled uplink.

The streaming pipeline's retry machinery is only testable if the faults it
recovers from are reproducible. A :class:`FaultPlan` is therefore a pure
function of ``(frame_id, attempt)``: the verdict for a transmission comes
from a SHAKE draw over the plan seed and those two integers, so the same
plan applied to the same frame schedule yields the same drops, corruptions
and delays on every run — across thread interleavings, which only change
*when* a transmission happens, never *whether* it is faulted.

Because the attempt number participates in the draw, a retry of a dropped
frame gets an independent verdict; with drop rate ``d`` and ``r`` retries
a frame is permanently lost with probability ``d**(r+1)``, which the
pipeline's ``max_retries`` makes negligible for test-sized rates.

Explicit schedules (``drop_at`` / ``corrupt_at`` / ``delay_at`` sets of
``(frame_id, attempt)``) override the rate draw, for tests that need a
fault on an exact transmission.
"""

from __future__ import annotations

import enum
import hashlib
import struct
import zlib
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

from repro.errors import ParameterError

__all__ = ["FaultAction", "FaultPlan", "NO_FAULTS", "checksum", "corrupt_payload"]


class FaultAction(enum.Enum):
    """What the uplink does to one transmission attempt."""

    DELIVER = "deliver"
    DROP = "drop"  #: frame never arrives; sender times out and retries
    CORRUPT = "corrupt"  #: payload arrives with a flipped bit; CRC catches it
    DELAY = "delay"  #: frame arrives late (possibly after the sender's timeout)


_Pairs = FrozenSet[Tuple[int, int]]


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible uplink fault schedule.

    Rates are probabilities per transmission attempt, evaluated in the
    order drop, corrupt, delay from a single uniform draw (so they must
    sum to at most 1). ``delay_seconds`` is the extra latency a DELAY
    verdict adds to delivery.
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.0
    drop_at: _Pairs = field(default_factory=frozenset)
    corrupt_at: _Pairs = field(default_factory=frozenset)
    delay_at: _Pairs = field(default_factory=frozenset)

    def __post_init__(self):
        for name in ("drop_rate", "corrupt_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {rate}")
        if self.drop_rate + self.corrupt_rate + self.delay_rate > 1.0:
            raise ParameterError("fault rates must sum to at most 1")
        if self.delay_seconds < 0:
            raise ParameterError("delay_seconds must be non-negative")

    def _uniform(self, frame_id: int, attempt: int) -> float:
        digest = hashlib.shake_128(
            b"uplink-fault|" + struct.pack(">QQQ", self.seed, frame_id, attempt)
        ).digest(8)
        return int.from_bytes(digest, "big") / 2**64

    def action(self, frame_id: int, attempt: int) -> FaultAction:
        """The (deterministic) verdict for transmission ``attempt`` of a frame."""
        key = (frame_id, attempt)
        if key in self.drop_at:
            return FaultAction.DROP
        if key in self.corrupt_at:
            return FaultAction.CORRUPT
        if key in self.delay_at:
            return FaultAction.DELAY
        if self.drop_rate or self.corrupt_rate or self.delay_rate:
            u = self._uniform(frame_id, attempt)
            if u < self.drop_rate:
                return FaultAction.DROP
            if u < self.drop_rate + self.corrupt_rate:
                return FaultAction.CORRUPT
            if u < self.drop_rate + self.corrupt_rate + self.delay_rate:
                return FaultAction.DELAY
        return FaultAction.DELIVER


#: The quiet channel.
NO_FAULTS = FaultPlan()


def checksum(payload: bytes) -> int:
    """Integrity check appended to every wire frame (CRC-32)."""
    return zlib.crc32(payload) & 0xFFFFFFFF


def corrupt_payload(payload: bytes, frame_id: int, attempt: int) -> bytes:
    """Flip one deterministically chosen bit of the payload."""
    if not payload:
        return payload
    digest = hashlib.shake_128(b"uplink-bitflip|" + struct.pack(">QQ", frame_id, attempt)).digest(8)
    bit = int.from_bytes(digest, "big") % (len(payload) * 8)
    out = bytearray(payload)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)
