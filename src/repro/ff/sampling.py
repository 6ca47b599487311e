"""Rejection sampling of field elements from XOF words.

Paper Sec. III-A / IV-B: the XOF emits one 64-bit word per clock cycle;
each word is masked down to ``ceil(log2 p)`` bits and rejected if the
candidate is >= p. For p = 65537 the mask is 17 bits and the acceptance
probability is 65537 / 2^17 ~ 0.5 — the "~2x rejection rate" the paper
highlights as the throughput bottleneck.

The same sampler instance is shared by the software cipher, the hardware
model, and the statistics used in EXPERIMENTS.md, so rejection decisions
are bit-identical everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import ParameterError


@dataclass(frozen=True)
class SamplerStats:
    """Outcome counters for a sampling run."""

    accepted: int
    rejected: int

    @property
    def words_consumed(self) -> int:
        return self.accepted + self.rejected

    @property
    def acceptance_rate(self) -> float:
        total = self.words_consumed
        return self.accepted / total if total else 0.0


class RejectionSampler:
    """Masked rejection sampler for uniform elements of [0, p)."""

    def __init__(self, p: int):
        if p < 2:
            raise ParameterError(f"modulus must be >= 2, got {p}")
        self.p = p
        self.mask_bits = p.bit_length()
        self.mask = (1 << self.mask_bits) - 1

    @property
    def acceptance_probability(self) -> float:
        """Exact probability that one masked 64-bit word is accepted."""
        return self.p / float(1 << self.mask_bits)

    @property
    def expected_words_per_element(self) -> float:
        """Expected number of 64-bit XOF words consumed per field element."""
        return 1.0 / self.acceptance_probability

    def candidate(self, word: int, min_value: int = 0) -> Tuple[int, bool]:
        """Mask one 64-bit word; return (candidate, accepted).

        ``min_value = 1`` rejects zero candidates; PASTA's first matrix row
        is sampled with this flag so the sequential-matrix recurrence stays
        invertible (see :mod:`repro.pasta.matgen`).
        """
        value = word & self.mask
        return value, min_value <= value < self.p

    def candidates_batch(
        self, words: np.ndarray, min_value: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`candidate` over an unsigned word array.

        Returns ``(values, accepted)`` with the same shape and dtype as
        ``words``: masked candidates and the accept decision each scalar
        call would have made. The batched keystream engine applies this to
        whole word matrices (paper Sec. IV-B's mask-and-filter, one numpy
        pass over a whole frame instead of one Python call per word).

        The mask and the comparisons run in the words' own dtype. A 64-bit
        word's candidate lives in its low ``mask_bits`` bits, so when
        ``mask_bits <= 32`` the low 32-bit halves of the words (uint32)
        give the same values and decisions at half the width. Words
        narrower than ``mask_bits`` are refused.
        """
        kind = words.dtype.type
        if not issubclass(kind, np.unsignedinteger) or 8 * words.itemsize < self.mask_bits:
            raise ParameterError(
                f"{self.mask_bits}-bit candidates need unsigned words of at least"
                f" that width, got {words.dtype}"
            )
        values = words & kind(self.mask)
        accepted = values < kind(self.p)
        if min_value > 0:
            accepted &= values >= kind(min_value)
        return values, accepted

    def sample(
        self, words: Iterator[int], count: int, min_value: int = 0
    ) -> Tuple[List[int], SamplerStats]:
        """Draw ``count`` uniform field elements from a 64-bit word stream.

        Returns the elements and the accept/reject statistics. Raises
        ``StopIteration`` if the stream is exhausted first (the XOF streams
        used in this library are unbounded).
        """
        out: List[int] = []
        rejected = 0
        while len(out) < count:
            value, ok = self.candidate(next(words), min_value)
            if ok:
                out.append(value)
            else:
                rejected += 1
        return out, SamplerStats(accepted=count, rejected=rejected)

    def __repr__(self) -> str:
        return f"RejectionSampler(p={self.p}, mask_bits={self.mask_bits})"
