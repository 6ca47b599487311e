"""CPU baseline: the PASTA software numbers of Dobraunig et al. [9].

Table II compares against the cycle counts the PASTA designers reported on
an Intel Xeon E5-2699 v4 at 2.2 GHz; the paper (and this reproduction)
reuses those published numbers rather than re-measuring. The affine layer
(matrix generation) alone consumes 54-60 % of those cycles (Sec. III) —
the observation that drives the whole accelerator design.

:func:`measure_python_reference` additionally times *this repository's*
pure-Python implementation, purely as supplementary context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.pasta.cipher import Pasta, random_key
from repro.pasta.params import PASTA_3, PASTA_4, PastaParams

CPU_FREQ_MHZ = 2200.0  # Intel Xeon E5-2699 v4


@dataclass(frozen=True)
class CpuPastaBaseline:
    """Published single-block encryption cost on CPU [9]."""

    params: PastaParams
    cycles: int
    affine_share_low: float = 0.54
    affine_share_high: float = 0.60

    @property
    def elements(self) -> int:
        return self.params.t

    @property
    def time_us(self) -> float:
        return self.cycles / CPU_FREQ_MHZ

    def affine_cycles_range(self) -> tuple:
        """Cycles attributable to affine generation (54-60 %)."""
        return (
            round(self.cycles * self.affine_share_low),
            round(self.cycles * self.affine_share_high),
        )


#: Table II rows "[9]": one block on CPU.
CPU_PASTA_3 = CpuPastaBaseline(params=PASTA_3, cycles=17_041_380)
CPU_PASTA_4 = CpuPastaBaseline(params=PASTA_4, cycles=1_363_339)


def cpu_baseline(params: PastaParams) -> CpuPastaBaseline:
    """The published CPU baseline matching a parameter set's variant."""
    if params.t == PASTA_3.t and params.rounds == PASTA_3.rounds:
        return CPU_PASTA_3
    if params.t == PASTA_4.t and params.rounds == PASTA_4.rounds:
        return CPU_PASTA_4
    raise ParameterError(f"no published CPU baseline for {params.name}")


def measure_python_reference(params: PastaParams, blocks: int = 3, nonce: int = 0) -> float:
    """Wall-clock microseconds per block of this repo's reference cipher.

    Supplementary only — a pure-Python cipher is not the optimized C++ of
    [9], so this number never enters the paper-comparison tables.
    """
    cipher = Pasta(params, random_key(params))
    start = time.perf_counter()
    for counter in range(blocks):
        cipher.keystream_block(nonce, counter)
    return (time.perf_counter() - start) / blocks * 1e6

