"""Latency constants and formulas of the arithmetic units (paper Sec. III-C/D).

The datapath instantiates:

* **two sets of t modular multipliers** — one dedicated to MatGen (as MAC
  units), one to MatMul — so matrix generation and matrix-vector
  multiplication finish together inside the t-cycle XOF window;
* **t modular adders**, shared by RC-add, Mix, and the S-boxes;
* a **pipelined adder tree** of depth ceil(log2 t) that folds each row's
  products into the dot-product result.

Latency of the combined MatGen+MatMul stage is ``6 + t + log2(t)`` cycles
(paper Sec. III-C): 6 cycles of pipeline fill between the MAC and the
matrix stages, t cycles of row streaming, log2(t) cycles of adder-tree
drain. Vector addition "barely consumes three clock cycles" (Sec. III-D);
Mix is realized as three additions.
"""

from __future__ import annotations

from math import ceil, log2

from repro.pasta.params import PastaParams

#: Pipeline-fill overhead of the MatGen/MatMul macro stage (paper: "6 + t + log2 t").
MAT_PIPELINE_FILL = 6

#: Latency of one pipelined modular multiplier (multiply + add-shift reduce).
MUL_LATENCY = 3

#: Latency of a full-vector modular addition through the t adder units.
VECADD_CYCLES = 3

#: Mix = three chained vector additions computed on the shared adders.
MIX_CYCLES = 3


def adder_tree_depth(t: int) -> int:
    """Depth of the pipelined adder tree folding t products."""
    return ceil(log2(t))


def mat_stage_cycles(t: int) -> int:
    """MatGen or MatMul macro-stage latency: ``6 + t + log2 t``."""
    return MAT_PIPELINE_FILL + t + adder_tree_depth(t)


def matgen_row_cycles(t: int) -> int:
    """Cycles during which the MatGen MAC array is occupied streaming rows."""
    return t


def feistel_cycles() -> int:
    """Feistel S-box: one (pipelined) multiplication batch + one addition."""
    return MUL_LATENCY + 1


def cube_cycles() -> int:
    """Cube S-box: square then multiply through the shared multipliers."""
    return 2 * MUL_LATENCY


def final_mix_tail_cycles(params: PastaParams) -> int:
    """Tail after the last XOF word: the paper charges t cycles for the
    "last remaining Mix operation" (Sec. IV-B), which covers the final
    RC-add + Mix + output drain of the t-element keystream."""
    return params.t

