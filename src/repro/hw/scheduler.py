"""Transaction-level schedule of one PASTA block (paper Fig. 3).

The simulation advances a timeline in which every operation is a window
``[start, end)`` on a named unit, with start times derived from data
dependencies (XOF vector readiness, previous-layer state) and structural
hazards (each unit processes one operation at a time):

* ``V_alphaL -> MatGen/MatMul(L)`` starts when the left matrix seed is fully
  sampled and the state half is ready; it occupies the MatGen MAC array for
  t row-streaming cycles and completes after ``6 + t + log2 t``.
* The right half follows on the same arrays.
* ``RC add`` (3 cc on the t shared adders) waits for the matrix product and
  the sampled round-constant vector.
* ``Mix`` (3 adds) and the S-box (shared multipliers) close the round; in
  the final layer the paper charges a t-cycle tail for the last Mix/output
  drain instead.

Functional values are computed alongside with the exact same sampled
vectors, so the resulting keystream is bit-identical to the software
reference — asserted by the integration tests.
"""

from __future__ import annotations

from typing import List, Tuple, Type

import numpy as np

from repro.errors import SimulationError
from repro.hw import arith_units as au
from repro.hw.report import CycleReport, PhaseWindow
from repro.hw.xof_unit import XofSamplerUnit
from repro.keccak.hw_model import KeccakCoreModel, OverlappedKeccakCore
from repro.pasta import layers as L
from repro.pasta.matgen import generate_matrix
from repro.pasta.params import PastaParams


def simulate_block(
    params: PastaParams,
    key: np.ndarray,
    nonce: int,
    counter: int,
    core_cls: Type[KeccakCoreModel] = OverlappedKeccakCore,
) -> Tuple[np.ndarray, CycleReport]:
    """Simulate one block's keystream generation; returns (KS, report)."""
    field = params.field
    t = params.t
    if len(key) != params.key_size:
        raise SimulationError(f"key must have {params.key_size} elements")
    key = field.coerce(np.asarray(key))

    xof = XofSamplerUnit(params, nonce, counter, core_cls)
    windows: List[PhaseWindow] = []

    mat_cycles = au.mat_stage_cycles(t)
    matgen_occupancy = au.matgen_row_cycles(t)

    # Unit-free cycles (structural hazards).
    matgen_free = 0
    adders_free = 0
    muls_free = 0  # shared multipliers for the S-box batches

    xl = key[:t].copy()
    xr = key[t:].copy()
    state_ready = 0

    total_layers = params.affine_layers
    end_of_block = 0

    for layer in range(total_layers):
        alpha_l, c_alpha_l = xof.next_vector(min_value=1)
        alpha_r, c_alpha_r = xof.next_vector(min_value=1)
        rc_l, c_rc_l = xof.next_vector()
        rc_r, c_rc_r = xof.next_vector()

        # Left matrix: generation + row-wise multiplication overlap. The MAC
        # array is occupied for t row-streaming cycles; the pipelined adder
        # tree keeps draining for another 6 + log2 t cycles, during which the
        # next matrix may already start (the recorded window is the array
        # occupancy; `end` below is result availability).
        start_l = max(c_alpha_l, state_ready, matgen_free)
        end_l = start_l + mat_cycles
        matgen_free = start_l + matgen_occupancy
        windows.append(PhaseWindow("MatGen+MatMul", layer, start_l, start_l + matgen_occupancy))
        prod_l = field.mat_vec(generate_matrix(field, alpha_l), xl)

        # Right matrix follows on the same arrays.
        start_r = max(c_alpha_r, state_ready, matgen_free)
        end_r = start_r + mat_cycles
        matgen_free = start_r + matgen_occupancy
        windows.append(PhaseWindow("MatGen+MatMul", layer, start_r, start_r + matgen_occupancy))
        prod_r = field.mat_vec(generate_matrix(field, alpha_r), xr)

        # Round-constant additions on the shared adders.
        va_l_start = max(c_rc_l, end_l, adders_free)
        va_l_end = va_l_start + au.VECADD_CYCLES
        adders_free = va_l_end
        windows.append(PhaseWindow("VecAdd", layer, va_l_start, va_l_end))
        xl = field.vec_add(prod_l, rc_l)

        va_r_start = max(c_rc_r, end_r, adders_free)
        va_r_end = va_r_start + au.VECADD_CYCLES
        adders_free = va_r_end
        windows.append(PhaseWindow("VecAdd", layer, va_r_start, va_r_end))
        xr = field.vec_add(prod_r, rc_r)

        if layer < total_layers - 1:
            # Mid-round: Mix (3 adds) + S-box, overlapped with next XOF data.
            mix_start = max(va_l_end, va_r_end, adders_free)
            mix_end = mix_start + au.MIX_CYCLES
            adders_free = mix_end
            windows.append(PhaseWindow("Mix", layer, mix_start, mix_end))
            xl, xr = L.mix(field, xl, xr)

            full = np.concatenate([xl, xr])
            if layer < params.rounds - 1:
                sbox_cycles = au.feistel_cycles()
                full = L.feistel_sbox(field, full)
                name = "SBox(Feistel)"
            else:
                sbox_cycles = au.cube_cycles()
                full = L.cube_sbox(field, full)
                name = "SBox(Cube)"
            sbox_start = max(mix_end, muls_free)
            sbox_end = sbox_start + sbox_cycles
            muls_free = sbox_end
            windows.append(PhaseWindow(name, layer, sbox_start, sbox_end))
            xl, xr = full[:t], full[t:]
            state_ready = sbox_end
            end_of_block = sbox_end
        else:
            # Final layer: the paper charges a t-cycle tail for the last Mix.
            tail_start = max(va_l_end, va_r_end, adders_free)
            tail_end = tail_start + au.final_mix_tail_cycles(params)
            windows.append(PhaseWindow("Mix(final)", layer, tail_start, tail_end))
            xl, xr = L.mix(field, xl, xr)
            end_of_block = tail_end

    keystream = L.truncate(xl)

    report = CycleReport(
        params_name=params.name,
        t=t,
        nonce=nonce,
        counter=counter,
        core_name=core_cls.name,
        total_cycles=end_of_block,
        xof_last_word_cycle=xof.last_word_cycle,
        tail_cycles=end_of_block - xof.last_word_cycle,
        permutations=xof.permutations,
        words_consumed=xof.words_consumed,
        words_rejected=xof.words_rejected,
        windows=windows,
    )
    ok, msg = report.schedule_ok()
    if not ok:
        raise SimulationError(f"inconsistent schedule: {msg}")
    return keystream, report


def paper_cycle_model(params: PastaParams, permutations: int) -> int:
    """The closed-form cycle count of paper Sec. IV-B.

    ``permutations * (21 + 5) + t`` — e.g. 60 * 26 + 32 = 1,592 for PASTA-4
    and 186 * 26 + 128 = 4,964 for PASTA-3 with the paper's average
    permutation counts.
    """
    return permutations * 26 + params.t
