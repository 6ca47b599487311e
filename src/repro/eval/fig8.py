"""Fig. 8: video frames/s over 5G for this work vs RISE (paper Sec. V)."""

from __future__ import annotations

import time

from repro.apps.video import (
    MAX_BANDWIDTH_BPS,
    MIN_BANDWIDTH_BPS,
    QQVGA,
    VGA,
    NonceSequence,
    encrypt_frame,
    fig8_rows,
    rise_design,
    this_work_design,
    transcipher_blocks_per_frame,
)
from repro.eval.result import ExperimentResult
from repro.eval.table2 import measure_soc_cycles
from repro.hw.report import RISCV_CLOCK_MHZ
from repro.pasta.params import PASTA_4

#: Frames per measured-pipeline sample; enough for the pipeline to reach
#: steady state without making `python -m repro fig8` sluggish.
MEASURE_FRAMES = 128


def measured_pipeline_rows() -> list:
    """End-to-end *measured* rows: the streaming service vs a serial loop.

    The analytic rows above model link and compute limits from constants;
    these two rows run the behavioral pipeline (toy parameters, 8x8 tiles)
    so the figure also records what the working system sustains — the
    serial per-frame encrypt loop and the 4-worker batched service.
    """
    from repro.obs import MetricsRegistry
    from repro.pasta.cipher import Pasta, random_key
    from repro.pasta.params import PASTA_TOY
    from repro.service import NO_FAULTS, TILE8, Service, ServiceConfig, TenantSpec

    cipher = Pasta(PASTA_TOY, random_key(PASTA_TOY, b"fig8"))
    nonces = NonceSequence()
    start = time.perf_counter()
    for frame_id in range(MEASURE_FRAMES):
        encrypt_frame(cipher, TILE8, nonces, seed=frame_id)
    serial_fps = MEASURE_FRAMES / (time.perf_counter() - start)

    config = ServiceConfig(
        tenants=(TenantSpec("camera", frames_per_session=MEASURE_FRAMES, ladder=(TILE8,)),),
        params=PASTA_TOY,
        workers_per_shard=4,
        batch_frames=32,
        worker_batch=32,
        queue_capacity=128,
    )
    fps = Service(config, NO_FAULTS, registry=MetricsRegistry()).run().frames_per_s
    frame_kb = TILE8.pixels // 2 * 4 / 1e3  # 32 uint32 elements on the wire
    return [
        ["meas.", TILE8.name, "serial encrypt loop (toy)", round(serial_fps, 1),
         round(serial_fps, 1), "yes", frame_kb],
        ["meas.", TILE8.name, "service pipeline, 4 workers (toy)", round(fps, 1),
         round(fps, 1), "yes", frame_kb],
    ]


def generate(**_kwargs) -> ExperimentResult:
    # Use the *measured* SoC block latency for this work's compute limit.
    soc_us = measure_soc_cycles(PASTA_4) / RISCV_CLOCK_MHZ
    tw_17 = this_work_design(PASTA_4, encrypt_us_per_block=soc_us)
    tw_paper = this_work_design(PASTA_4, encrypt_us_per_block=soc_us, ct_bits_per_element=33)
    rise = rise_design()
    designs = [rise, tw_17, tw_paper]

    rows = []
    for row in fig8_rows(designs):
        rows.append(
            [
                row["bandwidth_MBps"],
                row["resolution"],
                row["design"],
                round(row["fps"], 2),
                round(row["compute_fps"], 1),
                "yes" if row["streams"] else "NO",
                round(row["frame_bytes"] / 1e3, 1),
            ]
        )

    rows.extend(measured_pipeline_rows())

    qqvga_max_rise = rise.link_fps(QQVGA, MAX_BANDWIDTH_BPS)
    qqvga_max_tw = tw_17.link_fps(QQVGA, MAX_BANDWIDTH_BPS)
    vga_min_rise = rise.link_fps(VGA, MIN_BANDWIDTH_BPS)
    notes = [
        "Fig. 8 plots frames *transferred* per second (link-limited); the "
        "compute column adds the client encryption ceiling for context.",
        f"RISE transfers {qqvga_max_rise:.0f} QQVGA fps at 112.5 MB/s (paper: 70); "
        f"this work {qqvga_max_tw:.0f} fps — {qqvga_max_tw / qqvga_max_rise:.0f}x more "
        "(paper: 'up to 712x'; see EXPERIMENTS.md for the constant-by-constant derivation).",
        f"RISE cannot stream VGA at 12.5 MB/s: {vga_min_rise:.2f} fps < 1 (paper: same claim).",
        "The two 'meas.' rows are wall-clock measurements of the working "
        "pipeline (repro.service) at toy parameters on 8x8 tiles — the "
        "4-worker batched service vs a per-frame serial loop; see "
        "benchmarks/test_service_pipeline.py for the full benchmark.",
        "TW rows use the measured RISC-V SoC block latency; the '33b' variant "
        "serializes elements at the paper's 132 B/block (N=2^5, log q0=33), the "
        "'17b' variant at the 17-bit modulus width (68 B/block).",
        f"Server side, each VGA frame is {transcipher_blocks_per_frame(VGA, PASTA_4)} "
        f"PASTA-4 blocks ({transcipher_blocks_per_frame(QQVGA, PASTA_4)} for QQVGA) to "
        "transcipher; with packed BFV slot batching one circuit evaluation covers "
        "(N/2)/t blocks (the packed capacity), and the server's cold per-block "
        "rate is the hhe_frame workload of bench/run.py.",
    ]
    return ExperimentResult(
        experiment_id="Fig. 8",
        title="Encrypted video frames/s at max/min 5G bandwidth",
        headers=["BW (MB/s)", "Resolution", "Design", "link fps", "compute fps", "streams?", "frame KB"],
        rows=rows,
        notes=notes,
    )
