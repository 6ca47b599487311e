"""Bench: the streaming service's single camera stream vs the serial loop.

The stream is one tenant with one session on one shard. The acceptance
bar for the service is a 4-worker pipeline sustaining
>= 3x the frames/s of the serial ``encrypt_frame`` loop at toy
parameters. With one CPU in the harness the speedup comes from the
cross-frame keystream batching (one ``keystream_pairs`` pass per 32
in-flight frames) and vectorized synthesis/packing, not thread
parallelism — threads only hide the queue hand-off latency.

A second run injects a 10% drop schedule and must recover every frame
bit-exactly (zero loss). Results — sustained fps, the speedup ratio, and
p50/p99 per-stage latencies from the obs registry — land in
``benchmarks/BENCH_service_pipeline.json`` (the CI artifact of the
service-pipeline smoke job).
"""

import json
import time
from pathlib import Path

import pytest

from repro.apps.video import NonceSequence, encrypt_frame, synthetic_frame
from repro.obs import MetricsRegistry
from repro.obs.metrics import metric_key
from repro.pasta import PASTA_TOY, Pasta, random_key
from repro.service import NO_FAULTS, FaultPlan, Service, ServiceConfig, TenantSpec, TILE8

SPEEDUP_FLOOR = 3.0
N_FRAMES = 256
DROP_RATE = 0.10
TENANT = "camera"
BENCH_JSON = Path(__file__).parent / "BENCH_service_pipeline.json"

STAGES = (
    "service.synthesize.seconds",
    "service.encrypt.seconds",
    "service.recover.seconds",
    metric_key("service.tenant.frame_latency.seconds", {"tenant": TENANT}),
)


def pipeline_config() -> ServiceConfig:
    return ServiceConfig(
        tenants=(TenantSpec(TENANT, frames_per_session=N_FRAMES, ladder=(TILE8,)),),
        params=PASTA_TOY,
        n_shards=1,
        workers_per_shard=4,
        batch_frames=32,
        worker_batch=32,
        queue_capacity=128,
        timeout_seconds=0.005,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.01,
    )


def serial_fps() -> float:
    """The baseline: one frame fully encrypted+verified at a time."""
    cipher = Pasta(PASTA_TOY, random_key(PASTA_TOY, b"service-bench"))
    nonces = NonceSequence()
    start = time.perf_counter()
    for frame_id in range(N_FRAMES):
        result = encrypt_frame(cipher, TILE8, nonces, seed=frame_id)
        assert result.ok_roundtrip
    return N_FRAMES / (time.perf_counter() - start)


def stage_latencies(snapshot: dict) -> dict:
    return {
        stage: {k: snapshot[stage][k] for k in ("count", "mean", "p50", "p90", "p99")}
        for stage in STAGES
        if stage in snapshot
    }


def test_pipeline_speedup_and_fault_tolerance(capsys):
    baseline_fps = serial_fps()

    clean_registry = MetricsRegistry()
    clean = Service(pipeline_config(), NO_FAULTS, registry=clean_registry).run()
    speedup = clean.frames_per_s / baseline_fps

    # 10% injected drops: every frame must still arrive, bit-exact.
    faulted_registry = MetricsRegistry()
    plan = FaultPlan(seed=2026, drop_rate=DROP_RATE)
    faulted = Service(pipeline_config(), plan, registry=faulted_registry).run()
    assert len(faulted.frames) == N_FRAMES, "frame loss under injected drops"
    for frame in faulted.frames:
        assert frame.pixels == bytes(synthetic_frame(frame.resolution, frame.frame_id))
    drops = faulted_registry.counter("service.uplink.dropped", tenant=TENANT).value
    retried = sum(1 for n in faulted.attempts.values() if n > 1)
    assert drops > 0, "drop schedule never fired; the tolerance claim is vacuous"

    report = {
        "params": PASTA_TOY.name,
        "resolution": TILE8.name,
        "n_frames": N_FRAMES,
        "n_workers": 4,
        "serial_fps": round(baseline_fps, 1),
        "pipeline_fps": round(clean.frames_per_s, 1),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "stage_latencies": stage_latencies(clean.metrics),
        "faulted": {
            "drop_rate": DROP_RATE,
            "fps": round(faulted.frames_per_s, 1),
            "frames_recovered": len(faulted.frames),
            "frames_lost": N_FRAMES - len(faulted.frames),
            "uplink_drops": drops,
            "frames_retried": retried,
            "stage_latencies": stage_latencies(faulted.metrics),
        },
    }
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print()
        print(f"streaming service, {N_FRAMES} x {TILE8.name} frames ({PASTA_TOY.name}):")
        print(f"  serial loop   {baseline_fps:8.1f} frames/s")
        print(f"  pipeline (4w) {clean.frames_per_s:8.1f} frames/s  ({speedup:.2f}x)")
        print(
            f"  with {DROP_RATE:.0%} drops: {faulted.frames_per_s:8.1f} frames/s, "
            f"{drops} drops, {retried} frames retried, 0 lost"
        )
        enc = clean.metrics["service.encrypt.seconds"]
        print(f"  encrypt stage p50/p99: {enc['p50'] * 1e3:.2f}/{enc['p99'] * 1e3:.2f} ms/batch")

    assert speedup >= SPEEDUP_FLOOR, (
        f"pipeline only {speedup:.2f}x over the serial loop "
        f"({clean.frames_per_s:.0f} vs {baseline_fps:.0f} frames/s); floor is {SPEEDUP_FLOOR}x"
    )
