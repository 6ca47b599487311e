"""Bench: the streaming service as a sharded fleet — scale, zero loss, fairness.

Three runs of :class:`~repro.service.pipeline.Service` with two shards at
toy parameters on a 10%-drop uplink:

1. **Solo** — the ``quiet`` tenant alone. Its p99 frame latency is the
   baseline a well-isolated service should roughly preserve under load.
2. **Scale** — 4 tenants x 16 sessions = 64 concurrent sessions. Every
   frame must come back bit-exact (zero loss).
3. **Hot tenant** — one tenant offers 3x the sessions of the quiet
   tenant. Round-robin admission must keep the quiet tenant's p99 under
   ``FAIRNESS_CEILING`` (2x) of its solo baseline — the isolation claim,
   asserted hard here and gated by perfgate via ``fairness.p99_ratio``.

Results land in ``benchmarks/BENCH_multitenant.json`` (sessions/s and
frames/s from the scale run, the fairness ratio from the hot run), gated
against ``benchmarks/baselines/`` by ``python -m repro perfgate``.
"""

import json
from pathlib import Path

from repro.apps.video import synthetic_frame
from repro.obs import MetricsRegistry
from repro.pasta import PASTA_TOY
from repro.service import FaultPlan, Service, ServiceConfig, TenantSpec

DROP_RATE = 0.10
FAULT_SEED = 11
FRAMES_PER_SESSION = 4
FAIRNESS_CEILING = 2.0
BENCH_JSON = Path(__file__).parent / "BENCH_multitenant.json"


def run_service(tenants, seed=FAULT_SEED):
    config = ServiceConfig(
        tenants=tenants,
        params=PASTA_TOY,
        n_shards=2,
        workers_per_shard=1,
        max_active_sessions=4,
        batch_frames=16,
        worker_batch=32,
        timeout_seconds=0.005,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.01,
    )
    service = Service(
        config, FaultPlan(seed=seed, drop_rate=DROP_RATE), registry=MetricsRegistry()
    )
    return service.run()


def test_multitenant_scale_and_fairness(capsys):
    # 1. Solo baseline: the quiet tenant with the service to itself.
    quiet = TenantSpec("quiet", sessions=16, frames_per_session=FRAMES_PER_SESSION)
    solo = run_service((quiet,))
    solo_p99 = solo.tenant_latency["quiet"]["p99"]
    assert len(solo.frames) == 16 * FRAMES_PER_SESSION

    # 2. Scale: 64 concurrent sessions across 4 tenants, 10% drops.
    fleet = tuple(
        TenantSpec(f"tenant-{i}", sessions=16, frames_per_session=FRAMES_PER_SESSION)
        for i in range(4)
    )
    scale = run_service(fleet)
    offered = 64 * FRAMES_PER_SESSION
    frames_lost = offered - len(scale.frames)
    assert frames_lost == 0, "frame loss under injected drops"
    for frame in scale.frames:
        assert frame.pixels == bytes(
            synthetic_frame(frame.resolution, frame.frame_id)
        ), f"frame {frame.frame_id} not bit-exact"

    # 3. Fairness: a 3x-hot tenant must not push the quiet tenant's p99
    #    past FAIRNESS_CEILING x its solo baseline.
    contended = run_service(
        (TenantSpec("hot", sessions=48, frames_per_session=FRAMES_PER_SESSION), quiet)
    )
    assert len(contended.frames) == 64 * FRAMES_PER_SESSION
    quiet_p99 = contended.tenant_latency["quiet"]["p99"]
    p99_ratio = quiet_p99 / solo_p99 if solo_p99 > 0 else float("inf")

    report = {
        "params": PASTA_TOY.name,
        "drop_rate": DROP_RATE,
        "frames_per_session": FRAMES_PER_SESSION,
        "scale": {
            "tenants": len(fleet),
            "sessions": 64,
            "frames": len(scale.frames),
            "frames_lost": frames_lost,
            "shed_frames": scale.shed_frames,
            "admission_deferred": scale.admission_deferred,
            "tenant_p99_ms": {
                t: round(s["p99"] * 1e3, 2) for t, s in scale.tenant_latency.items()
            },
        },
        "sessions_per_s": round(scale.sessions_per_s, 1),
        "frames_per_s": round(scale.frames_per_s, 1),
        "fairness": {
            "hot_sessions": 48,
            "quiet_sessions": 16,
            "solo_p99_ms": round(solo_p99 * 1e3, 2),
            "contended_p99_ms": round(quiet_p99 * 1e3, 2),
            "hot_p99_ms": round(contended.tenant_latency["hot"]["p99"] * 1e3, 2),
            "p99_ratio": round(p99_ratio, 3),
            "ceiling": FAIRNESS_CEILING,
        },
    }
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print()
        print(f"multi-tenant service ({PASTA_TOY.name}, {DROP_RATE:.0%} drops):")
        print(
            f"  scale: 64 sessions / 4 tenants, "
            f"{scale.sessions_per_s:.1f} sessions/s, {scale.frames_per_s:.1f} frames/s, 0 lost"
        )
        print(
            f"  fairness: quiet p99 {solo_p99 * 1e3:.1f} ms solo -> "
            f"{quiet_p99 * 1e3:.1f} ms under 3x hot tenant ({p99_ratio:.2f}x, "
            f"ceiling {FAIRNESS_CEILING}x)"
        )

    assert p99_ratio < FAIRNESS_CEILING, (
        f"hot tenant pushed quiet tenant's p99 to {p99_ratio:.2f}x solo "
        f"({quiet_p99 * 1e3:.1f} ms vs {solo_p99 * 1e3:.1f} ms); ceiling is "
        f"{FAIRNESS_CEILING}x"
    )
