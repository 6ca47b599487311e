"""Command-line entry: regenerate any reproduced table or figure.

Usage::

    python -m repro list                 # available experiments
    python -m repro table2               # print one experiment
    python -m repro all                  # print everything
    python -m repro report [PATH]        # (re)write EXPERIMENTS.md
    python -m repro service [options]    # run the streaming service once
    python -m repro trace [options]      # traced service run -> Perfetto JSON
    python -m repro health [options]     # SLO health report for a short run
    python -m repro perfgate [options]   # BENCH_*.json vs committed baselines

service options (all optional)::

    --tenants N              distinct tenant key schedules (default 1)
    --sessions-per-tenant N  concurrent sessions each (default 1)
    --frames N               frames per session (default 128)
    --shards N               uplink queues, each with its own workers (default 1)
    --workers N              recovery workers per shard (default 4)
    --hot-tenant             make tenant 0 offer 4x the sessions of the rest
    --drop-rate R            injected uplink drop probability (default 0.0)
    --corrupt-rate R         injected corruption probability (default 0.0)
    --mode M                 symmetric | hhe (default symmetric)
    --json                   emit the result as JSON instead of a summary

The defaults are one camera stream; ``--tenants 4 --sessions-per-tenant 16
--frames 4 --shards 2 --workers 1`` is a small fleet on the same loop.

trace options (all optional)::

    --out PATH        Perfetto/Chrome trace JSON destination (default trace.json)
    --metrics-out P   also write the registry in Prometheus text format
    --frames N        frames to stream (default 64)
    --workers N       recovery workers (default 4)
    --drop-rate R     injected uplink drop probability (default 0.0)
    --mode M          symmetric | hhe (default symmetric)
    --tolerance T     cycle-attribution divergence flag threshold (default 0.25)

Load the trace at https://ui.perfetto.dev (Open trace file). Spans nest
producer -> encrypt -> keystream with variant/omega attributes in each
slice's args, and the client's keystream slices carry the accelerator
model's cycles (the only modeled stage; ``hhe`` mode's server spans report
time); flight-recorder time series (uplink queue depth, noise headroom)
render as counter tracks. The summary ends with each span name's median
minor page faults, counted on the span's own thread.

health options (all optional)::

    --tenants N            distinct tenants in the probe run (default 2)
    --sessions-per-tenant N  sessions each (default 2)
    --frames N             frames per session (default 4)
    --drop-rate R          injected uplink drop probability (default 0.0)
    --mode M               symmetric | hhe (default symmetric)
    --json                 emit the HealthReport as JSON
    --out PATH             also write the JSON report to PATH

The health command streams a short two-shard run through a fresh
registry/tracer/flight-recorder, folds the per-tenant SLO windows (p99
latency, frame loss, minimum modeled noise headroom in hhe mode) and the
incident ring into a HealthReport, and exits 0 iff healthy.

perfgate options: --current DIR, --baseline DIR, --tolerance T (see
``repro.eval.perfgate``).
"""

from __future__ import annotations

import sys


def _parse_options(command: str, argv, opts: dict):
    """Fill ``opts`` from ``--name [value]`` arguments, typed by each default.

    Boolean options are flags; a ``None`` default takes a string. Returns
    None after reporting an unknown option.
    """
    it = iter(argv)
    for arg in it:
        name = arg.lstrip("-")
        if name not in opts:
            print(f"unknown {command} option {arg!r}", file=sys.stderr)
            return None
        default = opts[name]
        if isinstance(default, bool):
            opts[name] = True
        else:
            opts[name] = next(it) if default is None else type(default)(next(it))
    return opts


def _service_config(mode: str, frames: int, workers: int, tenants: int = 1,
                    sessions: int = 1, shards: int = 1, hot_tenant: bool = False):
    """The CLI's service shape; ``hhe`` mode streams 4x4 tiles at PASTA_MICRO."""
    from repro.apps.video import Resolution
    from repro.pasta.params import PASTA_MICRO, PASTA_TOY
    from repro.service import TILE8, ServiceConfig, TenantSpec

    hhe = mode == "hhe"
    ladder = (Resolution("TILE4", 4, 4),) if hhe else (TILE8,)
    specs = tuple(
        TenantSpec(
            f"tenant-{i:02d}",
            sessions=sessions * (4 if hot_tenant and i == 0 else 1),
            frames_per_session=frames,
            ladder=ladder,
        )
        for i in range(tenants)
    )
    return ServiceConfig(
        tenants=specs,
        params=PASTA_MICRO if hhe else PASTA_TOY,
        n_shards=shards,
        workers_per_shard=workers,
        batch_frames=4 if hhe else 32,
        worker_batch=4 if hhe else 32,
        queue_capacity=128,
        mode=mode,
    )


def service_main(argv) -> int:
    """Run the streaming transciphering service once and report metrics."""
    import json

    from repro.obs import MetricsRegistry
    from repro.service import FaultPlan, Service

    opts = _parse_options("service", argv, {
        "tenants": 1, "sessions-per-tenant": 1, "frames": 128, "shards": 1, "workers": 4,
        "hot-tenant": False, "drop-rate": 0.0, "corrupt-rate": 0.0, "mode": "symmetric",
        "json": False,
    })
    if opts is None:
        return 2
    config = _service_config(
        opts["mode"], opts["frames"], opts["workers"], tenants=opts["tenants"],
        sessions=opts["sessions-per-tenant"], shards=opts["shards"],
        hot_tenant=opts["hot-tenant"],
    )
    plan = FaultPlan(seed=1, drop_rate=opts["drop-rate"], corrupt_rate=opts["corrupt-rate"])
    registry = MetricsRegistry()
    result = Service(config, plan, registry=registry).run()

    if opts["json"]:
        print(json.dumps({
            "frames_per_s": result.frames_per_s,
            "sessions_per_s": result.sessions_per_s,
            "frames_recovered": len(result.frames),
            "shed_frames": result.shed_frames,
            "admission_deferred": result.admission_deferred,
            "degradation_steps": result.degradation_steps,
            "tenant_latency": result.tenant_latency,
            "metrics": result.metrics,
        }, indent=2))
        return 0
    sessions = sum(spec.sessions for spec in config.tenants)
    retried = sum(1 for n in result.attempts.values() if n > 1)
    print(f"streaming service ({config.mode}, {config.params.name}, "
          f"{len(config.tenants)} tenants, {sessions} sessions, "
          f"{config.n_shards} shards x {config.workers_per_shard} workers)")
    print(f"  frames recovered  {len(result.frames)}/{len(result.attempts)} "
          f"({result.frames_per_s:.1f}/s over {result.duration_seconds:.2f}s)")
    print(f"  sessions          {result.sessions_per_s:.1f}/s, "
          f"{result.admission_deferred} admission deferrals")
    print(f"  frames retried    {retried}")
    for name in ("service.uplink.dropped", "service.crc.rejected", "service.retries",
                 "service.frames.duplicate", "service.shed.frames",
                 "service.degradation.steps"):
        total = sum(metric.value for metric in registry.collect(name))
        print(f"  {name:<26} {total}")
    for stage in ("service.encrypt.seconds", "service.recover.seconds"):
        hist = result.metrics.get(stage)
        if hist and hist["count"]:
            print(f"  {stage:<26} p50 {hist['p50'] * 1e3:7.2f} ms   "
                  f"p99 {hist['p99'] * 1e3:7.2f} ms")
    for tenant, summary in sorted(result.tenant_latency.items()):
        print(f"  {tenant:<26} p50 {summary['p50'] * 1e3:7.2f} ms   "
              f"p99 {summary['p99'] * 1e3:7.2f} ms   ({int(summary['count'])} frames)")
    return 0


def trace_main(argv) -> int:
    """Run one traced service pass; export Perfetto JSON + cycle report."""
    from repro.obs import (
        FlightRecorder,
        MetricsRegistry,
        Tracer,
        prometheus_text,
        set_flight_recorder,
        set_registry,
        set_tracer,
        write_chrome_trace,
    )
    from repro.obs.cycles import attribute
    from repro.obs.trace import fault_medians
    from repro.service import FaultPlan, Service

    opts = _parse_options("trace", argv, {
        "out": "trace.json", "metrics-out": None, "frames": 64, "workers": 4,
        "drop-rate": 0.0, "mode": "symmetric", "tolerance": 0.25,
    })
    if opts is None:
        return 2
    config = _service_config(opts["mode"], opts["frames"], opts["workers"])
    plan = FaultPlan(seed=1, drop_rate=opts["drop-rate"])

    # Fresh registry + tracer + flight recorder for exactly this run; the
    # engines' spans resolve the globals at call time, so swap them in and
    # restore after.
    tracer = Tracer()
    recorder = FlightRecorder()
    previous_tracer = set_tracer(tracer)
    previous_registry = set_registry(MetricsRegistry())
    previous_recorder = set_flight_recorder(recorder)
    try:
        result = Service(config, plan).run()
    finally:
        registry = set_registry(previous_registry)
        set_tracer(previous_tracer)
        set_flight_recorder(previous_recorder)

    n_spans = write_chrome_trace(
        opts["out"], tracer, process_name="repro-service", counters=recorder
    )
    if opts["metrics-out"]:
        with open(opts["metrics-out"], "w") as fh:
            fh.write(prometheus_text(registry, recorder=recorder))

    spans = tracer.finished_spans()
    report = attribute(spans, tolerance=opts["tolerance"])
    print(f"traced service run ({config.mode}, {config.params.name}, "
          f"{config.workers_per_shard} workers): {len(result.frames)}/{opts['frames']} frames, "
          f"{result.frames_per_s:.1f} frames/s")
    print(f"  {n_spans} spans -> {opts['out']}  (open at https://ui.perfetto.dev)")
    if opts["metrics-out"]:
        print(f"  metrics -> {opts['metrics-out']} (Prometheus text)")
    print()
    print("cycle attribution (measured share vs accelerator-model share):")
    print(report.render())
    flagged = report.flagged()
    if flagged:
        print(f"\n  {len(flagged)} stage(s) diverge past {opts['tolerance']:.0%}: "
              + ", ".join(r.stage for r in flagged))
    faults = fault_medians(spans)
    if faults:
        print()
        print("minor page faults (median per span, on the span's own thread):")
        for name, median in faults.items():
            print(f"  {name:<24} {median:,.1f}")
    return 0


def health_main(argv) -> int:
    """Run a short probe workload and print/write the SLO health report."""
    import json

    from repro.obs import (
        FlightRecorder,
        MetricsRegistry,
        Tracer,
        evaluate_health,
        set_flight_recorder,
        set_registry,
        set_tracer,
    )
    from repro.service import FaultPlan, Service

    opts = _parse_options("health", argv, {
        "tenants": 2, "sessions-per-tenant": 2, "frames": 4, "drop-rate": 0.0,
        "mode": "symmetric", "json": False, "out": None,
    })
    if opts is None:
        return 2
    config = _service_config(
        opts["mode"], opts["frames"], workers=1, tenants=opts["tenants"],
        sessions=opts["sessions-per-tenant"], shards=2,
    )
    plan = FaultPlan(seed=1, drop_rate=opts["drop-rate"])

    # The probe owns its observability state end to end: fresh registry,
    # tracer, and flight recorder, restored whatever the run does.
    registry = MetricsRegistry()
    tracer = Tracer()
    recorder = FlightRecorder()
    previous_registry = set_registry(registry)
    previous_tracer = set_tracer(tracer)
    previous_recorder = set_flight_recorder(recorder)
    try:
        Service(config, plan, registry=registry, tracer=tracer).run()
    finally:
        set_registry(previous_registry)
        set_tracer(previous_tracer)
        set_flight_recorder(previous_recorder)

    report = evaluate_health(registry=registry, recorder=recorder)
    payload = report.to_dict()
    if opts["out"]:
        with open(opts["out"], "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if opts["json"]:
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
    return 0 if report.healthy else 1


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    from repro.eval import EXPERIMENTS

    if not argv or argv[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0

    command = argv[0]
    if command == "service":
        return service_main(argv[1:])
    if command == "trace":
        return trace_main(argv[1:])
    if command == "health":
        return health_main(argv[1:])
    if command == "perfgate":
        from repro.eval.perfgate import main as perfgate_main

        return perfgate_main(argv[1:])
    if command == "report":
        from repro.eval.report import main as report_main

        return report_main(argv[1:])
    if command == "all":
        for name in sorted(EXPERIMENTS):
            print(EXPERIMENTS[name]().render())
            print()
        return 0
    if command in EXPERIMENTS:
        print(EXPERIMENTS[command]().render())
        return 0
    print(f"unknown experiment {command!r}; try: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
