"""Observability package: metrics, hierarchical tracing, exporters, cycles.

Grown from the original single-module metrics layer into four pieces:

* :mod:`repro.obs.metrics` — thread-safe counters / gauges / reservoir
  histograms with label support, behind a process-wide registry.
* :mod:`repro.obs.trace` — hierarchical spans with explicit trace-context
  propagation across the service pipeline's thread boundaries, recorded
  into a bounded in-memory buffer.
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON and
  Prometheus text exposition.
* :mod:`repro.obs.cycles` — the bridge from measured span time to the
  accelerator model's predicted cycle budgets (not imported here; it
  pulls in :mod:`repro.hw` on its first cycle simulation).
* :mod:`repro.obs.noise` — the closed-form BFV noise ledger: per-op
  growth rules bounding invariant noise without the secret key, plus the
  measured-vs-modeled divergence report.
* :mod:`repro.obs.health` — the bounded flight recorder (structured
  incident ring + counter-track time series) and per-tenant SLO windows
  feeding ``python -m repro health``.

The original ``from repro.obs import MetricsRegistry, get_registry, ...``
surface is unchanged; tracing additions are exported alongside it.
"""

from repro.obs.metrics import (
    DEFAULT_RESERVOIR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    set_registry,
)
from repro.obs.trace import (
    Span,
    SpanContext,
    Tracer,
    get_tracer,
    set_tracer,
)
from repro.obs.export import chrome_trace, prometheus_text, write_chrome_trace
from repro.obs.noise import NoiseEstimate, NoiseModel, NoiseReport, divergence_report
from repro.obs.health import (
    FlightRecorder,
    HealthEvent,
    HealthReport,
    SloPolicy,
    evaluate_health,
    get_flight_recorder,
    record_headroom,
    set_flight_recorder,
)

__all__ = [
    "DEFAULT_RESERVOIR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "metric_key",
    "Span",
    "SpanContext",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "chrome_trace",
    "prometheus_text",
    "write_chrome_trace",
    "NoiseEstimate",
    "NoiseModel",
    "NoiseReport",
    "divergence_report",
    "FlightRecorder",
    "HealthEvent",
    "HealthReport",
    "SloPolicy",
    "evaluate_health",
    "get_flight_recorder",
    "record_headroom",
    "set_flight_recorder",
]
