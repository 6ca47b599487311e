"""Tests for the tracing layer: spans, exporters, cycle attribution."""

import json
import mmap
import resource
import threading

import pytest

from repro.obs import (
    SpanContext,
    Tracer,
    chrome_trace,
    get_tracer,
    prometheus_text,
    set_tracer,
    write_chrome_trace,
)
from repro.obs.cycles import (
    CYCLES_ATTR,
    attribute,
    modeled_block_cycles,
    modeled_cycle_attributes,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FAULTS_ATTR, Span, counting_faults, fault_medians
from repro.pasta.params import PASTA_4, PASTA_TOY

PER_THREAD_FAULTS = hasattr(resource, "RUSAGE_THREAD")


def make_span(name, trace_id=1, span_id=2, parent_id=None, start=0.0, dur=1.0, **attrs):
    span = Span(name, trace_id, span_id, parent_id)
    span.start, span.end = start, start + dur
    span.attributes.update(attrs)
    return span


class TestTracer:
    def test_implicit_nesting_same_thread(self):
        tr = Tracer(record_metrics=False)
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None
        assert [s.name for s in tr.finished_spans()] == ["inner", "outer"]

    def test_sibling_roots_get_distinct_traces(self):
        tr = Tracer(record_metrics=False)
        with tr.span("a") as a:
            pass
        with tr.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_explicit_parent_across_threads(self):
        # The pipeline's pattern: capture SpanContext on the producer,
        # hand it through the job record, parent the worker span on it.
        tr = Tracer(record_metrics=False)
        handoff = {}

        def worker(ctx):
            with tr.span("worker.recover", parent=ctx) as span:
                handoff["span"] = span

        with tr.span("producer.encrypt") as enc:
            ctx = enc.context
        assert isinstance(ctx, SpanContext)
        t = threading.Thread(target=worker, args=(ctx,))
        t.start()
        t.join()
        recovered = handoff["span"]
        assert recovered.trace_id == enc.trace_id
        assert recovered.parent_id == enc.span_id
        assert recovered.thread_id != enc.thread_id

    def test_span_attributes_and_set_attribute(self):
        tr = Tracer(record_metrics=False)
        with tr.span("s", variant="pasta3", omega=17) as span:
            span.set_attribute("lanes", 128)
        assert span.attributes == {"variant": "pasta3", "omega": 17, "lanes": 128}

    def test_exception_marks_status_and_still_records(self):
        tr = Tracer(record_metrics=False)
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("nope")
        (span,) = tr.finished_spans()
        assert span.status == "error"
        assert span.duration >= 0.0

    def test_buffer_is_bounded(self):
        tr = Tracer(max_spans=4, record_metrics=False)
        for i in range(10):
            with tr.span(f"s{i}"):
                pass
        assert len(tr) == 4
        assert [s.name for s in tr.finished_spans()] == ["s6", "s7", "s8", "s9"]

    def test_span_feeds_duration_histogram(self):
        reg = MetricsRegistry()
        tr = Tracer(registry=reg)
        with tr.span("stage", metric="stage.seconds"):
            pass
        with tr.span("other"):
            pass
        assert reg.histogram("stage.seconds").count == 1
        assert reg.histogram("other").count == 1

    def test_per_span_registry_override(self):
        default, mine = MetricsRegistry(), MetricsRegistry()
        tr = Tracer(registry=default)
        with tr.span("stage", registry=mine):
            pass
        assert mine.histogram("stage").count == 1
        assert default.names() == []

    def test_drain_clears_buffer(self):
        tr = Tracer(record_metrics=False)
        with tr.span("s"):
            pass
        assert len(tr.drain()) == 1
        assert tr.finished_spans() == []

    def test_global_tracer_swap(self):
        mine = Tracer()
        previous = set_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            set_tracer(previous)

    def test_fixture_installs_fresh_tracer(self):
        # Autouse conftest fixture: no spans leak in from other tests.
        assert get_tracer().finished_spans() == []


class TestFaultCounting:
    @pytest.mark.skipif(not PER_THREAD_FAULTS, reason="no per-thread fault count")
    def test_span_counts_its_threads_faults(self):
        pages = 64
        with Tracer().span("touch") as span, counting_faults(span):
            with mmap.mmap(-1, pages * mmap.PAGESIZE) as fresh:
                for page in range(pages):
                    fresh[page * mmap.PAGESIZE] = 1
        assert span.attributes[FAULTS_ATTR] >= pages

    def test_unmeasured_platform_omits_the_attribute(self, monkeypatch):
        monkeypatch.setattr("repro.obs.trace.thread_minor_faults", lambda: None)
        with Tracer().span("touch") as span, counting_faults(span):
            pass
        assert FAULTS_ATTR not in span.attributes

    def test_medians_per_span_name(self):
        spans = [
            make_span("a", minor_faults=1),
            make_span("a", minor_faults=9),
            make_span("a", minor_faults=4),
            make_span("b", minor_faults=0),
            make_span("c"),
        ]
        assert fault_medians(spans) == {"a": 4, "b": 0}


class TestChromeTrace:
    def test_empty_trace_still_has_process_metadata(self):
        doc = chrome_trace([], process_name="p")
        assert doc["traceEvents"][0]["name"] == "process_name"
        assert doc["traceEvents"][0]["args"]["name"] == "p"

    def test_spans_become_complete_events(self):
        spans = [
            make_span("service.encrypt", span_id=2, start=10.0, dur=0.5, variant="pasta3"),
            make_span("pasta.keystream", span_id=3, parent_id=2, start=10.1, dur=0.25),
        ]
        doc = chrome_trace(spans)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 2
        encrypt, keystream = events
        # Timestamps are relative to the earliest start, in microseconds.
        assert encrypt["ts"] == pytest.approx(0.0)
        assert encrypt["dur"] == pytest.approx(0.5e6)
        assert keystream["ts"] == pytest.approx(0.1e6)
        assert encrypt["cat"] == "service"
        assert encrypt["args"]["variant"] == "pasta3"
        assert encrypt["args"]["span_id"] == 2
        assert keystream["args"]["parent_span_id"] == 2

    def test_thread_metadata_named_once_per_thread(self):
        spans = [make_span("a", span_id=2), make_span("b", span_id=3)]
        doc = chrome_trace(spans)
        thread_meta = [e for e in doc["traceEvents"] if e.get("name") == "thread_name"]
        assert len(thread_meta) == 1  # both spans on this thread

    def test_non_json_attributes_are_stringified(self):
        doc = chrome_trace([make_span("a", res=PASTA_TOY)])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert isinstance(event["args"]["res"], str)
        json.dumps(doc)  # the whole document must serialize

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        tr = Tracer(record_metrics=False)
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        out = tmp_path / "trace.json"
        n = write_chrome_trace(str(out), tr)
        assert n == 2
        doc = json.loads(out.read_text())
        assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} == {"outer", "inner"}


class TestPrometheusText:
    def test_counter_gauge_histogram_rendering(self):
        reg = MetricsRegistry()
        reg.counter("service.frames.sent", help="frames sent").inc(7)
        reg.gauge("service.uplink.depth").set(3)
        h = reg.histogram("stage.seconds", variant="pasta3")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        text = prometheus_text(reg)
        assert "# TYPE service_frames_sent_total counter" in text
        assert "service_frames_sent_total 7" in text
        assert "# HELP service_frames_sent_total frames sent" in text
        assert "service_uplink_depth 3.0" in text
        assert "service_uplink_depth_max 3.0" in text
        assert "# TYPE stage_seconds summary" in text
        assert 'stage_seconds{quantile="0.5",variant="pasta3"} 2.0' in text
        assert 'stage_seconds_sum{variant="pasta3"} 6.0' in text
        assert 'stage_seconds_count{variant="pasta3"} 3' in text

    def test_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("pasta.keystream.lanes").inc()
        text = prometheus_text(reg)
        assert "pasta_keystream_lanes_total 1" in text
        assert "pasta.keystream" not in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestCycleBridge:
    def test_modeled_block_cycles_cached_and_positive(self):
        first = modeled_block_cycles(PASTA_TOY)
        assert first > 0
        assert modeled_block_cycles(PASTA_TOY) == first  # memoized
        assert modeled_block_cycles(PASTA_4) > first  # t=32 costs more than t=4

    def test_modeled_cycle_attributes_scale_linearly(self):
        attrs = modeled_cycle_attributes(PASTA_TOY, 10)
        per_block = modeled_block_cycles(PASTA_TOY)
        assert attrs[CYCLES_ATTR] == 10 * per_block
        assert attrs["modeled_cycles_per_block"] == per_block
        assert attrs["modeled_blocks"] == 10


class TestAttribution:
    def _spans(self):
        # Two modeled stages (60/40 by cycles but 50/50 by time => the
        # second diverges by +10/-10 share points) plus one unmodeled
        # container span that must not dilute the shares.
        return [
            make_span("stage.a", span_id=2, dur=1.0, **{CYCLES_ATTR: 600_000}),
            make_span("stage.b", span_id=3, dur=1.0, **{CYCLES_ATTR: 400_000}),
            make_span("container", span_id=4, dur=2.5),
        ]

    def test_shares_computed_over_modeled_stages_only(self):
        report = attribute(self._spans(), tolerance=0.25)
        rows = {r.stage: r for r in report.rows}
        assert rows["stage.a"].measured_share == pytest.approx(0.5)
        assert rows["stage.a"].modeled_share == pytest.approx(0.6)
        assert rows["stage.b"].divergence == pytest.approx(0.1)
        assert rows["container"].modeled_cycles is None
        assert rows["container"].measured_share is None
        assert rows["stage.a"].implied_mhz == pytest.approx(0.6)  # 600k cc / 1e6 us

    def test_divergence_flagging_respects_tolerance(self):
        assert attribute(self._spans(), tolerance=0.25).flagged() == []
        flagged = attribute(self._spans(), tolerance=0.05).flagged()
        assert sorted(r.stage for r in flagged) == ["stage.a", "stage.b"]

    def test_spans_aggregate_by_stage_name(self):
        spans = [
            make_span("stage.a", span_id=2, dur=1.0, **{CYCLES_ATTR: 100}),
            make_span("stage.a", span_id=3, dur=2.0, **{CYCLES_ATTR: 300}),
        ]
        (row,) = attribute(spans).rows
        assert row.spans == 2
        assert row.measured_seconds == pytest.approx(3.0)
        assert row.modeled_cycles == 400

    def test_render_and_to_dict_cover_every_stage(self):
        report = attribute(self._spans(), tolerance=0.05)
        text = report.render()
        for stage in ("stage.a", "stage.b", "container"):
            assert stage in text
        assert "DIVERGES" in text
        payload = report.to_dict()
        assert payload["tolerance"] == 0.05
        assert sum(1 for s in payload["stages"] if s["flagged"]) == 2
        json.dumps(payload)  # JSON-able for BENCH-style dumps

    def test_empty_span_list(self):
        report = attribute([])
        assert report.rows == []
        assert report.flagged() == []
        assert "stage" in report.render()  # header still renders
