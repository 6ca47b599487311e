"""Tests for the streaming transciphering service loop (repro.service).

Most tests run the single camera stream: one tenant, one session, one
shard. The property test at the end runs small fleets through the same
loop.

The fault tests lean on two determinism guarantees: synthetic frame
content is a pure function of (resolution, frame_id), and the fault plan
is a pure function of (frame_id, attempt). Recovered output must therefore
be bit-exact with a no-fault run regardless of thread interleaving.
"""

import struct
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.video import Resolution, synthetic_frame
from repro.errors import ParameterError, ServiceError
from repro.keccak.shake import shake128
from repro.obs import MetricsRegistry, get_flight_recorder, get_registry, get_tracer
from repro.pasta.params import PASTA_MICRO, PASTA_TOY
from repro.service import (
    NO_FAULTS,
    FaultAction,
    FaultPlan,
    Service,
    ServiceConfig,
    ShardRouter,
    TILE8,
    TILE16,
    TenantSpec,
    WireFrame,
    backoff_jitter_fraction,
    checksum,
    corrupt_payload,
)
from repro.service.pipeline import BACKOFF_JITTER_DOMAIN

# The conftest autouse fixture installs a fresh default registry and
# tracer per test, so the service (and these tests) just use the
# globals — no per-test registry plumbing or resets needed.

TENANT = "camera"


def stream_config(n_frames=24, ladder=(TILE8,), **overrides):
    """One camera stream: one tenant, one session, one shard."""
    defaults = dict(
        tenants=(TenantSpec(TENANT, frames_per_session=n_frames, ladder=ladder),),
        workers_per_shard=4,
        batch_frames=8,
        timeout_seconds=0.002,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.01,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_pipeline(plan=NO_FAULTS, **overrides):
    return Service(stream_config(**overrides), plan).run()


def counter(name):
    return get_registry().counter(name, tenant=TENANT).value


def expected_pixels(frame):
    return bytes(synthetic_frame(frame.resolution, frame.frame_id))


def poison_first_transmission(monkeypatch, frame_id):
    """Make frame ``frame_id``'s first transmission carry p as its first
    element, under a CRC recomputed over the poisoned payload."""
    encrypt = Service._encrypt

    def poisoned(self, tenant_id, jobs, elements_of):
        wires = encrypt(self, tenant_id, jobs, elements_of)
        for i, wire in enumerate(wires):
            if wire.frame_id == frame_id and wire.attempt == 0:
                payload = struct.pack("<I", self.config.params.p) + wire.payload[4:]
                wires[i] = replace(wire, payload=payload, crc=checksum(payload))
        return wires

    monkeypatch.setattr(Service, "_encrypt", poisoned)


def wire_carrying(payload):
    """A first transmission of frame 0 with ``payload`` under a valid CRC."""
    return WireFrame(
        frame_id=0, tenant=TENANT, session=0, attempt=0, nonce=0,
        resolution=TILE8, payload=payload, crc=checksum(payload),
    )


def assert_one_poisoned_retry(result, frame_id):
    """The poisoned frame was quarantined once, retried, and every frame
    came back bit-exact."""
    assert counter("service.frames.poisoned") == 1
    events = get_flight_recorder().events("poisoned_frame")
    assert [(e.tenant, e.attributes["frame_id"]) for e in events] == [(TENANT, frame_id)]
    assert result.attempts[frame_id] == 2
    for frame in result.frames:
        assert frame.pixels == expected_pixels(frame)


class TestFaultPlan:
    def test_deterministic_verdicts(self):
        plan = FaultPlan(seed=3, drop_rate=0.2, corrupt_rate=0.1)
        verdicts = [plan.action(fid, a) for fid in range(50) for a in range(3)]
        assert verdicts == [plan.action(fid, a) for fid in range(50) for a in range(3)]
        assert FaultAction.DROP in verdicts  # rates actually bite

    def test_attempts_draw_independently(self):
        plan = FaultPlan(seed=1, drop_rate=0.5)
        actions = {plan.action(0, a) for a in range(32)}
        assert actions == {FaultAction.DROP, FaultAction.DELIVER}

    def test_explicit_schedule_overrides_rates(self):
        plan = FaultPlan(drop_at=frozenset({(4, 0)}), corrupt_at=frozenset({(5, 1)}))
        assert plan.action(4, 0) is FaultAction.DROP
        assert plan.action(4, 1) is FaultAction.DELIVER
        assert plan.action(5, 1) is FaultAction.CORRUPT

    def test_invalid_rates_rejected(self):
        with pytest.raises(ParameterError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ParameterError):
            FaultPlan(drop_rate=0.6, corrupt_rate=0.6)

    def test_corrupt_payload_flips_exactly_one_bit(self):
        payload = bytes(range(64))
        mangled = corrupt_payload(payload, 7, 0)
        diff = [a ^ b for a, b in zip(payload, mangled)]
        assert sum(bin(d).count("1") for d in diff) == 1
        assert checksum(mangled) != checksum(payload)


class TestOneShotDraws:
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**64 - 1),
        st.text(max_size=12),
        st.integers(0, 2**64 - 1),
        st.integers(1, 9),
        st.binary(min_size=1, max_size=40),
    )
    def test_match_scalar_shake128(
        self, seed, frame_id, attempt, tenant, session, n_shards, payload
    ):
        """Fault verdicts, bit flips, jitter and routing: the scalar sponge's draws."""

        def scalar(msg: bytes) -> int:
            return int.from_bytes(shake128(msg).read(8), "big")

        pair = struct.pack(">QQ", frame_id, attempt)
        u = scalar(b"uplink-fault|" + struct.pack(">Q", seed) + pair) / 2**64
        assert FaultPlan(seed=seed)._uniform(frame_id, attempt) == u
        bit = scalar(b"uplink-bitflip|" + pair) % (len(payload) * 8)
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert corrupt_payload(payload, frame_id, attempt) == bytes(flipped)
        jitter = scalar(BACKOFF_JITTER_DOMAIN + pair) / 2**64
        assert backoff_jitter_fraction(frame_id, attempt) == jitter
        shard = scalar(
            b"service-v1-shard|" + struct.pack(">Q", seed) + tenant.encode()
            + struct.pack(">Q", session)
        ) % n_shards
        assert ShardRouter(n_shards, seed).shard_of(tenant, session) == shard


class TestCleanRun:
    def test_all_frames_recovered_in_order(self):
        result = run_pipeline()
        assert [f.frame_id for f in result.frames] == list(range(24))
        for frame in result.frames:
            assert frame.pixels == expected_pixels(frame)
        assert all(n == 1 for n in result.attempts.values())

    def test_nonces_unique_across_frames(self):
        result = run_pipeline()
        drawn = [n for ns in result.nonces.values() for n in ns]
        assert len(drawn) == len(set(drawn)) == 24

    def test_metrics_cover_stages(self):
        result = run_pipeline()
        snap = result.metrics
        for stage in ("service.synthesize.seconds", "service.encrypt.seconds",
                      "service.recover.seconds",
                      f'service.tenant.frame_latency.seconds{{tenant="{TENANT}"}}',
                      'service.worker.idle.seconds{shard="0"}'):
            assert snap[stage]["count"] > 0, stage
        assert snap[f'service.frames.recovered{{tenant="{TENANT}"}}']["value"] == 24

    def test_uplink_depth_balances_to_zero(self):
        run_pipeline()
        depth = get_registry().gauge("service.uplink.depth", shard=0)
        # Every producer-side put was matched by a worker-side drain, and
        # the queue genuinely held frames at some point.
        assert depth.value == 0
        assert depth.max >= 1

    def test_zero_frames(self):
        result = run_pipeline(n_frames=0)
        assert result.frames == []


class TestFaultRecovery:
    def test_scheduled_drops_recover_bit_exact(self):
        baseline = run_pipeline()
        plan = FaultPlan(drop_at=frozenset({(2, 0), (2, 1), (9, 0), (17, 0)}))
        result = run_pipeline(plan)
        assert [f.pixels for f in result.frames] == [f.pixels for f in baseline.frames]
        assert result.attempts[2] == 3  # two drops then success
        assert result.attempts[9] == 2
        assert result.attempts[17] == 2
        assert result.attempts[0] == 1

    def test_retry_never_reuses_a_nonce(self):
        plan = FaultPlan(
            drop_at=frozenset({(3, 0)}),
            corrupt_at=frozenset({(7, 0), (7, 1)}),
        )
        result = run_pipeline(plan)
        for frame_id, nonces in result.nonces.items():
            assert len(nonces) == result.attempts[frame_id]
            assert len(nonces) == len(set(nonces)), f"frame {frame_id} reused a nonce"
        all_nonces = [n for ns in result.nonces.values() for n in ns]
        assert len(all_nonces) == len(set(all_nonces))
        assert result.attempts[7] == 3

    def test_corruption_detected_and_retried(self):
        plan = FaultPlan(corrupt_at=frozenset({(1, 0), (12, 0)}))
        result = run_pipeline(plan)
        assert counter("service.crc.rejected") == 2
        for frame in result.frames:
            assert frame.pixels == expected_pixels(frame)

    def test_random_rates_zero_loss(self):
        plan = FaultPlan(seed=11, drop_rate=0.10, corrupt_rate=0.05)
        result = run_pipeline(plan, n_frames=32)
        assert len(result.frames) == 32
        for frame in result.frames:
            assert frame.pixels == expected_pixels(frame)

    def test_late_delivery_is_deduplicated(self):
        plan = FaultPlan(delay_at=frozenset({(5, 0)}), delay_seconds=0.02)
        result = run_pipeline(plan, timeout_seconds=0.002)
        assert len(result.frames) == 24
        # the delayed original AND its retransmit both arrive; one is dropped
        assert counter("service.frames.duplicate") + counter("service.frames.recovered") >= 25

    def test_poisoned_wire_quarantined_and_retried(self, monkeypatch):
        """A CRC-valid element >= p is rejected at decode, not reduced mod p
        and delivered as wrong pixels."""
        poison_first_transmission(monkeypatch, frame_id=3)
        result = run_pipeline(n_frames=8)
        assert len(result.frames) == 8
        assert_one_poisoned_retry(result, frame_id=3)

    def test_decode_rejects_ragged_payload(self):
        service = Service(stream_config(n_frames=1))
        payload = struct.pack("<I", 1) + b"\x00"
        with pytest.raises(ParameterError, match="<u4"):
            service._decode(wire_carrying(payload))
        assert list(service._decode(wire_carrying(payload[:4]))) == [1]

    def test_retries_exhausted_raises(self):
        plan = FaultPlan(drop_at=frozenset({(0, a) for a in range(10)}))
        config = stream_config(
            n_frames=2,
            max_retries=3,
            timeout_seconds=0.001,
            backoff_base_seconds=0.0005,
            backoff_max_seconds=0.002,
        )
        with pytest.raises(ServiceError):
            Service(config, plan).run()


class TestBackpressureDegradation:
    def test_saturation_triggers_exactly_one_downshift(self):
        gate = threading.Event()  # workers held until we release them
        config = stream_config(
            ladder=(TILE16, TILE8),
            workers_per_shard=2,
            batch_frames=4,
            queue_capacity=2,
            put_timeout=0.01,
        )
        service = Service(config, NO_FAULTS, worker_gate=gate)
        runner = threading.Thread(target=lambda: setattr(service, "_test_result", service.run()))
        runner.start()
        # Wait until the producer has actually hit a full queue.
        for _ in range(400):
            if counter("service.shed.frames") >= 1:
                break
            threading.Event().wait(0.005)
        gate.set()
        runner.join(timeout=60)
        assert not runner.is_alive()
        result = service._test_result
        assert counter("service.shed.frames") >= 1
        # One continuous saturation episode => exactly one ladder step.
        assert result.degradation_steps == 1
        assert len(result.frames) == 24
        resolutions = {f.resolution.name for f in result.frames}
        assert "TILE8" in resolutions  # later frames downshifted
        for frame in result.frames:
            assert frame.pixels == expected_pixels(frame)

    def test_no_downshift_without_ladder(self):
        result = run_pipeline(queue_capacity=1, put_timeout=0.001)
        assert result.degradation_steps == 0
        assert len(result.frames) == 24


@pytest.mark.slow
class TestHheMode:
    def test_hhe_smoke_bit_exact(self):
        # 4x4 tile -> 8 elements -> 4 full PASTA_MICRO blocks per frame.
        tile = Resolution("TILE4", 4, 4)
        plan = FaultPlan(drop_at=frozenset({(1, 0)}))
        config = stream_config(
            n_frames=3,
            ladder=(tile,),
            params=PASTA_MICRO,
            workers_per_shard=1,
            batch_frames=3,
            worker_batch=3,
            mode="hhe",
        )
        service = Service(config, plan)
        result = service.run()
        assert len(result.frames) == 3
        for frame in result.frames:
            assert frame.pixels == expected_pixels(frame)
        assert result.attempts[1] == 2

    def test_hhe_poisoned_wire_quarantined_and_retried(self, monkeypatch):
        """An element >= p is quarantined before it reaches the transcipher,
        which would refuse it and stop the run; so is a partial block."""
        poison_first_transmission(monkeypatch, frame_id=1)
        config = stream_config(
            n_frames=3,
            ladder=(Resolution("TILE4", 4, 4),),
            params=PASTA_MICRO,
            workers_per_shard=1,
            batch_frames=3,
            worker_batch=3,
            mode="hhe",
        )
        service = Service(config)
        result = service.run()
        assert len(result.frames) == 3
        assert_one_poisoned_retry(result, frame_id=1)
        with pytest.raises(ParameterError, match="2-element blocks"):
            service._decode(wire_carrying(struct.pack("<3I", 1, 2, 3)))


class TestTracePropagation:
    """Spans nest within the producer thread and join across thread hops."""

    def test_producer_spans_nest_run_to_keystream(self):
        run_pipeline()
        tracer = get_tracer()
        by_id = {s.span_id: s for s in tracer.finished_spans()}

        (run,) = tracer.spans_named("service.run")
        assert run.parent_id is None
        assert run.attributes["variant"] == PASTA_TOY.name
        assert run.attributes["omega"] == PASTA_TOY.modulus_bits
        assert run.attributes["frames"] == 24

        batches = tracer.spans_named("service.produce.batch")
        assert batches
        assert all(b.parent_id == run.span_id for b in batches)
        assert all(b.trace_id == run.trace_id for b in batches)

        encrypts = tracer.spans_named("service.encrypt")
        assert encrypts
        for enc in encrypts:
            assert by_id[enc.parent_id].name == "service.produce.batch"
            assert enc.attributes["lanes"] > 0

        # The keystream engine is three frames down the call stack; its
        # span still lands under the enclosing stage via the context
        # variable. Both the producer (encrypt) and the workers (recover,
        # which regenerates the keystream) drive the engine.
        keystreams = tracer.spans_named("pasta.keystream")
        assert keystreams
        parents = {by_id[ks.parent_id].name for ks in keystreams}
        assert parents == {"service.encrypt", "service.recover"}
        assert all(ks.trace_id == run.trace_id for ks in keystreams)

    def test_keystream_spans_carry_modeled_cycles(self):
        run_pipeline()
        for ks in get_tracer().spans_named("pasta.keystream"):
            attrs = ks.attributes
            assert attrs["variant"] == PASTA_TOY.name
            assert attrs["omega"] == PASTA_TOY.modulus_bits
            assert attrs["modeled_cycles"] == (
                attrs["modeled_cycles_per_block"] * attrs["modeled_blocks"]
            )
            assert attrs["modeled_blocks"] == attrs["lanes"]
            assert attrs["modeled_cycles_per_block"] > 0

    def test_recover_spans_join_producer_trace_across_threads(self):
        run_pipeline()
        tracer = get_tracer()
        (run,) = tracer.spans_named("service.run")
        encrypt_ids = {s.span_id for s in tracer.spans_named("service.encrypt")}
        recovers = tracer.spans_named("service.recover")
        assert recovers
        for rec in recovers:
            # Explicitly parented via the SpanContext carried in WireFrame:
            # same trace as the producer, even though the span was recorded
            # on a worker thread where the context variable is empty.
            assert rec.trace_id == run.trace_id
            assert rec.parent_id in encrypt_ids
            assert rec.thread_id != run.thread_id
            assert rec.thread_name.startswith("service-worker")
            assert rec.attributes["frames"] >= 1
            assert rec.attributes["source_traces"] >= 1


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            ServiceConfig(mode="quantum")

    def test_bad_counts(self):
        with pytest.raises(ParameterError):
            ServiceConfig(workers_per_shard=0)
        with pytest.raises(ParameterError):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ParameterError):
            ServiceConfig(n_shards=0)


class TestBackoffJitter:
    """The retry-storm fix: deterministic SHAKE jitter on the backoff.

    Without jitter, every frame dropped in one batch retried at the
    identical instant (the exponential delay depends only on the attempt
    number) — a synchronized storm against the uplink queue. The jitter
    must spread co-dropped frames apart while staying a pure function of
    ``(frame_id, attempt)`` so runs remain reproducible.
    """

    def _pipeline(self, **overrides):
        defaults = dict(n_frames=4, backoff_base_seconds=0.004, backoff_max_seconds=0.04)
        defaults.update(overrides)
        return Service(stream_config(**defaults))

    def test_co_dropped_frames_get_distinct_ready_times(self):
        # Frames dropped in the same batch share the attempt number; the
        # frame-id keyed jitter must still separate their retry instants.
        pipeline = self._pipeline()
        delays = [pipeline._backoff(frame_id, attempt=1) for frame_id in range(16)]
        assert len(set(delays)) == len(delays), "thundering herd: identical retry delays"
        base = pipeline.config.backoff_base_seconds
        jitter = pipeline.config.backoff_jitter
        for delay in delays:
            assert base <= delay <= base * (1.0 + jitter)

    def test_jitter_is_reproducible_across_pipelines(self):
        first = self._pipeline()
        second = self._pipeline()
        pairs = [(fid, a) for fid in range(8) for a in range(1, 4)]
        assert [first._backoff(f, a) for f, a in pairs] == [
            second._backoff(f, a) for f, a in pairs
        ]

    def test_zero_jitter_restores_pure_exponential(self):
        pipeline = self._pipeline(backoff_jitter=0.0)
        assert pipeline._backoff(0, 1) == pipeline._backoff(1, 1)
        assert pipeline._backoff(5, 1) == pipeline.config.backoff_base_seconds

    def test_backoff_still_bounded_with_jitter(self):
        pipeline = self._pipeline()
        cap = pipeline.config.backoff_max_seconds
        jitter = pipeline.config.backoff_jitter
        for attempt in range(1, 12):
            assert pipeline._backoff(3, attempt) <= cap * (1.0 + jitter)

    def test_jitter_fraction_uniform_range(self):
        from repro.service import backoff_jitter_fraction

        draws = [backoff_jitter_fraction(fid, 1) for fid in range(256)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert len(set(draws)) == len(draws)
        # Deterministic: the same (frame, attempt) always draws the same u.
        assert draws == [backoff_jitter_fraction(fid, 1) for fid in range(256)]

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ParameterError):
            ServiceConfig(backoff_jitter=1.5)
        with pytest.raises(ParameterError):
            ServiceConfig(backoff_jitter=-0.1)

    def test_faulted_run_still_bit_exact_with_jitter(self):
        plan = FaultPlan(seed=9, drop_rate=0.2)
        result = run_pipeline(plan, n_frames=16)
        assert len(result.frames) == 16
        for frame in result.frames:
            assert frame.pixels == expected_pixels(frame)


class TestServiceProperties:
    """Any small fleet on a faulty uplink: the loop's end-to-end contract."""

    @settings(max_examples=8, deadline=None)
    @given(
        tenants=st.integers(1, 3),
        sessions=st.integers(1, 3),
        shards=st.integers(1, 2),
        workers=st.integers(1, 2),
        drop_rate=st.floats(0.0, 0.2),
        corrupt_rate=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**16),
    )
    def test_lossless_bit_exact_and_nonce_fresh(
        self, tenants, sessions, shards, workers, drop_rate, corrupt_rate, seed
    ):
        frames_per_session = 3
        config = ServiceConfig(
            tenants=tuple(
                TenantSpec(f"t{i}", sessions=sessions, frames_per_session=frames_per_session)
                for i in range(tenants)
            ),
            n_shards=shards,
            workers_per_shard=workers,
            batch_frames=8,
            worker_batch=4,
            timeout_seconds=0.002,
            # Up to 40% of attempts fault: 16 retries keep a frame's chance
            # of exhausting them below 1e-6.
            max_retries=16,
            backoff_base_seconds=0.001,
            backoff_max_seconds=0.01,
        )
        registry = MetricsRegistry()
        plan = FaultPlan(seed=seed, drop_rate=drop_rate, corrupt_rate=corrupt_rate)
        result = Service(config, plan, registry=registry).run()

        assert len(result.frames) == tenants * sessions * frames_per_session
        for frame in result.frames:
            assert frame.pixels == expected_pixels(frame)
        tenant_of = {frame.frame_id: frame.tenant for frame in result.frames}
        used = [(tenant_of[uid], n) for uid, nonces in result.nonces.items() for n in nonces]
        assert len(used) == len(set(used)), "a (tenant, nonce) pair was reused"
        depths = registry.collect("service.uplink.depth")
        assert depths and all(gauge.value == 0 for gauge in depths)
