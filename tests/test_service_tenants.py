"""Tests for the service's tenancy (repro.service.tenants) and fleet runs.

The isolation claims under test:

* **Key/keystream isolation** — distinct tenants derive distinct keys and
  never share keystream (hypothesis-driven).
* **Routing determinism** — session -> shard placement is a pure function
  of (seed, tenant, session).
* **Admission control** — at most ``max_active`` sessions in flight;
  excess defers, never rejects.
* **End to end** — frames across tenants/shards/faults come back
  bit-exact with zero loss, on the same loop as the single stream.
"""

import pytest
from hypothesis import given, strategies as st

from repro.apps.video import synthetic_frame
from repro.errors import ParameterError, ServiceError
from repro.obs import evaluate_health
from repro.pasta.batch import KeystreamEngine
from repro.pasta.params import PASTA_MICRO, PASTA_TOY
from repro.service import FaultPlan, Service, ServiceConfig, TenantSpec
from repro.service.tenants import AdmissionController, ShardRouter, derive_tenant_key


def run_service(tenants, plan=None, **overrides):
    defaults = dict(
        tenants=tenants,
        params=PASTA_TOY,
        n_shards=2,
        workers_per_shard=1,
        batch_frames=8,
        worker_batch=8,
        timeout_seconds=0.002,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.01,
    )
    defaults.update(overrides)
    service = Service(ServiceConfig(**defaults), plan or FaultPlan())
    return service, service.run()


def assert_bit_exact(result):
    for frame in result.frames:
        assert frame.pixels == bytes(synthetic_frame(frame.resolution, frame.frame_id))


class TestTenantKeyIsolation:
    @given(
        ids=st.lists(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=16
            ),
            min_size=2,
            max_size=5,
            unique=True,
        )
    )
    def test_distinct_tenants_distinct_keys_and_keystreams(self, ids):
        """Two tenants with different ids never share key or keystream."""
        keys = {tid: derive_tenant_key(PASTA_TOY, tid) for tid in ids}
        engine = KeystreamEngine(PASTA_TOY, cache_size=0)
        streams = {
            tid: engine.keystream_pairs(key, [(0, 0), (0, 1)]).tolist()
            for tid, key in keys.items()
        }
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                assert keys[a].tolist() != keys[b].tolist()
                assert streams[a] != streams[b]

    def test_key_derivation_is_deterministic_and_seed_separated(self):
        assert (
            derive_tenant_key(PASTA_TOY, "alice").tolist()
            == derive_tenant_key(PASTA_TOY, "alice").tolist()
        )
        assert (
            derive_tenant_key(PASTA_TOY, "alice", b"deploy-2").tolist()
            != derive_tenant_key(PASTA_TOY, "alice").tolist()
        )
        # No concatenation ambiguity: ("ab", "c"-seed) != ("a", "bc"-ish).
        assert (
            derive_tenant_key(PASTA_TOY, "ab").tolist()
            != derive_tenant_key(PASTA_TOY, "a").tolist()
        )


class TestShardRouter:
    def test_deterministic_and_seed_dependent(self):
        router = ShardRouter(4, seed=7)
        again = ShardRouter(4, seed=7)
        other = ShardRouter(4, seed=8)
        placements = [router.shard_of(f"t{i}", s) for i in range(8) for s in range(8)]
        assert placements == [again.shard_of(f"t{i}", s) for i in range(8) for s in range(8)]
        assert placements != [other.shard_of(f"t{i}", s) for i in range(8) for s in range(8)]

    def test_spreads_sessions_across_shards(self):
        router = ShardRouter(4)
        hit = {router.shard_of("tenant", s) for s in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_range_and_validation(self):
        router = ShardRouter(3)
        assert all(0 <= router.shard_of("x", s) < 3 for s in range(100))
        with pytest.raises(ParameterError):
            ShardRouter(0)


class TestAdmissionControl:
    def test_caps_active_and_counts_deferrals(self):
        ctl = AdmissionController(2)
        assert ctl.try_admit() and ctl.try_admit()
        assert not ctl.try_admit()
        assert ctl.deferred == 1
        ctl.release()
        assert ctl.try_admit()
        assert ctl.active == 2

    def test_release_without_admit_raises(self):
        ctl = AdmissionController(1)
        with pytest.raises(ServiceError):
            ctl.release()

    def test_service_defers_but_completes_all_sessions(self):
        tenants = (
            TenantSpec("a", sessions=6, frames_per_session=2),
            TenantSpec("b", sessions=6, frames_per_session=2),
        )
        service, result = run_service(tenants, max_active_sessions=3)
        assert len(result.frames) == 24
        assert result.admission_deferred > 0
        assert service.admission.active == 0  # every admit was released


class TestEndToEnd:
    def test_multi_tenant_run_is_bit_exact_under_faults(self):
        tenants = (
            TenantSpec("alpha", sessions=4, frames_per_session=4),
            TenantSpec("beta", sessions=4, frames_per_session=4),
            TenantSpec("gamma", sessions=4, frames_per_session=4),
        )
        plan = FaultPlan(seed=5, drop_rate=0.1, corrupt_rate=0.05)
        _, result = run_service(tenants, plan)
        assert len(result.frames) == 48
        assert_bit_exact(result)
        # Per-tenant latency is labeled and populated for every tenant.
        for spec in tenants:
            assert result.tenant_latency[spec.tenant_id]["count"] == 16

    def test_nonces_unique_per_tenant_across_sessions(self):
        tenants = (
            TenantSpec("a", sessions=3, frames_per_session=3),
            TenantSpec("b", sessions=3, frames_per_session=3),
        )
        plan = FaultPlan(seed=2, drop_rate=0.15)
        _, result = run_service(tenants, plan)
        by_tenant = {}
        for frame in result.frames:
            by_tenant.setdefault(frame.tenant, []).extend(result.nonces[frame.frame_id])
        assert set(by_tenant) == {"a", "b"}
        for tenant_id, nonces in by_tenant.items():
            assert len(nonces) == len(set(nonces)), f"nonce reuse under tenant {tenant_id}"

    def test_hhe_mode_smoke(self):
        tenants = (
            TenantSpec("a", sessions=1, frames_per_session=2),
            TenantSpec("b", sessions=1, frames_per_session=2),
        )
        service, result = run_service(
            tenants, params=PASTA_MICRO, mode="hhe", n_shards=1
        )
        assert {server.server.eval_engine for server in service.hhe.values()} == {"bsgs"}
        assert len(result.frames) == 4
        assert_bit_exact(result)
        prepared = service.prepared_budget.snapshot()
        assert prepared["total"] <= prepared["capacity"]
        assert set(prepared["owners"]) == {"a", "b"}
        # The BFV modulus leaves BSGS a non-negative modeled noise headroom.
        assert evaluate_health().healthy

    def test_load_shedding_defers_without_loss(self):
        # A tiny shard queue + slow drain forces sheds; frames still land.
        tenants = (TenantSpec("a", sessions=4, frames_per_session=4),)
        _, result = run_service(
            tenants,
            n_shards=1,
            queue_capacity=2,
            batch_frames=16,
            worker_batch=1,
            put_timeout=0.001,
        )
        assert len(result.frames) == 16

    def test_config_validation(self):
        spec = TenantSpec("a")
        with pytest.raises(ParameterError):
            ServiceConfig(tenants=())
        with pytest.raises(ParameterError):
            ServiceConfig(tenants=(spec, TenantSpec("a")))  # duplicate id
        with pytest.raises(ParameterError):
            TenantSpec("")
        with pytest.raises(ParameterError):
            TenantSpec("x", sessions=0)
        with pytest.raises(ParameterError):
            TenantSpec("x", ladder=())
