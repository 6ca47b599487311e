"""Streaming transciphering service: pipelined HHE with faults and retries.

One service loop (:class:`Service`, in :mod:`repro.service.pipeline`)
serves every configuration: a single camera stream is one tenant with one
session on one shard, and a fleet is more tenants, sessions and shards.
:mod:`repro.service.tenants` holds the tenancy pieces the loop drives
(tenant keys, shard routing, admission control) and
:mod:`repro.service.faults` the deterministic uplink fault model.
"""

from repro.service.faults import (
    NO_FAULTS,
    FaultAction,
    FaultPlan,
    checksum,
    corrupt_payload,
)
from repro.service.pipeline import (
    HheRecovery,
    RecoveredFrame,
    Service,
    ServiceConfig,
    ServiceResult,
    WireFrame,
    backoff_jitter_fraction,
    pack_frames,
    unpack_frames,
)
from repro.service.tenants import (
    TILE8,
    TILE16,
    AdmissionController,
    ShardRouter,
    TenantSpec,
    derive_tenant_key,
)

__all__ = [
    "AdmissionController",
    "FaultAction",
    "FaultPlan",
    "HheRecovery",
    "NO_FAULTS",
    "RecoveredFrame",
    "Service",
    "ServiceConfig",
    "ServiceResult",
    "ShardRouter",
    "TILE16",
    "TILE8",
    "TenantSpec",
    "WireFrame",
    "backoff_jitter_fraction",
    "checksum",
    "corrupt_payload",
    "derive_tenant_key",
    "pack_frames",
    "unpack_frames",
]
