"""Tenancy pieces of the streaming service: who sends what, and where it lands.

None of these run a loop; :class:`~repro.service.pipeline.Service` drives
them. Many **tenants** (edge fleets, each with its own PASTA key) open
**sessions** (streams of frames); a single camera stream is one tenant
with one session.

* **Tenant keys.** :func:`derive_tenant_key` is domain-separated from the
  tenant id, so two tenants never share key material.
* **Shard router.** ``shard_of(tenant, session)`` is a SHAKE hash onto one
  of ``n_shards`` uplink queues, so a session's frames always land on the
  same shard and placement is reproducible.
* **Admission control.** At most ``max_active`` sessions are in flight;
  later sessions wait and are admitted as slots free (deferred, never
  rejected: the service is closed-loop).
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.apps.video import Resolution
from repro.errors import ParameterError, ServiceError
from repro.keccak.shake import shake128
from repro.obs import MetricsRegistry, get_registry
from repro.pasta.cipher import random_key
from repro.pasta.params import PastaParams

__all__ = [
    "TILE8",
    "TILE16",
    "TENANT_KEY_DOMAIN",
    "TenantSpec",
    "ShardRouter",
    "AdmissionController",
    "derive_tenant_key",
]

#: Camera tiles the toy-parameter service streams (a full frame is shipped
#: as independent tiles; degradation drops to the smaller tile).
TILE16 = Resolution("TILE16", 16, 16)
TILE8 = Resolution("TILE8", 8, 8)

#: Domain separation for per-tenant PASTA keys: two tenants (or the same
#: tenant id under different deployment seeds) never share key material.
TENANT_KEY_DOMAIN = b"service-v1-tenant-key|"


def derive_tenant_key(params: PastaParams, tenant_id: str, seed: bytes = b"") -> np.ndarray:
    """The tenant's PASTA key schedule, domain-separated from its id."""
    return random_key(params, TENANT_KEY_DOMAIN + tenant_id.encode() + b"|" + seed)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's offered load: sessions of frames, and its resolution ladder.

    ``ladder[0]`` is the resolution the tenant's frames start at; the rest
    are fallbacks, highest first. Each saturation episode moves the
    tenant's *new* frames one rung down.
    """

    tenant_id: str
    sessions: int = 1
    frames_per_session: int = 8
    ladder: Tuple[Resolution, ...] = (TILE8,)

    def __post_init__(self):
        if not self.tenant_id:
            raise ParameterError("tenant_id must be non-empty")
        if self.sessions < 1 or self.frames_per_session < 0:
            raise ParameterError("sessions must be >= 1 and frames_per_session >= 0")
        if not self.ladder:
            raise ParameterError("ladder needs at least one resolution")


class ShardRouter:
    """Deterministic session -> shard assignment (SHAKE hash).

    A session's frames always land on one shard (ordered recovery), and
    the mapping is a pure function of ``(seed, tenant_id, session)`` so a
    run is reproducible and a restarted router re-derives the same
    placement.
    """

    def __init__(self, n_shards: int, seed: int = 0):
        if n_shards < 1:
            raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.seed = seed

    def shard_of(self, tenant_id: str, session: int) -> int:
        digest = shake128(
            b"service-v1-shard|"
            + struct.pack(">Q", self.seed)
            + tenant_id.encode()
            + struct.pack(">Q", session)
        ).read(8)
        return int.from_bytes(digest, "big") % self.n_shards


class AdmissionController:
    """Bounds concurrently active sessions; defers (never loses) the rest."""

    def __init__(self, max_active: int, registry: Optional[MetricsRegistry] = None):
        if max_active < 1:
            raise ParameterError(f"max_active must be >= 1, got {max_active}")
        self.max_active = max_active
        self._lock = threading.Lock()
        self._active = 0
        self._deferred = 0
        self.obs = registry if registry is not None else get_registry()

    def try_admit(self) -> bool:
        with self._lock:
            if self._active < self.max_active:
                self._active += 1
                return True
            self._deferred += 1
        self.obs.counter("service.admission.deferred").inc()
        return False

    def release(self) -> None:
        with self._lock:
            if self._active <= 0:
                raise ServiceError("admission release without a matching admit")
            self._active -= 1

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    @property
    def deferred(self) -> int:
        with self._lock:
            return self._deferred
