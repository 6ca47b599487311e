"""Globally bounded, owner-fair cache budgeting.

The streaming service hands every tenant its own HHE server with its own
prepared-plaintext caches. Per-cache ``maxsize`` bounds compose badly:
each bound is individually reasonable, but the *aggregate* grows linearly
with the tenant count — the memory blowup ROADMAP item 1 calls out for
the per-server ``lru_cache`` closures. A :class:`CacheBudget` is the fix:
one process-wide cost ceiling shared by any number of caches, with
eviction pressure always applied to the owner using the most of it.

**Fair share.** When the budget is over capacity, the victim is the owner
with the largest current usage. If the total exceeds the capacity, the
largest user necessarily sits above ``capacity / n_owners`` — so an owner
at or below its fair share is never evicted to make room for a hotter
one. A hot tenant filling the cache therefore evicts *itself* once the
other tenants are within their fair share, which is exactly the isolation
property the tenancy tests pin.

**Locking.** The budget lock is only ever taken *without* a cache lock
held: :class:`BudgetedLru` mutates its own store under its own lock,
releases it, and only then settles accounting with the budget. Evictor
callbacks run under the budget lock and take their cache's lock — a
one-way ordering (budget -> cache), so charge/evict cycles cannot
deadlock. A cache may transiently overshoot between its insert and the
settling charge; the overshoot is bounded by the number of concurrently
inserting threads and corrected on the next charge.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import ParameterError

__all__ = ["CacheBudget", "BudgetedLru", "BudgetSnapshot", "EVICTION_BURST"]

#: Evictions a single charge must force before the flight recorder hears
#: about it: steady one-at-a-time turnover is normal LRU behavior, a burst
#: means one insert displaced a working set (mirrors
#: :data:`repro.obs.health.EVICTION_BURST_THRESHOLD`).
EVICTION_BURST = 8


class BudgetSnapshot(dict):
    """JSON-able view of a budget: capacity, total, per-owner usage."""


class CacheBudget:
    """A shared cost ceiling for a family of caches, fair across owners.

    ``capacity`` is in abstract cost units (the caches choose the unit:
    prepared-plaintext slot rows, cached keystream blocks, ...). Caches
    register an *evictor* — a zero-argument callable returning the cost it
    freed (0.0 when its cache is empty) — and report usage through
    :meth:`charge` / :meth:`release`.
    """

    def __init__(self, capacity: float):
        if capacity <= 0:
            raise ParameterError(f"budget capacity must be > 0, got {capacity}")
        self.capacity = float(capacity)
        self._lock = threading.Lock()
        self._usage: Dict[str, float] = {}
        self._evictors: Dict[str, List[Callable[[], float]]] = {}
        self._evictions: Dict[str, int] = {}

    # -- registration ---------------------------------------------------------

    def register(self, owner: str, evictor: Callable[[], float]) -> None:
        """Attach one cache's evict-one callback under ``owner``."""
        with self._lock:
            self._evictors.setdefault(owner, []).append(evictor)
            self._usage.setdefault(owner, 0.0)
            self._evictions.setdefault(owner, 0)

    # -- accounting -----------------------------------------------------------

    def charge(self, owner: str, cost: float) -> None:
        """Record ``cost`` units now held by ``owner``; rebalance if over."""
        if cost < 0:
            raise ParameterError(f"cannot charge negative cost {cost}")
        with self._lock:
            self._usage[owner] = self._usage.get(owner, 0.0) + cost
            evicted = self._rebalance_locked()
        # Outside the budget lock (one-way ordering budget -> cache holds;
        # the recorder takes only its own lock): a single charge forcing a
        # burst of evictions means a working set far over its share.
        if evicted >= EVICTION_BURST:
            from repro.obs.health import get_flight_recorder

            get_flight_recorder().record(
                "cache_evictions",
                owner=owner,
                evicted=evicted,
                capacity=self.capacity,
            )

    def release(self, owner: str, cost: float) -> None:
        """Return ``cost`` units (the owner evicted or dropped entries)."""
        with self._lock:
            self._usage[owner] = max(0.0, self._usage.get(owner, 0.0) - cost)

    # -- eviction -------------------------------------------------------------

    def _rebalance_locked(self) -> int:
        """Evict from the largest owner until the total fits (or nothing frees).

        Returns the number of entries evicted by this call, so the caller
        can flag eviction *bursts* (>= :data:`EVICTION_BURST` in one charge)
        to the flight recorder once the lock is released.
        """
        evicted = 0
        while self.total > self.capacity:
            victim = max(self._usage, key=lambda o: self._usage[o])
            freed = 0.0
            for evictor in self._evictors.get(victim, ()):
                freed = evictor()
                if freed > 0:
                    break
            if freed <= 0:
                # The ledger says the victim holds cost but no cache can
                # free any (e.g. usage charged by a cache that was cleared
                # out-of-band). Zero the stale claim rather than spin.
                self._usage[victim] = 0.0
                continue
            self._usage[victim] = max(0.0, self._usage[victim] - freed)
            self._evictions[victim] = self._evictions.get(victim, 0) + 1
            evicted += 1
        return evicted

    # -- introspection --------------------------------------------------------

    @property
    def total(self) -> float:
        return sum(self._usage.values())

    def usage(self, owner: str) -> float:
        with self._lock:
            return self._usage.get(owner, 0.0)

    def evictions(self, owner: str) -> int:
        with self._lock:
            return self._evictions.get(owner, 0)

    def snapshot(self) -> BudgetSnapshot:
        with self._lock:
            return BudgetSnapshot(
                capacity=self.capacity,
                total=round(self.total, 3),
                owners={o: round(u, 3) for o, u in sorted(self._usage.items())},
                evictions=dict(sorted(self._evictions.items())),
            )


class BudgetedLru:
    """A thread-safe LRU that settles its cost against a shared budget.

    ``cost_of(key, value)`` prices an entry (default 1.0 per entry); the
    local ``maxsize`` still applies as a per-cache entry bound on top of
    the shared cost ceiling. ``owner`` namespaces the budget accounting —
    two caches may share an owner (e.g. a tenant's matrix and rc caches
    draw from the tenant's one fair share).
    """

    def __init__(
        self,
        owner: str,
        budget: Optional[CacheBudget] = None,
        maxsize: int = 0,
        cost_of: Optional[Callable[[Hashable, object], float]] = None,
    ):
        if maxsize < 0:
            raise ParameterError(f"maxsize must be >= 0, got {maxsize}")
        self.owner = owner
        self.budget = budget
        self.maxsize = maxsize  #: 0 means no local entry bound
        self._cost_of = cost_of or (lambda key, value: 1.0)
        self._lock = threading.Lock()
        self._store: "OrderedDict[Hashable, Tuple[object, float]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        if budget is not None:
            budget.register(owner, self._evict_one)

    def _evict_one(self) -> float:
        """Budget callback: drop the least-recently-used entry."""
        with self._lock:
            if not self._store:
                return 0.0
            _, (_, cost) = self._store.popitem(last=False)
            return cost

    def get_or_create(self, key: Hashable, factory: Callable[[], object]) -> object:
        """The ``lru_cache`` contract: cached value, or ``factory()`` on miss.

        The factory runs outside every lock (derivations are deterministic,
        so a racing duplicate miss is idempotent); budget accounting is
        settled after the local insert, never while holding the store lock.
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is not None:
                self._hits += 1
                self._store.move_to_end(key)
                return entry[0]
            self._misses += 1
        value = factory()
        cost = float(self._cost_of(key, value))
        evicted = 0.0
        inserted = False
        with self._lock:
            if key not in self._store:
                self._store[key] = (value, cost)
                inserted = True
                while self.maxsize and len(self._store) > self.maxsize:
                    _, (_, freed) = self._store.popitem(last=False)
                    evicted += freed
        if self.budget is not None:
            if evicted:
                self.budget.release(self.owner, evicted)
            if inserted:
                self.budget.charge(self.owner, cost)
        return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    @property
    def cost(self) -> float:
        with self._lock:
            return sum(c for _, c in self._store.values())

    def cache_info(self) -> Dict[str, float]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._store),
                "cost": sum(c for _, c in self._store.values()),
            }

    def clear(self) -> None:
        with self._lock:
            freed = sum(c for _, c in self._store.values())
            self._store.clear()
        if self.budget is not None and freed:
            self.budget.release(self.owner, freed)
