"""The streaming transciphering service: producer -> shard uplinks -> workers -> sink.

This is the system view the paper's Sec. V link budget abstracts away:
edge cameras PASTA-encrypt streams of frame tiles and ship them over a
lossy uplink to a recovery pool, which turns them back into plaintext (or,
in ``hhe`` mode, into BFV ciphertexts via real batched transciphering,
decrypted client-side for verification). There is one loop; tenancy,
shards and admission are configuration. A single camera stream is one
:class:`~repro.service.tenants.TenantSpec` with one session on one shard.

* **Producer** (clients). Admitted sessions' frames become ready on a
  schedule heap; the producer collects up to ``batch_frames`` ready frames,
  synthesizes and packs them with vectorized SHAKE/numpy, draws a **fresh
  nonce per transmission** from the tenant's
  :class:`~repro.apps.video.NonceSequence` (shared by all its sessions, so
  no ``(key, nonce)`` pair repeats), and derives keystream for each
  tenant's share of the batch in one
  :meth:`~repro.pasta.batch.KeystreamEngine.keystream_pairs` call — the
  cross-frame amortization that gives the service its throughput edge
  over a per-frame encrypt loop.
* **Uplink**. One bounded queue per shard models the radio link. Each
  session is routed to its shard once, when the service is built, and each
  producer batch is handed to the uplinks in one burst after its encrypt
  span, so workers drain whole batches. A
  :class:`~repro.service.faults.FaultPlan` deterministically drops,
  corrupts, or delays transmissions. Drops and over-timeout delays are
  retried with bounded, jittered exponential backoff; corruption is caught
  by CRC at the receiver, which NACKs back to the producer. Retries
  re-encrypt under a fresh nonce, never the consumed one.
* **Workers** (recovery pool). ``workers_per_shard`` threads per shard
  drain their queue in small batches and recover each tenant's frames with
  one pass of a shared cache-less keystream engine (the fused streaming
  path) or the tenant's batched HHE server.
* **Sink**. De-duplicates late deliveries, acknowledges, and completes a
  session once all its frames are in; the run completes when every
  session has.

**Saturation.** A put that stalls past ``put_timeout`` *sheds* the frame:
the same wire (same nonce, same fault verdict) is re-offered after a
jittered backoff, so the producer never blocks behind one hot shard and no
frame is lost. The first shed of a tenant's saturation episode moves its
new frames one rung down its resolution ladder — exactly one step per
episode (the episode ends when one of its puts succeeds), while in-flight
and retried frames keep their resolution.

Everything reports into :mod:`repro.obs`: stage spans and histograms
(``service.run`` > ``service.produce.batch`` > ``service.synthesize`` and
per-tenant ``service.encrypt``; per-tenant ``service.recover`` on the
workers, parented across the thread hop by the
:class:`~repro.obs.SpanContext` each :class:`WireFrame` carries),
tenant-labeled latency (``service.tenant.frame_latency.seconds``), fault,
retry and shed counters, per-shard ``service.uplink.depth`` gauges kept
by the queue operations' own put/get accounting, and worker idle time.
``repro trace`` exports the span buffer as Perfetto JSON.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import queue
import struct
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.packing import pixels_per_element
from repro.apps.video import NonceSequence, Resolution, synthetic_frames_batch
from repro.errors import ParameterError, ServiceError
from repro.obs import (
    MetricsRegistry,
    SpanContext,
    Tracer,
    get_flight_recorder,
    get_registry,
    get_tracer,
)
from repro.pasta.batch import KeystreamEngine
from repro.pasta.cipher import field_elements
from repro.pasta.params import PASTA_TOY, PastaParams
from repro.service.faults import NO_FAULTS, FaultAction, FaultPlan, checksum, corrupt_payload
from repro.service.tenants import (
    AdmissionController,
    ShardRouter,
    TenantSpec,
    derive_tenant_key,
)
from repro.utils.budget import CacheBudget

__all__ = [
    "ServiceConfig",
    "WireFrame",
    "RecoveredFrame",
    "ServiceResult",
    "HheRecovery",
    "Service",
    "backoff_jitter_fraction",
    "pack_frames",
    "unpack_frames",
]

#: Deployment seeds for the tenants' PASTA keys, their BFV keys (``hhe``
#: mode) and shard placement.
KEY_SEED = b"service-v1"
FHE_SEED = b"service-fhe"
ROUTER_SEED = 0

#: Hard wall-clock bound on :meth:`Service.run`.
RUN_TIMEOUT_SECONDS = 600.0

#: Prepared-plaintext rows all tenants' HHE servers share (``hhe`` mode).
PREPARED_CACHE_ROWS = 4096

#: BFV ring and modulus of the ``hhe`` mode's toy parameters: 8 limbs. At
#: 230 bits the packed evaluator's modeled headroom is about +26 bits
#: (measured about +68), so health probes stay in budget.
HHE_RING_N = 256
HHE_LOG2_Q = 230

#: Domain for the deterministic backoff jitter draw (SHAKE over
#: ``(frame_id, attempt)``), so retry schedules reproduce run to run.
BACKOFF_JITTER_DOMAIN = b"service-v1-backoff|"


def backoff_jitter_fraction(frame_id: int, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one retry's jitter.

    A pure function of ``(frame_id, attempt)`` — like the fault plan's
    verdicts — so co-dropped frames spread out while the schedule stays
    bit-reproducible across runs and thread interleavings.
    """
    digest = hashlib.shake_128(
        BACKOFF_JITTER_DOMAIN + struct.pack(">QQ", frame_id, attempt)
    ).digest(8)
    return int.from_bytes(digest, "big") / 2**64


# -- vectorized pixel packing ----------------------------------------------------


def pack_frames(pixels: np.ndarray, p: int) -> np.ndarray:
    """Vectorized :func:`~repro.apps.packing.pack_pixels` over frame rows.

    ``pixels`` is ``(n_frames, n_pixels)`` uint8 with ``n_pixels`` a
    multiple of the per-element capacity; returns int64 elements in [0, p).
    """
    per = pixels_per_element(p)
    n_pixels = pixels.shape[1]
    if n_pixels % per:
        raise ParameterError(
            f"frame width {n_pixels} not a multiple of {per} pixels/element"
        )
    elements = np.zeros((pixels.shape[0], n_pixels // per), dtype=np.int64)
    for i in range(per):
        elements = (elements << 8) | pixels[:, i::per].astype(np.int64)
    return elements


def unpack_frames(elements: np.ndarray, p: int) -> np.ndarray:
    """Inverse of :func:`pack_frames` (big-endian within an element)."""
    per = pixels_per_element(p)
    out = np.empty((elements.shape[0], elements.shape[1] * per), dtype=np.uint8)
    for i in range(per):
        out[:, i::per] = ((elements >> (8 * (per - 1 - i))) & 0xFF).astype(np.uint8)
    return out


# -- wire/frame records ----------------------------------------------------------


@dataclass(frozen=True)
class WireFrame:
    """One transmission attempt as it crosses the modeled uplink."""

    frame_id: int
    tenant: str  #: whose key encrypted the payload
    session: int  #: which of the tenant's sessions sent it
    attempt: int
    nonce: int
    resolution: Resolution
    payload: bytes  #: ciphertext elements as little-endian uint32
    crc: int  #: CRC-32 of the *sent* payload (pre-corruption)
    not_before: float = 0.0  #: monotonic time before which delivery must not complete
    #: trace context of the producing encrypt span; carried through the
    #: uplink queue so worker-side spans join the producer's trace.
    trace: Optional[SpanContext] = None


@dataclass
class RecoveredFrame:
    """A frame after recovery, as the sink acknowledges it."""

    frame_id: int
    tenant: str
    attempt: int
    nonce: int
    resolution: Resolution
    pixels: bytes


@dataclass
class _Session:
    tenant_id: str
    index: int
    shard: int  #: routed once, when the service is built
    frame_uids: List[int]
    outstanding: set
    admitted_at: float = 0.0


@dataclass
class _FrameJob:
    """One offered frame, across all its transmissions."""

    uid: int  #: service-wide frame id (fault plan and synthesis key)
    session: _Session
    created_at: float = 0.0  #: admission time; latency is measured from it
    resolution: Optional[Resolution] = None  #: fixed at the first transmission
    attempts: int = 0
    nonces: List[int] = field(default_factory=list)


@dataclass
class ServiceResult:
    """Outcome of one :meth:`Service.run`."""

    frames: List[RecoveredFrame]  #: in frame-id order, one per offered frame
    duration_seconds: float
    frames_per_s: float
    sessions_per_s: float
    degradation_steps: int  #: ladder steps taken, over all tenants
    shed_frames: int
    admission_deferred: int
    #: tenant -> {count, mean, p50, p99} frame latency from admission (seconds).
    tenant_latency: Dict[str, Dict[str, float]]
    attempts: Dict[int, int]  #: frame id -> transmissions used
    nonces: Dict[int, List[int]]  #: frame id -> every nonce consumed for it
    metrics: Dict[str, dict]  #: obs registry snapshot at completion


# -- configuration ---------------------------------------------------------------


@dataclass
class ServiceConfig:
    """Knobs for the service (defaults sized for toy params).

    The default is the single camera stream: one tenant, one session, one
    shard with four workers.
    """

    tenants: Tuple[TenantSpec, ...] = (TenantSpec("camera", frames_per_session=64),)
    params: PastaParams = PASTA_TOY
    n_shards: int = 1
    workers_per_shard: int = 4
    batch_frames: int = 32  #: frames per producer encrypt pass (across tenants)
    worker_batch: int = 8  #: frames a worker drains per recovery pass
    queue_capacity: int = 64  #: per-shard uplink bound (backpressure)
    max_active_sessions: int = 1024  #: admission bound on in-flight sessions
    timeout_seconds: float = 0.01  #: sender's delivery timeout (drop detection)
    max_retries: int = 8  #: transmissions beyond the first before aborting
    backoff_base_seconds: float = 0.002
    backoff_max_seconds: float = 0.05
    #: Jitter width as a fraction of the exponential delay: the actual
    #: backoff is ``base * (1 + jitter * u)`` with ``u`` a deterministic
    #: per-(frame, attempt) uniform draw. 0 disables jitter — and brings
    #: back the thundering herd: every frame dropped in one batch would
    #: retry at the identical instant against the uplink queue.
    backoff_jitter: float = 0.5
    put_timeout: float = 0.02  #: a put stalled this long sheds the frame
    mode: str = "symmetric"  #: "symmetric" (shared key) or "hhe" (BFV transcipher)

    def __post_init__(self):
        if not self.tenants:
            raise ParameterError("at least one TenantSpec required")
        ids = [t.tenant_id for t in self.tenants]
        if len(set(ids)) != len(ids):
            raise ParameterError(f"duplicate tenant ids in {ids}")
        if self.mode not in ("symmetric", "hhe"):
            raise ParameterError(f"unknown service mode {self.mode!r}")
        counts = (self.n_shards, self.workers_per_shard, self.batch_frames,
                  self.worker_batch, self.queue_capacity, self.max_active_sessions)
        if min(counts) < 1:
            raise ParameterError(
                "n_shards, workers_per_shard, batch_frames, worker_batch, "
                "queue_capacity and max_active_sessions must be >= 1"
            )
        if self.max_retries < 0:
            raise ParameterError("max_retries must be >= 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ParameterError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )


# -- HHE recovery ----------------------------------------------------------------


class HheRecovery:
    """Full HHE receive path: batched BFV transciphering, then decryption.

    The worker transciphers each frame's blocks into slot-packed BFV
    ciphertexts with :class:`~repro.hhe.batched.BatchedHheServer` (the
    cloud's view of recovery); the adapter then decrypts with the client
    secret key purely so the sink can verify bit-exactness — a real
    deployment would hand the ciphertexts onward instead.
    """

    def __init__(
        self,
        params: PastaParams,
        key: np.ndarray,
        fhe_seed: bytes,
        tenant: str,
        prepared_budget: CacheBudget,
    ):
        from repro.fhe import Bfv, toy_parameters
        from repro.fhe.batching import BatchEncoder
        from repro.hhe.batched import (
            BatchedHheServer,
            decrypt_batched_result,
            encrypt_key_batched,
        )

        self.params = params
        bfv = toy_parameters(params.p, n=HHE_RING_N, log2_q=HHE_LOG2_Q)
        self.scheme = Bfv(bfv, seed=fhe_seed)
        self.sk, pk, rlk = self.scheme.keygen()
        # The packed BSGS evaluator key-switches through these rotation keys.
        galois = self.scheme.rotation_keygen(
            self.sk, BatchedHheServer.required_rotation_steps(params, HHE_RING_N)
        )
        self.encoder = BatchEncoder(bfv.n, params.p)
        encrypted_key = encrypt_key_batched(self.scheme, pk, self.encoder, [int(k) for k in key])
        self.server = BatchedHheServer(
            params,
            self.scheme,
            rlk,
            self.encoder,
            encrypted_key,
            galois_keys=galois,
            tenant=tenant,
            prepared_budget=prepared_budget,
        )
        self._decrypt = decrypt_batched_result

    def recover_batch(self, frames: Sequence[Tuple[WireFrame, np.ndarray]]) -> List[np.ndarray]:
        t = self.params.t
        out: List[np.ndarray] = []
        for wire, elements in frames:
            blocks = elements.reshape(-1, t).tolist()
            counters = list(range(len(blocks)))
            result = self.server.transcipher_blocks(blocks, wire.nonce, counters)
            messages = self._decrypt(self.scheme, self.sk, self.encoder, result)
            out.append(np.array([v for block in messages for v in block], dtype=np.int64))
        return out


# -- the service -----------------------------------------------------------------


class Service:
    """Producer / sharded worker pool / sink over per-tenant key schedules.

    The closed-loop simulation: every configured session is eventually
    admitted, streamed, recovered bit-exactly, and acknowledged. Faults,
    shedding and admission deferrals delay frames; nothing loses them.

    ``worker_gate`` is a test hook: when given, workers only consume while
    the event is set, which lets a test hold the pool to force uplink
    saturation deterministically.
    """

    def __init__(
        self,
        config: ServiceConfig,
        fault_plan: FaultPlan = NO_FAULTS,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        worker_gate: Optional[threading.Event] = None,
    ):
        self.config = config
        self.plan = fault_plan
        self.obs = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._gate = worker_gate

        params = config.params
        self.admission = AdmissionController(config.max_active_sessions, registry=self.obs)
        self._specs = {spec.tenant_id: spec for spec in config.tenants}
        self._keys = {
            tid: derive_tenant_key(params, tid, KEY_SEED) for tid in self._specs
        }
        #: One sequence per tenant KEY: its sessions share it, so concurrent
        #: sessions can never reuse a (key, nonce) pair.
        self._nonces = {tid: NonceSequence() for tid in self._specs}
        #: Client and recovery side both derive fresh (nonce, counter) pairs
        #: that are never asked for again, so one cache-less engine (the
        #: fused streaming path) serves every tenant and holds no state.
        self._engine = KeystreamEngine(params, cache_size=0)
        self.prepared_budget: Optional[CacheBudget] = None
        self.hhe: Dict[str, HheRecovery] = {}
        if config.mode == "hhe":
            self.prepared_budget = CacheBudget(PREPARED_CACHE_ROWS)
            self.hhe = {
                tid: HheRecovery(
                    params,
                    key,
                    FHE_SEED + b"|" + tid.encode(),
                    tenant=tid,
                    prepared_budget=self.prepared_budget,
                )
                for tid, key in self._keys.items()
            }
        #: Current ladder rung per tenant, and the tenants inside a
        #: saturation episode (both producer-thread only).
        self._rung = dict.fromkeys(self._specs, 0)
        self._saturated: set = set()
        self.degradation_steps = 0
        self.shed_frames = 0

        # The offered load is the configuration: materialize every session
        # and frame up front; arrival is governed by admission.
        router = ShardRouter(config.n_shards, seed=ROUTER_SEED)
        self._frames: Dict[int, _FrameJob] = {}
        self._sessions: List[_Session] = []
        uids = itertools.count()
        for spec in config.tenants:
            for index in range(spec.sessions):
                frame_uids = [next(uids) for _ in range(spec.frames_per_session)]
                session = _Session(
                    tenant_id=spec.tenant_id,
                    index=index,
                    shard=router.shard_of(spec.tenant_id, index),
                    frame_uids=frame_uids,
                    outstanding=set(frame_uids),
                )
                self._sessions.append(session)
                for uid in frame_uids:
                    self._frames[uid] = _FrameJob(uid=uid, session=session)
        # Admission order is round-robin ACROSS tenants (session 0 of every
        # tenant, then session 1, ...; the sort is stable): a tenant with a
        # deep session backlog waits on its own earlier sessions and never
        # starves another tenant's admission.
        self._pending = deque(sorted(self._sessions, key=lambda s: s.index))

        self._uplinks: List["queue.Queue[WireFrame]"] = [
            queue.Queue(maxsize=config.queue_capacity) for _ in range(config.n_shards)
        ]
        self._result_q: "queue.Queue[RecoveredFrame]" = queue.Queue()
        self._retry_q: "queue.Queue[Tuple[float, int, int]]" = queue.Queue()
        #: Shed wires waiting to be re-offered: (ready_time, seq, wire).
        self._deferred: List[Tuple[float, int, WireFrame]] = []
        self._deferred_seq = itertools.count()

        self._lock = threading.Lock()
        self._recovered: Dict[int, RecoveredFrame] = {}
        self._completed_sessions = 0
        self._done = threading.Event()
        self._stop = threading.Event()
        self._failure: Optional[BaseException] = None

    # -- shared helpers ----------------------------------------------------------

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            if self._failure is None:
                self._failure = exc
        self._stop.set()
        self._done.set()

    def _backoff(self, frame_id: int, attempt: int) -> float:
        """Bounded exponential backoff, jittered per ``(frame_id, attempt)``.

        The exponential delay alone is deterministic *and identical* for
        every frame on the same attempt number, so a batch of co-dropped
        frames would retry at the same instant — a synchronized storm
        against the uplink queue. The SHAKE-seeded jitter keys on the frame
        id, spreading co-dropped frames apart, while staying a pure
        function of ``(frame_id, attempt)`` so runs remain reproducible.
        """
        if attempt <= 0:
            return 0.0
        cfg = self.config
        base = min(cfg.backoff_base_seconds * (2 ** (attempt - 1)), cfg.backoff_max_seconds)
        if cfg.backoff_jitter <= 0.0:
            return base
        return base * (1.0 + cfg.backoff_jitter * backoff_jitter_fraction(frame_id, attempt))

    def _schedule_retry(self, wire: WireFrame, earliest: float) -> None:
        self.obs.counter("service.retries", tenant=wire.tenant).inc()
        get_flight_recorder().record(
            "retry",
            severity="info",
            tenant=wire.tenant,
            frame_id=wire.frame_id,
            attempt=wire.attempt + 1,
        )
        ready = earliest + self._backoff(wire.frame_id, wire.attempt + 1)
        self._retry_q.put((ready, wire.frame_id, wire.attempt + 1))

    def _keystreams(self, tenant_id: str, frames: Sequence[Tuple[int, int]]) -> List[np.ndarray]:
        """Flat keystream for each ``(nonce, n_elements)`` frame, in one engine pass."""
        t = self.config.params.t
        pairs = [(nonce, c) for nonce, n in frames for c in range(-(-n // t))]
        rows = self._engine.keystream_pairs(self._keys[tenant_id], pairs)
        out: List[np.ndarray] = []
        row = 0
        for _, n in frames:
            n_blocks = -(-n // t)
            out.append(rows[row : row + n_blocks].reshape(-1)[:n])
            row += n_blocks
        return out

    # -- admission ---------------------------------------------------------------

    def _admit_sessions(self, heap: List[Tuple[float, int, int]], now: float) -> None:
        """Admit pending sessions while the controller has room."""
        while self._pending and self.admission.try_admit():
            session = self._pending.popleft()
            session.admitted_at = now
            self.obs.counter("service.sessions.admitted", tenant=session.tenant_id).inc()
            for uid in session.frame_uids:
                self._frames[uid].created_at = now
                heapq.heappush(heap, (now, uid, 0))
            if not session.frame_uids:
                self._session_done(session, now)

    def _session_done(self, session: _Session, now: float) -> None:
        self.admission.release()
        self.obs.histogram(
            "service.session.duration.seconds", tenant=session.tenant_id
        ).observe(now - session.admitted_at)
        with self._lock:
            self._completed_sessions += 1
            finished = self._completed_sessions == len(self._sessions)
        if finished:
            self._done.set()

    # -- producer ----------------------------------------------------------------

    def _produce(self) -> None:
        cfg = self.config
        heap: List[Tuple[float, int, int]] = []
        try:
            while not self._stop.is_set():
                while True:
                    try:
                        heapq.heappush(heap, self._retry_q.get_nowait())
                    except queue.Empty:
                        break
                now = time.monotonic()
                self._admit_sessions(heap, now)
                if self._done.is_set():
                    break
                while self._deferred and self._deferred[0][0] <= now:
                    self._offer(heapq.heappop(self._deferred)[2], redraw_fault=False)
                batch: List[Tuple[float, int, int]] = []
                while heap and heap[0][0] <= now and len(batch) < cfg.batch_frames:
                    batch.append(heapq.heappop(heap))
                if not batch:
                    wait = 0.005
                    for pending in (heap, self._deferred):
                        if pending:
                            wait = min(wait, max(pending[0][0] - now, 0.0005))
                    try:
                        heapq.heappush(heap, self._retry_q.get(timeout=wait))
                    except queue.Empty:
                        pass
                    continue
                self._encrypt_and_send(batch)
        except ServiceError as exc:
            self._fail(exc)
        except Exception as exc:
            self._fail(ServiceError(f"producer failed: {exc!r}"))

    def _encrypt_and_send(self, batch: Sequence[Tuple[float, int, int]]) -> None:
        cfg = self.config
        params = cfg.params
        by_tenant: Dict[str, List[Tuple[_FrameJob, int]]] = {}
        for _, uid, attempt in batch:
            if attempt > cfg.max_retries:
                raise ServiceError(f"frame {uid} exceeded {cfg.max_retries} retries")
            job = self._frames[uid]
            tenant_id = job.session.tenant_id
            if job.resolution is None:  # retries keep their first resolution
                job.resolution = self._specs[tenant_id].ladder[self._rung[tenant_id]]
            by_tenant.setdefault(tenant_id, []).append((job, attempt))

        with self.tracer.span(
            "service.produce.batch",
            metric="service.produce.batch.seconds",
            registry=self.obs,
            variant=params.name,
            omega=params.modulus_bits,
            mode=cfg.mode,
            frames=len(batch),
            tenants=len(by_tenant),
        ):
            elements_of = self._synthesize([job for jobs in by_tenant.values() for job, _ in jobs])
            wires: List[WireFrame] = []
            for tenant_id, jobs in by_tenant.items():
                wires.extend(self._encrypt(tenant_id, jobs, elements_of))
            # One burst per batch, after the encrypt spans: wires reach the
            # queues together, so workers drain whole batches instead of
            # waking once per frame.
            for wire in wires:
                self._offer(wire)

    def _synthesize(self, jobs: Sequence[_FrameJob]) -> Dict[int, np.ndarray]:
        """Synthesize + pack, one vectorized pass per resolution."""
        by_res: Dict[Resolution, List[int]] = {}
        for job in jobs:
            by_res.setdefault(job.resolution, []).append(job.uid)
        elements_of: Dict[int, np.ndarray] = {}
        with self.tracer.span(
            "service.synthesize",
            metric="service.synthesize.seconds",
            registry=self.obs,
            frames=len(jobs),
        ):
            for resolution, uids in by_res.items():
                packed = pack_frames(synthetic_frames_batch(resolution, uids), self.config.params.p)
                elements_of.update(zip(uids, packed))
        return elements_of

    def _encrypt(
        self,
        tenant_id: str,
        jobs: Sequence[Tuple[_FrameJob, int]],
        elements_of: Dict[int, np.ndarray],
    ) -> List[WireFrame]:
        """One cross-session keystream pass for a tenant's share of the batch."""
        params = self.config.params
        nonces = self._nonces[tenant_id]
        with self.tracer.span(
            "service.encrypt",
            metric="service.encrypt.seconds",
            registry=self.obs,
            variant=params.name,
            omega=params.modulus_bits,
            tenant=tenant_id,
            frames=len(jobs),
        ) as span:
            # Fresh nonce per transmission, retries included.
            sent = [(job, attempt, nonces.next()) for job, attempt in jobs]
            frames = [(nonce, len(elements_of[job.uid])) for job, _, nonce in sent]
            span.set_attribute("lanes", sum(-(-n // params.t) for _, n in frames))
            keystreams = self._keystreams(tenant_id, frames)
            wires: List[WireFrame] = []
            for (job, attempt, nonce), keystream in zip(sent, keystreams):
                payload = ((elements_of[job.uid] + keystream) % params.p).astype("<u4").tobytes()
                with self._lock:
                    job.attempts = attempt + 1
                    job.nonces.append(nonce)
                wires.append(
                    WireFrame(
                        frame_id=job.uid,
                        tenant=tenant_id,
                        session=job.session.index,
                        attempt=attempt,
                        nonce=nonce,
                        resolution=job.resolution,
                        payload=payload,
                        crc=checksum(payload),
                        trace=span.context,
                    )
                )
        self.obs.counter("service.frames.sent", tenant=tenant_id).inc(len(wires))
        return wires

    def _offer(self, wire: WireFrame, redraw_fault: bool = True) -> None:
        """Fault-inject (once per attempt) and put on the session's shard."""
        cfg = self.config
        obs = self.obs
        now = time.monotonic()
        if redraw_fault:
            action = self.plan.action(wire.frame_id, wire.attempt)
            if action is FaultAction.DROP:
                obs.counter("service.uplink.dropped", tenant=wire.tenant).inc()
                self._schedule_retry(wire, now + cfg.timeout_seconds)
                return
            if action is FaultAction.CORRUPT:
                obs.counter("service.uplink.corrupted", tenant=wire.tenant).inc()
                wire = replace(
                    wire, payload=corrupt_payload(wire.payload, wire.frame_id, wire.attempt)
                )
            elif action is FaultAction.DELAY:
                obs.counter("service.uplink.delayed", tenant=wire.tenant).inc()
                wire = replace(wire, not_before=now + self.plan.delay_seconds)
                if self.plan.delay_seconds > cfg.timeout_seconds:
                    # The sender's timer fires before the late delivery lands:
                    # it retransmits, and the sink de-duplicates the straggler.
                    self._schedule_retry(wire, now + cfg.timeout_seconds)

        shard = self._frames[wire.frame_id].session.shard
        try:
            self._uplinks[shard].put(wire, timeout=cfg.put_timeout)
        except queue.Full:
            self._shed(wire, shard, now)
            return
        self._saturated.discard(wire.tenant)
        # Depth from the put's own accounting: a sampled qsize() after the
        # fact races concurrent worker gets and under-reports the
        # high-water mark the gauge exists to expose.
        depth = obs.gauge("service.uplink.depth", shard=shard)
        depth.add(1)
        get_flight_recorder().sample(f"service.uplink.depth/shard{shard}", depth.value)

    def _shed(self, wire: WireFrame, shard: int, now: float) -> None:
        """Re-offer a wire its full shard refused, after a jittered backoff.

        The *same* wire comes back: its nonce and fault verdict belong to
        the transmission attempt, not to the queue put. The first shed of a
        tenant's saturation episode moves its new frames one ladder rung
        down.
        """
        tenant_id = wire.tenant
        self.shed_frames += 1
        self.obs.counter("service.shed.frames", tenant=tenant_id).inc()
        get_flight_recorder().record(
            "load_shed",
            tenant=tenant_id,
            shard=shard,
            frame_id=wire.frame_id,
            attempt=wire.attempt,
        )
        if tenant_id not in self._saturated:
            self._saturated.add(tenant_id)
            if self._rung[tenant_id] + 1 < len(self._specs[tenant_id].ladder):
                self._rung[tenant_id] += 1
                self.degradation_steps += 1
                self.obs.counter("service.degradation.steps", tenant=tenant_id).inc()
        ready = now + self._backoff(wire.frame_id, max(wire.attempt, 1))
        heapq.heappush(self._deferred, (ready, next(self._deferred_seq), wire))

    # -- shard workers -----------------------------------------------------------

    def _worker(self, shard: int) -> None:
        cfg = self.config
        obs = self.obs
        uplink = self._uplinks[shard]
        idle = obs.histogram(
            "service.worker.idle.seconds",
            help="time a worker spends waiting for uplink frames",
            shard=shard,
        )
        try:
            while not self._stop.is_set():
                idle_start = time.perf_counter()
                if self._gate is not None and not self._gate.wait(timeout=0.05):
                    idle.observe(time.perf_counter() - idle_start)
                    continue
                try:
                    wires = [uplink.get(timeout=0.05)]
                except queue.Empty:
                    idle.observe(time.perf_counter() - idle_start)
                    continue
                while len(wires) < cfg.worker_batch:
                    try:
                        wires.append(uplink.get_nowait())
                    except queue.Empty:
                        break
                idle.observe(time.perf_counter() - idle_start)
                # Mirror of the producer-side add: each get accounts for
                # itself rather than trusting a racy qsize() sample.
                depth = obs.gauge("service.uplink.depth", shard=shard)
                depth.add(-len(wires))
                get_flight_recorder().sample(f"service.uplink.depth/shard{shard}", depth.value)
                self._recover(shard, wires)
        except Exception as exc:
            self._fail(ServiceError(f"shard {shard} worker failed: {exc!r}"))

    def _decode(self, wire: WireFrame) -> np.ndarray:
        """A wire's ciphertext elements, or :class:`ParameterError` unless the
        payload is whole ``<u4`` words of elements in [0, p) and, in ``hhe``
        mode, whole t-element blocks."""
        params = self.config.params
        if len(wire.payload) % 4:
            raise ParameterError(f"payload of {len(wire.payload)} bytes is not whole <u4 words")
        elements = np.frombuffer(wire.payload, dtype="<u4")
        elements = field_elements(elements, params.p).astype(np.int64)
        if self.config.mode == "hhe" and len(elements) % params.t:
            raise ParameterError(
                f"{len(elements)} elements are not whole {params.t}-element blocks"
            )
        return elements

    def _recover(self, shard: int, wires: Sequence[WireFrame]) -> None:
        obs = self.obs
        params = self.config.params
        now = time.monotonic()
        by_tenant: Dict[str, List[Tuple[WireFrame, np.ndarray]]] = {}
        for wire in wires:
            if wire.not_before > now:
                time.sleep(wire.not_before - now)
                now = time.monotonic()
            if checksum(wire.payload) != wire.crc:
                obs.counter("service.crc.rejected", tenant=wire.tenant).inc()
                self._schedule_retry(wire, now)
                continue
            try:
                elements = self._decode(wire)
            except ParameterError as exc:
                # CRC-valid but not a ciphertext of this service: quarantine
                # the frame and retry it, as for a CRC failure.
                obs.counter("service.frames.poisoned", tenant=wire.tenant).inc()
                get_flight_recorder().record(
                    "poisoned_frame",
                    tenant=wire.tenant,
                    frame_id=wire.frame_id,
                    attempt=wire.attempt,
                    reason=str(exc),
                )
                self._schedule_retry(wire, now)
                continue
            by_tenant.setdefault(wire.tenant, []).append((wire, elements))
        for tenant_id, valid in by_tenant.items():
            # Explicit cross-thread propagation: the wire carries the producing
            # encrypt span's context, so the recover span joins that trace
            # even though it runs on a worker thread. A drained batch can mix
            # wires from several producer batches — parent on the first and
            # record how many distinct traces fed it.
            with self.tracer.span(
                "service.recover",
                metric="service.recover.seconds",
                registry=obs,
                parent=valid[0][0].trace,
                tenant=tenant_id,
                shard=shard,
                frames=len(valid),
                source_traces=len({w.trace.trace_id for w, _ in valid if w.trace is not None}),
                mode=self.config.mode,
            ):
                if tenant_id in self.hhe:
                    recovered = self.hhe[tenant_id].recover_batch(valid)
                else:
                    keystreams = self._keystreams(
                        tenant_id, [(wire.nonce, len(elements)) for wire, elements in valid]
                    )
                    recovered = [
                        (elements - keystream) % params.p
                        for (_, elements), keystream in zip(valid, keystreams)
                    ]
            for (wire, _), elements in zip(valid, recovered):
                pixels = unpack_frames(elements[None, :], params.p)[0]
                self._result_q.put(
                    RecoveredFrame(
                        frame_id=wire.frame_id,
                        tenant=tenant_id,
                        attempt=wire.attempt,
                        nonce=wire.nonce,
                        resolution=wire.resolution,
                        pixels=pixels[: wire.resolution.pixels].tobytes(),
                    )
                )

    # -- sink --------------------------------------------------------------------

    def _sink(self) -> None:
        obs = self.obs
        try:
            while not self._stop.is_set():
                try:
                    frame = self._result_q.get(timeout=0.05)
                except queue.Empty:
                    continue
                now = time.monotonic()
                job = self._frames[frame.frame_id]
                with self._lock:
                    if frame.frame_id in self._recovered:
                        obs.counter("service.frames.duplicate", tenant=frame.tenant).inc()
                        continue
                    self._recovered[frame.frame_id] = frame
                    job.session.outstanding.discard(frame.frame_id)
                    session_done = not job.session.outstanding
                obs.counter("service.frames.recovered", tenant=frame.tenant).inc()
                obs.histogram(
                    "service.tenant.frame_latency.seconds", tenant=frame.tenant
                ).observe(now - job.created_at)
                if session_done:
                    self._session_done(job.session, now)
        except Exception as exc:
            self._fail(ServiceError(f"sink failed: {exc!r}"))

    # -- orchestration -----------------------------------------------------------

    def run(self) -> ServiceResult:
        """Stream every session's frames to completion; block until acknowledged.

        Raises :class:`ServiceError` if a frame exhausts its retries, a
        stage crashes, or the run exceeds :data:`RUN_TIMEOUT_SECONDS`.
        """
        cfg = self.config
        threads = [
            threading.Thread(
                target=self._worker,
                args=(shard,),
                name=f"service-worker-{shard}.{w}",
                daemon=True,
            )
            for shard in range(cfg.n_shards)
            for w in range(cfg.workers_per_shard)
        ]
        threads.append(threading.Thread(target=self._sink, name="service-sink", daemon=True))
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        with self.tracer.span(
            "service.run",
            metric="service.run.seconds",
            registry=self.obs,
            variant=cfg.params.name,
            omega=cfg.params.modulus_bits,
            mode=cfg.mode,
            tenants=len(cfg.tenants),
            sessions=len(self._sessions),
            frames=len(self._frames),
            shards=cfg.n_shards,
            workers=cfg.workers_per_shard,
        ):
            self._produce()
        if not self._done.wait(timeout=RUN_TIMEOUT_SECONDS):
            self._fail(ServiceError(f"service stalled past {RUN_TIMEOUT_SECONDS}s"))
        duration = time.perf_counter() - start
        self._stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        if self._failure is not None:
            raise self._failure

        with self._lock:
            frames = [self._recovered[uid] for uid in sorted(self._recovered)]
            attempts = {uid: job.attempts for uid, job in self._frames.items()}
            nonces = {uid: list(job.nonces) for uid, job in self._frames.items()}
        recovered = Counter(frame.tenant for frame in frames)
        tenant_latency: Dict[str, Dict[str, float]] = {}
        for spec in cfg.tenants:
            summary = self.obs.histogram(
                "service.tenant.frame_latency.seconds", tenant=spec.tenant_id
            ).summary()
            tenant_latency[spec.tenant_id] = {k: summary[k] for k in ("count", "mean", "p50", "p99")}
            # Per-tenant loss gauge for the SLO window: a successful run always
            # reaches zero (run() raises otherwise), but the gauge makes the
            # invariant externally checkable rather than implied.
            offered = spec.sessions * spec.frames_per_session
            self.obs.gauge("service.frames.lost", tenant=spec.tenant_id).set(
                offered - recovered[spec.tenant_id]
            )
        rate = 1.0 / duration if duration > 0 else 0.0
        return ServiceResult(
            frames=frames,
            duration_seconds=duration,
            frames_per_s=len(self._frames) * rate,
            sessions_per_s=len(self._sessions) * rate,
            degradation_steps=self.degradation_steps,
            shed_frames=self.shed_frames,
            admission_deferred=self.admission.deferred,
            tenant_latency=tenant_latency,
            attempts=attempts,
            nonces=nonces,
            metrics=self.obs.snapshot(),
        )
