"""The fleet router: admission, dispatch, health, failover, rollouts.

:class:`FleetRouter` is the front process of the serving fleet.  It owns
N :mod:`worker <repro.fleet.worker>` processes (each a full
:class:`~repro.serve.daemon.ServingDaemon`), speaks the
:mod:`repro.fleet.wire` frame protocol to them over duplex pipes, and
gives clients one thread-safe call — :meth:`submit` — that hides every
fleet-level failure mode behind three outcomes: logits, a retriable
error, or a fatal error.

**Dispatch.**  Requests are *image blocks* (the batch-granular unit the
daemon's ``submit_batch`` admits), balanced per tenant to the healthy,
non-draining worker with the fewest of that tenant's images outstanding
(ties fall to the least-loaded worker overall).  A block is served
wholly by one worker, so the fleet never mixes model versions inside a
batch by construction.

**Backpressure.**  Admission is bounded twice: fleet-wide per tenant
(``max_inflight`` images; exceeding it raises
:class:`~repro.serve.daemon.QueueFullError` immediately) and per worker
(the daemon's own ``queue_depth``).  A worker-level rejection is
rebalanced: the router retries the block on the least-loaded worker not
yet tried, and only when *every* healthy worker has refused does the
``QueueFullError`` surface to the client — with the rejecting worker
identities attached (``error.worker``, ``error.workers``).

**Health and failover.**  Worker death is detected two ways: the
per-worker receiver thread sees the pipe close (immediate — this is how
a ``kill -9`` surfaces), and a monitor thread pings every
``heartbeat_interval_ms`` and declares a worker hung when no pong
arrives within ``heartbeat_timeout_ms`` (then kills it, making the
pipe-close path fire).  On death, every block in flight on that worker
is transparently re-dispatched to a healthy peer — bounded by
``max_retries`` attempts, after which the retriable
:class:`WorkerFailedError` surfaces — and the worker is restarted and
re-registered with every tenant it hosted.  No admitted block is ever
silently dropped.

**Rolling rollout.**  :meth:`rollout` hot-swaps a tenant to a new
artifact one worker at a time: pin old and new manifests (store refs),
drain the worker, re-register, *probe* (compile the new plan — a worker
re-enters rotation only after proving it can serve), repeat.  The fleet
never drops below ``availability_floor`` healthy workers, a probe
failure rolls every already-flipped worker back, and tenants are
registered against manifest-*hash* refs, so an external ref flip can
never fork the fleet into a mixed deployment mid-flight.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import faults
from ..serve import QueueFullError, ServeConfig
from ..store import ArtifactStore, StoreRef
from .resilience import CircuitBreaker, RetryPolicy
from .wire import decode_frame, encode_frame
from .worker import worker_main

__all__ = [
    "FleetClosedError",
    "FleetConfig",
    "FleetError",
    "FleetRouter",
    "NoHealthyWorkersError",
    "RequestTimeoutError",
    "RolloutError",
    "RolloutResult",
    "WorkerFailedError",
    "worker_thread_env",
]

#: thread-count variables of the BLAS/OpenMP runtimes numpy may load
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)

#: serialises the environment swap around a worker's start: restarts
#: spawn from the monitor and receiver threads, and several routers may
#: share one process
_SPAWN_ENV_LOCK = threading.Lock()


def worker_thread_env(workers: int) -> Dict[str, str]:
    """The BLAS/OpenMP thread pins a fleet worker process starts with.

    Each of :data:`BLAS_THREAD_VARS` is the worker's share of the cores,
    ``max(1, os.cpu_count() // workers)``, unless the router's own
    environment already sets it: an explicit pin always wins.  Without
    the share every worker would load a pool of ``os.cpu_count()``
    busy-waiting BLAS threads, oversubscribing the host ``workers``-fold.
    """
    share = str(max(1, (os.cpu_count() or 1) // workers))
    return {name: os.environ.get(name, share) for name in BLAS_THREAD_VARS}


class FleetError(RuntimeError):
    """Base class of fleet-level failures."""


class FleetClosedError(FleetError):
    """The router is stopping or stopped; not retriable here."""


class WorkerFailedError(FleetError):
    """A block exhausted its failover budget across worker deaths.

    Retriable: the request was never partially applied — resubmitting
    is always safe (inference is idempotent)."""


class NoHealthyWorkersError(FleetError):
    """No healthy worker is in rotation right now.  Retriable — the
    monitor restarts dead workers in the background."""


class RequestTimeoutError(FleetError):
    """A dispatched block got no reply within ``request_timeout_ms``."""


class RolloutError(FleetError):
    """A rolling rollout was refused or rolled back; the fleet keeps
    serving the previous artifact."""


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the router and its worker processes."""

    #: how many worker processes to run; each spawned worker's
    #: BLAS/OpenMP pool is sized to its share of the cores
    #: (:func:`worker_thread_env`) unless ``OPENBLAS_NUM_THREADS``,
    #: ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is set explicitly
    workers: int = 4
    #: per-worker daemon configuration (batcher, queue depth, threads)
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: fleet-wide per-tenant bound on admitted images; 0 derives
    #: ``workers * serve.queue_depth``
    max_inflight: int = 0
    #: failover budget: re-dispatches of one block after worker deaths
    max_retries: int = 3
    #: monitor cadence for pings and liveness checks
    heartbeat_interval_ms: float = 200.0
    #: a worker whose last pong is older than this is declared hung
    heartbeat_timeout_ms: float = 5000.0
    #: client-visible bound on one block's end-to-end wait
    request_timeout_ms: float = 60000.0
    #: rollout: bound on waiting for one worker's traffic to drain
    drain_timeout_ms: float = 30000.0
    #: rollout: minimum fraction of workers that must stay in rotation
    availability_floor: float = 0.5
    #: per-worker restart budget before it stays dead
    max_restarts: int = 5
    #: backoff policy used by :meth:`FleetRouter.submit_retrying` and
    #: the CLI client paths
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: consecutive failures that open a worker's circuit breaker
    breaker_failures: int = 5
    #: cool-down before an open breaker admits its half-open probe
    breaker_reset_ms: float = 2000.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0.0 <= self.availability_floor <= 1.0:
            raise ValueError(
                "availability_floor must be within [0, 1], got "
                f"{self.availability_floor}"
            )
        if self.breaker_failures < 1:
            raise ValueError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.breaker_reset_ms <= 0:
            raise ValueError(
                f"breaker_reset_ms must be positive, got "
                f"{self.breaker_reset_ms}"
            )

    @property
    def tenant_inflight_bound(self) -> int:
        return self.max_inflight or self.workers * self.serve.queue_depth


@dataclass
class _TenantSpec:
    """What the router knows about one tenant namespace."""

    artifact: str          # what workers serve (manifest-hash ref if store)
    source: str            # what the caller registered (may be a mutable ref)
    cache_size: Optional[int] = None
    strategy: str = "gemm"
    threads: Optional[int] = None


class _Pending:
    """One dispatched frame awaiting its reply (serve or control)."""

    __slots__ = (
        "ident", "tenant", "count", "frame", "handle", "attempts",
        "event", "reply", "arrays", "error",
    )

    def __init__(
        self,
        ident: int,
        tenant: Optional[str],
        count: int,
        frame: bytes,
        handle: "_WorkerHandle",
    ) -> None:
        self.ident = ident
        self.tenant = tenant      # None for control-plane calls
        self.count = count        # images riding on this frame
        self.frame = frame        # re-sent verbatim on failover
        self.handle = handle
        self.attempts = 0
        self.event = threading.Event()
        self.reply: Optional[Dict] = None
        self.arrays: Optional[Dict] = None
        self.error: Optional[BaseException] = None


class _WorkerHandle:
    """Router-side state of one worker process."""

    def __init__(self, name: str, breaker: CircuitBreaker) -> None:
        self.name = name
        self.process = None
        self.conn = None
        self.receiver: Optional[threading.Thread] = None
        self.send_lock = threading.Lock()
        self.alive = False
        self.draining = False
        self.restarts = 0
        self.last_pong = 0.0
        self.breaker = breaker
        self.tenants: Dict[str, str] = {}   # tenant -> registered artifact
        self.outstanding: Dict[str, int] = {}  # tenant -> images in flight

    @property
    def available(self) -> bool:
        return self.alive and not self.draining

    def total_outstanding(self) -> int:
        return sum(self.outstanding.values())


@dataclass(frozen=True)
class RolloutResult:
    """What one rolling rollout did, worker by worker."""

    tenant: str
    old_artifact: str
    new_artifact: str
    old_manifest: Optional[str]
    new_manifest: Optional[str]
    flipped: Tuple[str, ...]
    seconds: float

    def to_dict(self) -> Dict:
        return {
            "tenant": self.tenant,
            "old_artifact": self.old_artifact,
            "new_artifact": self.new_artifact,
            "old_manifest": self.old_manifest,
            "new_manifest": self.new_manifest,
            "flipped": list(self.flipped),
            "seconds": self.seconds,
        }


def _pin_artifact(artifact: str) -> Tuple[str, Optional[str], Optional[ArtifactStore]]:
    """Resolve a store ref to its manifest-hash form.

    Returns ``(pinned artifact, manifest hash, store)``; plain ``.npz``
    paths pass through unchanged with ``(path, None, None)``.  Pinning
    to the hash is what makes fleet membership immutable: a concurrent
    ``refs/<name>`` flip cannot change what an already-registered
    worker serves — only :meth:`FleetRouter.rollout` can.
    """
    ref = StoreRef.coerce(artifact)
    if ref is None:
        return str(artifact), None, None
    store = ArtifactStore(ref.root, create=False)
    manifest_hash = store.resolve(ref.name)
    return f"{ref.root}#{manifest_hash}", manifest_hash, store


class FleetRouter:
    """Multi-process serving fleet behind one thread-safe ``submit``.

    Usage::

        config = FleetConfig(workers=4, serve=ServeConfig(max_batch=256))
        with FleetRouter(config) as fleet:
            fleet.register("prod", "models#prod")       # all workers
            logits = fleet.submit("prod", images)       # (B, classes)
            fleet.rollout("prod", "models#candidate")   # one worker at a time
            print(fleet.status())
    """

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()
        # spawn: workers inherit no locks or event loops, and each starts
        # a fresh interpreter, so the worker_thread_env BLAS pins apply
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._workers: List[_WorkerHandle] = [
            _WorkerHandle(
                f"w{index}",
                CircuitBreaker(
                    failure_threshold=self.config.breaker_failures,
                    reset_after_ms=self.config.breaker_reset_ms,
                ),
            )
            for index in range(self.config.workers)
        ]
        self._tenants: Dict[str, _TenantSpec] = {}
        self._pending: Dict[int, _Pending] = {}
        self._ids = itertools.count()
        self._tenant_inflight: Dict[str, int] = {}
        self._rollout_lock = threading.Lock()
        self._monitor: Optional[threading.Thread] = None
        self._started = False
        self._stopping = False
        # fleet-level counters (under self._lock)
        self.counters: Dict[str, int] = {
            "dispatched": 0,      # serve frames sent (incl. re-dispatch)
            "rebalanced": 0,      # retries after a worker-level queue_full
            "failovers": 0,       # re-dispatches after a worker death
            "worker_deaths": 0,
            "restarts": 0,
            "rejected": 0,        # fleet-level admission rejections
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetRouter":
        """Spawn every worker process and the health monitor."""
        if self._started:
            return self
        self._started = True
        for handle in self._workers:
            self._spawn(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) one worker process on a fresh pipe."""
        router_end, worker_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_main,
            args=(worker_end, handle.name, self.config.serve),
            name=f"repro-fleet-{handle.name}",
            daemon=True,
        )
        with _SPAWN_ENV_LOCK:
            # the child inherits os.environ at start; the router's own
            # environment is restored as soon as the child is running
            unset = [n for n in BLAS_THREAD_VARS if n not in os.environ]
            os.environ.update(worker_thread_env(self.config.workers))
            try:
                process.start()
            finally:
                for name in unset:
                    os.environ.pop(name, None)
        worker_end.close()  # the child holds its own copy
        handle.process = process
        handle.conn = router_end
        handle.alive = True
        handle.last_pong = time.monotonic()
        handle.outstanding = {}
        handle.tenants = {}
        handle.receiver = threading.Thread(
            target=self._receive_loop,
            args=(handle, router_end),
            name=f"fleet-recv-{handle.name}",
            daemon=True,
        )
        handle.receiver.start()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut the fleet down; ``drain=True`` flushes admitted work."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            workers = [h for h in self._workers if h.alive]
        for handle in workers:
            try:
                self._call(
                    handle, {"op": "stop", "drain": drain}, timeout=timeout
                )
            except FleetError:
                pass  # already dead or wedged; killed below
        deadline = time.monotonic() + timeout
        for handle in workers:
            process = handle.process
            if process is None:
                continue
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(5.0)
        with self._lock:
            pendings = list(self._pending.values())
            self._pending.clear()
        for pending in pendings:
            pending.error = FleetClosedError("fleet stopped")
            pending.event.set()

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def register(
        self,
        tenant: str,
        artifact: str,
        cache_size: Optional[int] = None,
        strategy: str = "gemm",
        threads: Optional[int] = None,
    ) -> str:
        """Register a tenant on every worker; returns the pinned artifact.

        Store refs are resolved to their manifest hash *here*, once, so
        all workers provably serve the same version and later ref flips
        go through :meth:`rollout`, never through a race.  ``threads``
        pins the contraction-engine thread count on every worker.
        """
        if not self._started:
            raise FleetError("start() the router before registering tenants")
        pinned, _, _ = _pin_artifact(artifact)
        spec = _TenantSpec(
            artifact=pinned, source=str(artifact),
            cache_size=cache_size, strategy=strategy, threads=threads,
        )
        with self._lock:
            self._tenants[tenant] = spec
            workers = [h for h in self._workers if h.alive]
        for handle in workers:
            self._register_on(handle, tenant, spec)
        return pinned

    def _register_on(
        self, handle: _WorkerHandle, tenant: str, spec: _TenantSpec,
        artifact: Optional[str] = None,
    ) -> None:
        artifact = artifact or spec.artifact
        self._call(
            handle,
            {
                "op": "register", "tenant": tenant, "artifact": artifact,
                "cache_size": spec.cache_size, "strategy": spec.strategy,
                "threads": spec.threads,
            },
            timeout=self.config.request_timeout_ms / 1e3,
        )
        handle.tenants[tenant] = artifact

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, tenant: str, images: np.ndarray) -> np.ndarray:
        """Serve one ``(B, C, H, W)`` image block; returns its logits.

        Thread-safe and blocking.  Raises
        :class:`~repro.serve.daemon.QueueFullError` (retriable) under
        backpressure, :class:`WorkerFailedError` /
        :class:`NoHealthyWorkersError` (retriable) when failover is
        exhausted, and :class:`FleetClosedError` after shutdown began.
        """
        images = np.ascontiguousarray(np.asarray(images, dtype=np.float32))
        if images.ndim < 2 or images.shape[0] < 1:
            raise ValueError(
                f"expected a non-empty (B, ...) image block, got shape "
                f"{images.shape}"
            )
        count = images.shape[0]
        with self._lock:
            if self._stopping or not self._started:
                raise FleetClosedError("fleet is not serving")
            if tenant not in self._tenants:
                raise KeyError(
                    f"tenant {tenant!r} is not registered with the fleet "
                    f"(known: {sorted(self._tenants) or 'none'})"
                )
            inflight = self._tenant_inflight.get(tenant, 0)
            bound = self.config.tenant_inflight_bound
            if inflight + count > bound and inflight > 0:
                self.counters["rejected"] += 1
                error = QueueFullError(
                    f"fleet admission for tenant {tenant!r} is full "
                    f"({inflight}/{bound} images in flight, {count} "
                    "offered); back off and retry"
                )
                error.worker = None
                error.workers = ()
                raise error
            self._tenant_inflight[tenant] = inflight + count
        try:
            return self._submit_admitted(tenant, images, count)
        finally:
            with self._lock:
                remaining = self._tenant_inflight.get(tenant, 0) - count
                if remaining > 0:
                    self._tenant_inflight[tenant] = remaining
                else:
                    self._tenant_inflight.pop(tenant, None)

    def submit_retrying(
        self,
        tenant: str,
        images: np.ndarray,
        policy: Optional[RetryPolicy] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """:meth:`submit` under the fleet's unified retry policy.

        Retries exactly the retriable failure classes — backpressure
        (:class:`~repro.serve.daemon.QueueFullError`), exhausted
        failover (:class:`WorkerFailedError`), and a momentarily empty
        rotation (:class:`NoHealthyWorkersError`) — with exponential
        backoff, never sleeping past ``deadline_ms``.  Fatal errors and
        :class:`FleetClosedError` propagate immediately.
        """
        policy = policy or self.config.retry
        return policy.call(
            lambda: self.submit(tenant, images),
            retriable=(
                QueueFullError, NoHealthyWorkersError, WorkerFailedError,
            ),
            deadline_ms=deadline_ms,
        )

    def _submit_admitted(
        self, tenant: str, images: np.ndarray, count: int
    ) -> np.ndarray:
        timeout = self.config.request_timeout_ms / 1e3
        rejected_by: List[str] = []
        last_rejection: Optional[str] = None
        while True:
            with self._lock:
                handle = self._pick_worker(tenant, exclude=rejected_by)
            if handle is None:
                if rejected_by:
                    error = QueueFullError(
                        f"every healthy worker rejected tenant {tenant!r} "
                        f"({', '.join(rejected_by)}): {last_rejection}"
                    )
                    error.worker = rejected_by[-1]
                    error.workers = tuple(rejected_by)
                    raise error
                raise NoHealthyWorkersError(
                    "no healthy worker is in rotation; retry shortly"
                )
            ident = next(self._ids)
            frame = encode_frame(
                {"op": "serve", "id": ident, "tenant": tenant},
                {"images": images},
            )
            pending = _Pending(ident, tenant, count, frame, handle)
            with self._lock:
                self._pending[ident] = pending
                handle.outstanding[tenant] = (
                    handle.outstanding.get(tenant, 0) + count
                )
                self.counters["dispatched"] += 1
            if not self._send(handle, frame):
                # the worker died under us: the death handler re-queues
                # this pending; fall through to the shared wait
                self._on_worker_death(handle)
            for spec in faults.dispatch_faults("fleet.dispatch"):
                # chaos harness: kill the worker this block just landed
                # on (or stall the dispatcher); the death/redispatch
                # machinery under test must recover without wrong bits
                if spec.kind == "kill" and handle.process is not None:
                    handle.process.kill()
                elif spec.kind == "delay":
                    time.sleep(spec.delay_ms / 1e3)
            if not pending.event.wait(timeout):
                with self._lock:
                    self._pending.pop(ident, None)
                    self._forget_outstanding(pending)
                raise RequestTimeoutError(
                    f"tenant {tenant!r} block of {count} images got no "
                    f"reply within {timeout:.0f}s (worker "
                    f"{pending.handle.name})"
                )
            if pending.error is not None:
                raise pending.error
            reply = pending.reply or {}
            if reply.get("ok"):
                pending.handle.breaker.record_success()
                return pending.arrays["logits"]
            if reply.get("kind") == "queue_full":
                rejected_by.append(pending.handle.name)
                last_rejection = reply.get("error")
                with self._lock:
                    self.counters["rebalanced"] += 1
                continue
            if reply.get("kind") == "closed":
                # the worker's daemon is shutting down (it is being
                # restarted or stopped); treat like a death-retry
                rejected_by.append(pending.handle.name)
                last_rejection = reply.get("error")
                continue
            # fatal serve reply: the worker is up but failing requests —
            # exactly what the breaker's consecutive-failure count is for
            pending.handle.breaker.record_failure()
            raise FleetError(
                f"worker {pending.handle.name} failed tenant {tenant!r} "
                f"block: {reply.get('error', 'unknown error')}"
            )

    def _pick_worker(
        self, tenant: str, exclude: List[str]
    ) -> Optional[_WorkerHandle]:
        """Least-outstanding healthy worker for ``tenant`` (lock held).

        The candidate filter consults ``breaker.ready()`` (pure — it
        never consumes a half-open probe); only the worker actually
        chosen pays ``breaker.admit()``, so one open breaker's probe
        slot is spent on a real dispatch, never on being considered.
        """
        candidates = [
            handle for handle in self._workers
            if handle.available
            and handle.name not in exclude
            and handle.breaker.ready()
        ]
        if not candidates:
            return None
        chosen = min(
            candidates,
            key=lambda handle: (
                handle.outstanding.get(tenant, 0),
                handle.total_outstanding(),
                handle.name,
            ),
        )
        chosen.breaker.admit()
        return chosen

    def _forget_outstanding(self, pending: _Pending) -> None:
        """Drop a pending's load accounting (lock held)."""
        if pending.tenant is None:
            return
        handle = pending.handle
        remaining = handle.outstanding.get(pending.tenant, 0) - pending.count
        if remaining > 0:
            handle.outstanding[pending.tenant] = remaining
        else:
            handle.outstanding.pop(pending.tenant, None)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _send(self, handle: _WorkerHandle, frame: bytes) -> bool:
        try:
            with handle.send_lock:
                handle.conn.send_bytes(frame)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _call(
        self, handle: _WorkerHandle, message: Dict, timeout: float
    ) -> Dict:
        """Send one control-plane op and wait for its acknowledgement."""
        ident = next(self._ids)
        message = dict(message)
        message["id"] = ident
        frame = encode_frame(message)
        pending = _Pending(ident, None, 0, frame, handle)
        with self._lock:
            self._pending[ident] = pending
        if not self._send(handle, frame):
            with self._lock:
                self._pending.pop(ident, None)
            raise WorkerFailedError(
                f"worker {handle.name} is unreachable"
            )
        if not pending.event.wait(timeout):
            with self._lock:
                self._pending.pop(ident, None)
            raise RequestTimeoutError(
                f"worker {handle.name} did not acknowledge "
                f"{message['op']!r} within {timeout:.0f}s"
            )
        if pending.error is not None:
            raise pending.error
        reply = pending.reply or {}
        if not reply.get("ok"):
            raise FleetError(
                f"worker {handle.name} rejected {message['op']!r}: "
                f"{reply.get('error', 'unknown error')}"
            )
        return reply

    def _receive_loop(self, handle: _WorkerHandle, conn) -> None:
        """Drain one worker's replies until its pipe closes."""
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                message, arrays = decode_frame(data)
            except ValueError:
                break  # torn frame: treat the worker as failed
            if message.get("op") == "pong":
                handle.last_pong = time.monotonic()
                continue
            ident = message.get("id")
            with self._lock:
                pending = self._pending.pop(ident, None)
                if pending is not None:
                    self._forget_outstanding(pending)
            if pending is not None:
                pending.reply = message
                pending.arrays = arrays
                pending.event.set()
        self._on_worker_death(handle)

    # ------------------------------------------------------------------
    # Health, failover, restart
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        interval = self.config.heartbeat_interval_ms / 1e3
        timeout = self.config.heartbeat_timeout_ms / 1e3
        while not self._stopping:
            time.sleep(interval)
            if self._stopping:
                return
            for handle in self._workers:
                if not handle.alive:
                    continue
                process = handle.process
                if process is not None and not process.is_alive():
                    self._on_worker_death(handle)
                    continue
                if time.monotonic() - handle.last_pong > timeout:
                    # hung: the pipe is open but nothing answers.  Kill
                    # it so the pipe-close path reclaims its in-flight
                    # work, then restart it below.
                    if process is not None:
                        process.kill()
                    self._on_worker_death(handle)
                    continue
                self._send(handle, encode_frame({"op": "ping"}))

    def _on_worker_death(self, handle: _WorkerHandle) -> None:
        """Reclaim a dead worker's work and restart it (idempotent)."""
        with self._lock:
            if not handle.alive:
                return
            handle.alive = False
            handle.draining = False
            orphans = [
                pending for pending in self._pending.values()
                if pending.handle is handle
            ]
            for pending in orphans:
                self._pending.pop(pending.ident, None)
                self._forget_outstanding(pending)
            self.counters["worker_deaths"] += 1
            handle.breaker.record_failure()
            stopping = self._stopping
        try:
            handle.conn.close()
        except (OSError, AttributeError):
            pass
        for pending in orphans:
            if pending.tenant is None:
                pending.error = WorkerFailedError(
                    f"worker {handle.name} died during a control call"
                )
                pending.event.set()
            elif not stopping:
                self._redispatch(pending, died=handle)
            else:
                pending.error = FleetClosedError("fleet stopped")
                pending.event.set()
        if not stopping:
            self._restart(handle)

    def _redispatch(self, pending: _Pending, died: _WorkerHandle) -> None:
        """Move one in-flight block from a dead worker to a healthy peer."""
        pending.attempts += 1
        if pending.attempts > self.config.max_retries:
            pending.error = WorkerFailedError(
                f"block for tenant {pending.tenant!r} failed "
                f"{pending.attempts} workers (last: {died.name}); "
                "resubmit when the fleet recovers"
            )
            pending.event.set()
            return
        with self._lock:
            target = self._pick_worker(pending.tenant, exclude=[died.name])
            if target is not None:
                pending.handle = target
                self._pending[pending.ident] = pending
                target.outstanding[pending.tenant] = (
                    target.outstanding.get(pending.tenant, 0) + pending.count
                )
                self.counters["failovers"] += 1
                self.counters["dispatched"] += 1
        if target is None:
            pending.error = NoHealthyWorkersError(
                f"worker {died.name} died and no healthy peer can take "
                f"tenant {pending.tenant!r}'s block; retry shortly"
            )
            pending.event.set()
            return
        if not self._send(target, pending.frame):
            self._on_worker_death(target)

    def _restart(self, handle: _WorkerHandle) -> None:
        if handle.restarts >= self.config.max_restarts:
            return
        handle.restarts += 1
        with self._lock:
            self.counters["restarts"] += 1
            tenants = dict(self._tenants)
            # keep the fresh worker out of rotation until every tenant
            # is re-registered — a submit racing the re-registration
            # would otherwise see UnknownTenantError on the new process
            handle.draining = True
        self._spawn(handle)
        for tenant, spec in tenants.items():
            try:
                self._register_on(handle, tenant, spec)
            except FleetError:
                # it died again already; the monitor will come back
                return
        # a fresh, fully re-registered process earned a clean slate —
        # without this an open breaker would bench the healthy restart
        # for a full cool-down
        handle.breaker.record_success()
        handle.draining = False

    # ------------------------------------------------------------------
    # Rolling rollout
    # ------------------------------------------------------------------
    def rollout(self, tenant: str, artifact: str) -> RolloutResult:
        """Hot-swap ``tenant`` to ``artifact``, one worker at a time.

        Serialised per fleet.  For store refs, the old and new manifests
        are pinned for the whole flip (a concurrent ``gc`` can sweep
        neither version mid-rollout) and unpinned afterwards.  Each
        worker is drained, re-registered, probed (the new plan must
        compile and describe itself), and only then re-enters rotation;
        a probe failure re-registers the old artifact everywhere and
        raises :class:`RolloutError` with the fleet still serving the
        old version.  Traffic keeps flowing on the other workers
        throughout, bounded below by ``availability_floor``.
        """
        with self._rollout_lock:
            return self._rollout(tenant, artifact)

    def _rollout(self, tenant: str, artifact: str) -> RolloutResult:
        started = time.perf_counter()
        with self._lock:
            if self._stopping or not self._started:
                raise FleetClosedError("fleet is not serving")
            spec = self._tenants.get(tenant)
        if spec is None:
            raise KeyError(f"tenant {tenant!r} is not registered")
        new_pinned, new_hash, store = _pin_artifact(artifact)
        old_pinned = spec.artifact
        old_ref = StoreRef.coerce(old_pinned)
        old_hash = old_ref.name if old_ref is not None else None
        if new_pinned == old_pinned:
            return RolloutResult(
                tenant=tenant, old_artifact=old_pinned,
                new_artifact=new_pinned, old_manifest=old_hash,
                new_manifest=new_hash, flipped=(), seconds=0.0,
            )
        floor = math.ceil(
            self.config.availability_floor * len(self._workers)
        )
        pinned_targets: List[str] = []
        if store is not None:
            for manifest in filter(None, (old_hash, new_hash)):
                try:
                    store.pin(manifest)
                    pinned_targets.append(manifest)
                except KeyError:
                    pass  # old artifact lives in a different store
        flipped: List[_WorkerHandle] = []
        try:
            for handle in list(self._workers):
                with self._lock:
                    if not handle.alive:
                        continue
                    available = sum(
                        1 for peer in self._workers if peer.available
                    )
                    if available - 1 < floor:
                        raise RolloutError(
                            f"draining {handle.name} would leave "
                            f"{available - 1}/{len(self._workers)} workers "
                            f"in rotation, below the availability floor "
                            f"of {floor}"
                        )
                    handle.draining = True
                try:
                    self._drain(handle, tenant)
                    self._flip(handle, tenant, spec, new_pinned)
                finally:
                    handle.draining = False
                flipped.append(handle)
            # workers that restarted mid-rollout re-registered from the
            # (still-old) spec; converge them before committing
            for handle in list(self._workers):
                if handle.alive and handle.tenants.get(tenant) != new_pinned:
                    self._flip(handle, tenant, spec, new_pinned)
            with self._lock:
                self._tenants[tenant] = _TenantSpec(
                    artifact=new_pinned, source=str(artifact),
                    cache_size=spec.cache_size, strategy=spec.strategy,
                    threads=spec.threads,
                )
        except Exception as error:
            # roll back every worker no longer on the old artifact —
            # the flipped ones plus the one that failed mid-flip; the
            # fleet keeps serving the old version, never a mixed batch
            for handle in list(self._workers):
                if handle.alive and handle.tenants.get(tenant) != old_pinned:
                    try:
                        self._flip(handle, tenant, spec, old_pinned)
                    except FleetError:
                        pass  # restart will re-register the old spec
            if isinstance(error, (RolloutError, FleetClosedError)):
                raise
            raise RolloutError(
                f"rollout of tenant {tenant!r} to {new_pinned} rolled "
                f"back after {type(error).__name__}: {error}"
            ) from error
        finally:
            if store is not None:
                for manifest in pinned_targets:
                    try:
                        store.unpin(manifest)
                    except KeyError:
                        pass
        return RolloutResult(
            tenant=tenant, old_artifact=old_pinned, new_artifact=new_pinned,
            old_manifest=old_hash, new_manifest=new_hash,
            flipped=tuple(handle.name for handle in flipped),
            seconds=time.perf_counter() - started,
        )

    def _drain(self, handle: _WorkerHandle, tenant: str) -> None:
        """Wait until a draining worker has no images in flight."""
        deadline = time.monotonic() + self.config.drain_timeout_ms / 1e3
        while handle.alive and handle.total_outstanding() > 0:
            if time.monotonic() > deadline:
                raise RolloutError(
                    f"worker {handle.name} did not drain within "
                    f"{self.config.drain_timeout_ms / 1e3:.0f}s "
                    f"({handle.total_outstanding()} images in flight)"
                )
            time.sleep(0.002)

    def _flip(
        self,
        handle: _WorkerHandle,
        tenant: str,
        spec: _TenantSpec,
        artifact: str,
    ) -> None:
        """Re-register and probe one worker onto ``artifact``."""
        self._register_on(handle, tenant, spec, artifact=artifact)
        self._call(
            handle,
            {"op": "probe", "tenant": tenant},
            timeout=self.config.request_timeout_ms / 1e3,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthy_workers(self) -> List[str]:
        with self._lock:
            return [h.name for h in self._workers if h.available]

    def status(self, snapshots: bool = True) -> Dict:
        """JSON-ready fleet status: router state plus worker snapshots.

        Each worker row carries the router's view (health, restarts,
        outstanding images) and, with ``snapshots=True``, the worker's
        own daemon snapshot — whose tenant descriptors include the
        store fetch counters, so per-worker lazy-shard behaviour is
        visible here.
        """
        with self._lock:
            workers = {
                handle.name: {
                    "pid": (
                        handle.process.pid if handle.process else None
                    ),
                    "healthy": handle.alive,
                    "draining": handle.draining,
                    "restarts": handle.restarts,
                    "outstanding": dict(sorted(handle.outstanding.items())),
                    "tenants": dict(sorted(handle.tenants.items())),
                    "breaker": handle.breaker.to_dict(),
                    "last_pong_age_ms": (
                        (time.monotonic() - handle.last_pong) * 1e3
                        if handle.alive else None
                    ),
                }
                for handle in self._workers
            }
            tenants = {
                name: {
                    "artifact": spec.artifact,
                    "source": spec.source,
                    "inflight": self._tenant_inflight.get(name, 0),
                    "inflight_bound": self.config.tenant_inflight_bound,
                }
                for name, spec in sorted(self._tenants.items())
            }
            counters = dict(self.counters)
            alive = [h for h in self._workers if h.alive]
        if snapshots:
            for handle in alive:
                try:
                    reply = self._call(
                        handle, {"op": "snapshot"}, timeout=10.0
                    )
                except FleetError:
                    continue
                workers[handle.name]["snapshot"] = reply.get("snapshot")
        return {
            "workers": workers,
            "tenants": tenants,
            "counters": counters,
            "config": {
                "workers": self.config.workers,
                "max_batch": self.config.serve.max_batch,
                "max_wait_ms": self.config.serve.max_wait_ms,
                "queue_depth": self.config.serve.queue_depth,
                "max_inflight": self.config.tenant_inflight_bound,
                "max_retries": self.config.max_retries,
                "availability_floor": self.config.availability_floor,
                "breaker_failures": self.config.breaker_failures,
                "breaker_reset_ms": self.config.breaker_reset_ms,
                "retry": self.config.retry.to_dict(),
            },
        }
