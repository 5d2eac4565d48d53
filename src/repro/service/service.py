"""The :class:`AlignmentService` façade: futures over a bounded queue.

Callers submit alignment jobs and get back
:class:`concurrent.futures.Future` objects; a single dispatcher thread
(:mod:`repro.service.batcher`) fuses queued jobs into bin-aware lockstep
batches and runs every batch through the service's
:class:`~repro.fleet.scheduler.FleetScheduler`.  The service adds the
production-shaped edges around that core:

* **result cache** — submissions are checked against a keyed LRU before
  queueing; a hit resolves the future immediately without touching the
  dispatcher (:mod:`repro.service.cache`);
* **backpressure** — the queue is bounded; a full queue rejects the
  submission with :class:`ServiceOverloaded` instead of buffering
  unboundedly;
* **admission control** — queued-but-unresolved sequence bytes are
  bounded (``max_inflight_bytes``); beyond the bound, submissions are
  load-shed with :class:`ServiceOverloaded` (HTTP 503 + ``Retry-After``)
  *before* they can melt the queue with multi-megabyte payloads;
* **execution lanes** — without ``fleet=`` the scheduler has one lane,
  the in-process engine; a pool lane
  (``fleet=[PoolBackend("pool0", workers=N)]``) is a
  :class:`~repro.core.pool.WorkerPool` that shards each fused batch
  across persistent worker processes, LPT-balanced by extension weight;
  results stay bit-identical on any lane, and a batch the pool cannot
  finish is re-run in-process;
* **deadlines** — a per-request ``timeout_s`` expires requests that are
  still queued when it elapses
  (:class:`~repro.service.batcher.DeadlineExceeded`);
* **graceful shutdown** — ``shutdown(drain=True)`` refuses new work,
  finishes everything queued, and joins the dispatcher;
  ``drain=False`` cancels queued requests instead;
* **isolation** — a poisoned request resolves only its own future.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from .. import obs
from ..core.options import FastzOptions
from ..core.pipeline import FastzResult, run_fastz
from ..core.pool import WorkerPool
from ..genome.sequence import Sequence
from ..lastz.config import LastzConfig
from ..seeding import Anchors
from ..store import ReferenceStore, StoredReference
from .batcher import BatchPolicy, DeadlineExceeded, Dispatcher, Pending
from .cache import ResultCache
from .request import AlignmentRequest
from .stats import ServiceStats, StatsRecorder

__all__ = [
    "AlignmentService",
    "DeadlineExceeded",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
]

#: Default admission-control bound on queued sequence bytes (256 MiB).
DEFAULT_MAX_INFLIGHT_BYTES = 256 * 1024 * 1024

#: Service-default engine: lockstep batches, the whole point of fusing.
_DEFAULT_OPTIONS = FastzOptions(engine="batched")


class ServiceError(Exception):
    """Base class for service-level submission failures."""


class ServiceOverloaded(ServiceError):
    """The service is at capacity; retry later (backpressure).

    Raised both when the bounded request queue is full and when admission
    control sheds the submission because too many sequence bytes are
    already in flight.  ``retry_after_s`` is the suggested backoff (the
    HTTP layer surfaces it as a ``Retry-After`` header).
    """

    def __init__(self, message: str, *, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceClosed(ServiceError):
    """The service is shutting down and no longer accepts submissions."""


class AlignmentService:
    """Concurrent alignment front end over the FastZ pipeline.

    Parameters
    ----------
    max_batch, max_wait_ms:
        The micro-batching policy: how many requests one dispatch may
        fuse, and how long an under-full batch waits for stragglers.
    max_queue:
        Bound on queued (undispatched) requests; submissions beyond it
        raise :class:`ServiceOverloaded`.
    max_inflight_bytes:
        Admission-control bound on the sequence bytes of queued-but-
        unresolved requests; submissions beyond it are load-shed with
        :class:`ServiceOverloaded`.  A request is always admitted when
        nothing is in flight, so a single large pair can still be served.
        ``None`` disables the bound.
    cache_entries:
        LRU result-cache capacity (0 disables caching).
    store:
        A :class:`~repro.store.ReferenceStore` (or its root path) backing
        align-by-digest submissions (``target_ref``/``query_ref``): a
        submission holds the stored handle, whose codes decode from the
        store's mmap, and whose target seeds from its persisted table,
        when the dispatcher prepares it; a pool lane publishes the codes
        to shared memory once so shard dispatch carries digests + windows.
        ``None`` (default) rejects by-ref submissions.
    config, options:
        Defaults applied to submissions that do not bring their own.
    fleet:
        The lanes fused extension batches run on: either a ready
        :class:`~repro.fleet.scheduler.FleetScheduler` (adopted; closed
        on shutdown) or a list of
        :class:`~repro.fleet.backends.FleetBackend`\\ s to build one from
        (its metrics then share this service's registry).  ``None``
        builds one in-process ``cpu0`` lane; a
        :class:`~repro.fleet.backends.PoolBackend` in the list shards
        each fused batch across its worker processes.  Results are
        bit-identical for any backend mix.

    Usable as a context manager; exit drains and shuts down.
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        max_inflight_bytes: int | None = DEFAULT_MAX_INFLIGHT_BYTES,
        cache_entries: int = 128,
        store: "ReferenceStore | str | None" = None,
        config: LastzConfig | None = None,
        options: FastzOptions = _DEFAULT_OPTIONS,
        fleet=None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if max_inflight_bytes is not None and max_inflight_bytes < 1:
            raise ValueError("max_inflight_bytes must be positive or None")
        self.policy = BatchPolicy(max_batch=max_batch, max_wait_ms=max_wait_ms)
        self._store = (
            store
            if store is None or isinstance(store, ReferenceStore)
            else ReferenceStore(store)
        )
        self.default_config = config or LastzConfig()
        self.default_options = options
        self.max_inflight_bytes = max_inflight_bytes
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._cache = ResultCache(cache_entries)
        self._recorder = StatsRecorder()
        self._lock = threading.Lock()
        self._closed = False
        self._inflight_bytes = 0
        self._inflight_gauge = self._recorder.registry.gauge(
            "repro_service_inflight_bytes",
            "Sequence bytes of queued-but-unresolved requests.",
        )
        # Imported here: repro.fleet imports this module.
        from ..fleet.backends import InProcessBackend
        from ..fleet.scheduler import FleetScheduler

        if fleet is None:
            fleet = [InProcessBackend("cpu0")]
        # An adopted scheduler is closed on shutdown; one built here puts
        # its counters in the registry /v1/metrics renders.
        self._fleet = (
            fleet
            if isinstance(fleet, FleetScheduler)
            else FleetScheduler(list(fleet), registry=self._recorder.registry)
        )
        self._dispatcher = Dispatcher(
            self._queue, self.policy, self._cache, self._recorder, self._fleet
        )
        self._dispatcher.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        target: Sequence | np.ndarray | None = None,
        query: Sequence | np.ndarray | None = None,
        config: LastzConfig | None = None,
        options: FastzOptions | None = None,
        *,
        anchors: Anchors | None = None,
        timeout_s: float | None = None,
        target_ref: str | None = None,
        query_ref: str | None = None,
        priority: int = 0,
    ) -> Future:
        """Enqueue one alignment job; returns a future of ``FastzResult``.

        Each side takes either raw codes (``target``/``query``) or a
        reference-store digest (``target_ref``/``query_ref``) — exactly
        one per side; by-ref needs a service constructed with ``store=``.
        Raises :class:`ServiceOverloaded` when the queue is full and
        :class:`ServiceClosed` after shutdown began.  ``timeout_s`` bounds
        how long the request may sit in the queue before it is expired
        with :class:`DeadlineExceeded`.  ``priority`` is the fleet
        dispatch class (:data:`~repro.fleet.scheduler.PRIORITY_INTERACTIVE`
        or :data:`~repro.fleet.scheduler.PRIORITY_BATCH`); it only affects
        ordering, never results.
        """
        return self._submit(
            target,
            query,
            config,
            options,
            anchors=anchors,
            timeout_s=timeout_s,
            target_ref=target_ref,
            query_ref=query_ref,
            priority=priority,
        )[0]

    def _resolve_side(
        self, value: Sequence | np.ndarray | None, ref: str | None
    ) -> Sequence | np.ndarray | StoredReference:
        """One side: the value as given, or the stored reference ``ref`` names.

        An unknown digest fails here; the handle decodes later, where the
        request is prepared.
        """
        if ref is None:
            if value is None:
                raise ValueError(
                    "each side needs either a sequence or a reference digest"
                )
            return value
        if value is not None:
            raise ValueError(
                "give a sequence or a reference digest per side, not both"
            )
        if self._store is None:
            raise ValueError(
                "align-by-ref requires a service configured with store="
            )
        return self._store.get(ref)

    def _submit(
        self,
        target: Sequence | np.ndarray | None = None,
        query: Sequence | np.ndarray | None = None,
        config: LastzConfig | None = None,
        options: FastzOptions | None = None,
        *,
        anchors: Anchors | None = None,
        timeout_s: float | None = None,
        target_ref: str | None = None,
        query_ref: str | None = None,
        priority: int = 0,
    ) -> tuple[Future, Pending | None]:
        """Submission core: returns the future plus its queue entry.

        The :class:`Pending` is ``None`` on a cache hit (nothing was
        queued); :meth:`align` uses it to mark work abandoned when the
        caller's result wait times out.
        """
        request = AlignmentRequest(
            target=self._resolve_side(target, target_ref),
            query=self._resolve_side(query, query_ref),
            config=config or self.default_config,
            options=options or self.default_options,
            anchors=anchors,
        )
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shut down")
            cached = self._cache.get(request.cache_key)
            if cached is not None:
                # Cache hits bypass the dispatcher entirely: count them as
                # their own event instead of a 0-latency completion, which
                # would collapse the latency percentiles under hot caches.
                future: Future = Future()
                self._recorder.record_submitted()
                self._recorder.record_cache_hit()
                future.set_result(cached)
                return future, None
            # Admission control: shed before queueing when the in-flight
            # sequence bytes would exceed the bound.  An empty service
            # always admits, so no single request is permanently too big.
            cost = request.nbytes
            if (
                self.max_inflight_bytes is not None
                and self._inflight_bytes > 0
                and self._inflight_bytes + cost > self.max_inflight_bytes
            ):
                self._recorder.record_shed()
                raise ServiceOverloaded(
                    f"{self._inflight_bytes} sequence bytes already in flight "
                    f"(bound {self.max_inflight_bytes}); retry later",
                    retry_after_s=1.0,
                )
            pending = Pending(request=request, priority=priority)
            if timeout_s is not None:
                pending.deadline = pending.enqueued_at + timeout_s
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                self._recorder.record_rejected()
                raise ServiceOverloaded(
                    f"request queue full ({self._queue.maxsize} pending)"
                ) from None
            self._inflight_bytes += cost
            self._inflight_gauge.set(self._inflight_bytes)
            self._recorder.record_submitted()
            self._recorder.note_enqueued()
        # The future resolves exactly once (result, exception or
        # cancellation), whatever path the request takes — release the
        # admission budget there, not at N scattered outcome sites.
        # Registered outside the lock: a future that resolved already
        # runs the callback synchronously, and _release re-takes the lock.
        pending.future.add_done_callback(lambda _f: self._release(cost))
        return pending.future, pending

    def _release(self, cost: int) -> None:
        with self._lock:
            self._inflight_bytes = max(0, self._inflight_bytes - cost)
            self._inflight_gauge.set(self._inflight_bytes)

    def align(
        self,
        target: Sequence | np.ndarray | None = None,
        query: Sequence | np.ndarray | None = None,
        config: LastzConfig | None = None,
        options: FastzOptions | None = None,
        *,
        anchors: Anchors | None = None,
        timeout_s: float | None = None,
        target_ref: str | None = None,
        query_ref: str | None = None,
    ) -> FastzResult:
        """Blocking convenience wrapper: submit and wait for the result.

        ``timeout_s`` is one budget for the whole call: time already
        spent queueing is deducted from the result wait (it used to be
        spent twice — once as the queue deadline, once as the ``result``
        timeout).  If the wait times out, still-queued work is cancelled
        and already-running work is marked abandoned so it is not counted
        ``completed`` when it eventually finishes.
        """
        start = time.monotonic()
        future, pending = self._submit(
            target,
            query,
            config,
            options,
            anchors=anchors,
            timeout_s=timeout_s,
            target_ref=target_ref,
            query_ref=query_ref,
        )
        if timeout_s is None:
            return future.result()
        remaining = timeout_s - (time.monotonic() - start)
        try:
            return future.result(timeout=max(0.0, remaining))
        except FutureTimeoutError:
            if pending is not None:
                pending.abandoned = True
                future.cancel()
            raise

    def align_stream(
        self,
        target: Sequence | np.ndarray | None = None,
        query: Sequence | np.ndarray | None = None,
        config: LastzConfig | None = None,
        options: FastzOptions | None = None,
        *,
        target_ref: str | None = None,
        query_ref: str | None = None,
        on_partial=None,
        should_abort=None,
    ) -> FastzResult:
        """Run one streamed alignment, on *this* thread.

        Streamed runs bypass the micro-batcher: the caller's thread (an
        HTTP handler, typically) runs :func:`~repro.core.pipeline.run_fastz`
        with ``on_partial``, which fires inline after each slice of
        anchors is extended.  The result is bit-identical to
        :meth:`align` with the same inputs.  ``should_abort`` is polled
        before each slice (the HTTP layer's graceful drain hooks in here)
        and aborts with :class:`~repro.core.pipeline.StreamAborted`.
        By-ref sides resolve against the store, and a by-ref target seeds
        from its persisted table, as in :meth:`align`.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shut down")
        target = self._resolve_side(target, target_ref)
        query = self._resolve_side(query, query_ref)
        self._recorder.record_submitted()
        start = time.monotonic()
        try:
            result = run_fastz(
                target,
                query,
                config or self.default_config,
                options or self.default_options,
                on_partial=on_partial,
                should_abort=should_abort,
            )
        except Exception:
            self._recorder.record_failed()
            raise
        finally:
            # The handler thread ran lockstep extension batches; drop its
            # thread-local arena slabs instead of pinning them to a
            # connection-lifetime thread.
            from ..align.arena import release_thread_arenas

            release_thread_arenas()
        self._recorder.record_completed(time.monotonic() - start)
        return result

    # -- introspection -------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of queue depth, latency and cache health."""
        pool = self.pool
        return self._recorder.snapshot(
            queue_depth=self._recorder.queue_depth,
            cache=self._cache.stats,
            pool=pool.stats() if pool is not None else None,
            fleet=self._fleet.stats(),
        )

    @property
    def pool(self) -> WorkerPool | None:
        """The first pool lane's worker pool, or None without a pool lane."""
        for backend in self._fleet.backends:
            if backend.kind == "pool":
                return backend.pool
        return None

    @property
    def fleet(self):
        """The :class:`~repro.fleet.scheduler.FleetScheduler` batches run on."""
        return self._fleet

    @property
    def store(self) -> ReferenceStore | None:
        """The reference store backing by-ref submissions, if configured."""
        return self._store

    def metrics_text(self) -> str:
        """Prometheus text exposition for the ``GET /metrics`` endpoint.

        Renders the recorder's registry (the same counters ``/stats``
        reads) plus, when process-wide observability is enabled, the
        global :mod:`repro.obs` registry (pipeline/gpusim families).
        """
        registry = self._recorder.registry
        cache = self._cache.stats
        cache_gauge = registry.gauge(
            "repro_service_cache", "Result-cache state by field."
        )
        cache_gauge.labels(field="hits").set(cache.hits)
        cache_gauge.labels(field="misses").set(cache.misses)
        cache_gauge.labels(field="evictions").set(cache.evictions)
        cache_gauge.labels(field="size").set(cache.size)
        cache_gauge.labels(field="capacity").set(cache.capacity)
        text = registry.render()
        if self._fleet.registry is not registry:
            # An externally-built scheduler keeps its own registry; splice
            # its families in so /v1/metrics stays the one scrape target.
            text += self._fleet.registry.render()
        pool = self.pool
        if pool is not None and pool.registry not in (registry, self._fleet.registry):
            # So does a pool lane built without either, e.g.
            # fleet=[PoolBackend("pool0", workers=N)].
            text += pool.registry.render()
        global_registry = obs.get_registry()
        if global_registry.enabled and global_registry is not registry:
            text += global_registry.render()
        return text

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and stop the dispatcher.

        ``drain=True`` completes every already-queued request first;
        ``drain=False`` cancels queued requests (their futures raise
        ``CancelledError``).  ``timeout`` bounds the whole wait (``None``
        waits for the drain to finish).  Idempotent.
        """
        with self._lock:
            already = self._closed
            self._closed = True
        if not already:
            if not drain:
                self._dispatcher.abort.set()
            self._dispatcher.signal_shutdown()
        deadline = None if timeout is None else time.monotonic() + timeout
        self._dispatcher.thread.join(timeout)
        self._fleet.close(
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )

    def __enter__(self) -> "AlignmentService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)
