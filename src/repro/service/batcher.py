"""Dynamic micro-batching: drain, fuse, extend, resolve.

The dispatcher is one daemon thread looping over a bounded request queue:

1. **Drain** — block for the first pending request, then keep collecting
   until either ``max_batch`` requests are in hand or ``max_wait_ms`` has
   elapsed since the first one (the classic latency/throughput dial of
   dynamic batching servers).
2. **Fuse** — group the batch by
   :attr:`~repro.service.request.AlignmentRequest.fuse_key` (scoring
   scheme + options); within a group, prepare each request (anchor
   selection) and fuse every anchor into one
   :class:`~repro.core.pipeline.ExtensionSpec`: each distinct sequence
   once (store-backed ones named by digest) plus one row per anchor.
3. **Extend** — *submit* the spec to the service's
   :class:`~repro.fleet.scheduler.FleetScheduler`, which places it on a
   lane (in-process engine, worker pool, or simulated GPU) and runs
   :func:`~repro.core.pipeline.extend_suffixes_shard` there — the
   configured registry engine, whose bin-aware executor keeps short and
   long extensions from *different requests* out of one lockstep batch.
   The dispatcher moves straight on to draining the next batch;
   resolution happens from the fleet's completion callback.  Because
   every lane runs the same shard kernel on identical inputs, the records
   stay bit-identical regardless of placement.
4. **Resolve** — split the per-anchor records back per request, fold each
   into a :class:`~repro.core.pipeline.FastzResult` and resolve its
   future.  Results are bit-identical to a direct ``run_fastz`` call
   because every extension task is independent of its batch-mates.

A poisoned request (bad codes, hostile anchors...) must only fail its own
future: preparation failures are caught per request, and if the *fused*
extension fails — poison, a pool shard that kept killing its workers, or
no lane left — the group is re-run in-process one request at a time so
the exception lands on the culprit alone.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from .. import obs
from ..align.arena import release_thread_arenas
from ..core.pipeline import (
    ExtensionSpec,
    extend_suffixes_shard,
    finish_fastz,
    prepare_fastz,
)
from .cache import ResultCache
from .request import AlignmentRequest
from .stats import StatsRecorder

__all__ = ["BatchPolicy", "DeadlineExceeded", "Dispatcher", "Pending"]


class DeadlineExceeded(Exception):
    """The request's deadline passed before it could be dispatched."""


@dataclass(frozen=True)
class BatchPolicy:
    """The dispatcher's latency/throughput dial."""

    #: Most requests fused into one dispatch (1 = no cross-request batching).
    max_batch: int = 32
    #: How long the dispatcher holds an under-full batch open for stragglers.
    max_wait_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")


@dataclass
class Pending:
    """One queued request with its resolution future and timing."""

    request: AlignmentRequest
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Absolute ``time.monotonic()`` deadline, or None.
    deadline: float | None = None
    #: Set by ``AlignmentService.align`` when the caller's result wait
    #: timed out after dispatch began: the work still runs (and is
    #: cached), but it is recorded ``abandoned`` instead of ``completed``.
    abandoned: bool = False
    #: Fleet dispatch class (interactive=0 overtakes batch=1); ordering
    #: only, never results.
    priority: int = 0

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


#: Queue marker: no further requests will arrive, exit after the queue
#: contents in front of it are handled.
_SENTINEL = object()


class Dispatcher:
    """The dispatcher thread body plus its control flags."""

    def __init__(
        self,
        requests: "queue.Queue",
        policy: BatchPolicy,
        cache: ResultCache,
        recorder: StatsRecorder,
        fleet,
    ) -> None:
        self._queue = requests
        self._policy = policy
        self._cache = cache
        self._recorder = recorder
        #: The :class:`~repro.fleet.scheduler.FleetScheduler` every fused
        #: group is submitted to; groups resolve from its completion
        #: callbacks, so the dispatcher pipelines group after group across
        #: the fleet's lanes instead of blocking on each.
        self._fleet = fleet
        #: When set, drained requests are cancelled instead of executed.
        self.abort = threading.Event()
        self.thread = threading.Thread(
            target=self._run, name="repro-align-dispatcher", daemon=True
        )

    def start(self) -> None:
        self.thread.start()

    def signal_shutdown(self) -> None:
        """Enqueue the sentinel; everything ahead of it still executes."""
        self._queue.put(_SENTINEL)

    # -- thread body ---------------------------------------------------------

    def _run(self) -> None:
        # A group the fleet refuses at submit is re-run on this thread,
        # warming its lockstep arenas; drop them when the thread retires
        # so the memory dies with it.
        try:
            while True:
                item = self._queue.get()
                if item is _SENTINEL:
                    return
                self._recorder.note_dequeued()
                batch, saw_sentinel = self._collect(item)
                try:
                    self._dispatch(batch)
                except BaseException:  # pragma: no cover - last-resort guard
                    for pending in batch:
                        if not pending.future.done():
                            pending.future.cancel()
                    raise
                if saw_sentinel:
                    return
        finally:
            release_thread_arenas()

    def _collect(self, first) -> tuple[list[Pending], bool]:
        """Drain up to ``max_batch`` requests within the ``max_wait`` window."""
        batch = [first]
        horizon = time.monotonic() + self._policy.max_wait_ms / 1e3
        while len(batch) < self._policy.max_batch:
            remaining = horizon - time.monotonic()
            if remaining <= 0:
                break
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _SENTINEL:
                return batch, True
            self._recorder.note_dequeued()
            batch.append(item)
        return batch, False

    def _dispatch(self, batch: list[Pending]) -> None:
        """Weed out dead requests, then execute the live ones fused."""
        now = time.monotonic()
        live: list[Pending] = []
        for pending in batch:
            if self.abort.is_set():
                if pending.future.cancel():
                    self._recorder.record_cancelled()
                continue
            if pending.expired:
                self._recorder.record_timed_out()
                if pending.future.set_running_or_notify_cancel():
                    pending.future.set_exception(
                        DeadlineExceeded("request deadline passed while queued")
                    )
                continue
            if pending.future.set_running_or_notify_cancel():
                self._recorder.record_queue_wait(now - pending.enqueued_at)
                live.append(pending)
            else:
                self._recorder.record_cancelled()
        if live:
            self._recorder.record_batch(len(live))
            with obs.span("service.dispatch", requests=len(live)):
                self._execute(live)

    # -- fused execution -----------------------------------------------------

    def _execute(self, batch: list[Pending]) -> None:
        groups: dict[object, list[Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.request.fuse_key, []).append(pending)
        for group in groups.values():
            self._execute_group(group)

    def _execute_group(self, group: list[Pending]) -> None:
        prepared = []
        with obs.span("service.fuse", requests=len(group)) as fuse_span:
            for pending in group:
                request = pending.request
                try:
                    prepared.append(
                        (
                            pending,
                            prepare_fastz(
                                request.target,
                                request.query,
                                request.config,
                                request.options,
                                anchors=request.anchors,
                                seed_table=request.seed_table,
                            ),
                        )
                    )
                except Exception as exc:
                    self._fail(pending, exc)
            fuse_span.set(
                prepared=len(prepared),
                anchors=sum(prep.n_anchors for _, prep in prepared),
            )
        if prepared:
            self._submit_group(prepared)

    def _submit_group(self, prepared) -> None:
        """Hand one fused group to the fleet; resolve from its callback.

        The dispatcher thread does not wait: the group's future carries a
        completion callback (running on a fleet worker thread) that
        slices the fused records back per request and resolves each
        future.  A group with any interactive member dispatches at
        interactive priority — one batch request must not demote the
        interactive requests fused with it.

        Failure degrades, never loses work: if the fleet refuses the
        group or its unit fails, the group is re-run one request at a
        time in-process, so a poisoned request fails alone and every
        other request still completes.
        """
        first = prepared[0][1]
        scheme, options, tile = first.scheme, first.options, first.tile
        spec = ExtensionSpec.fuse(
            (prep, pending.request.target_digest, pending.request.query_digest)
            for pending, prep in prepared
        )
        priority = min(pending.priority for pending, _ in prepared)

        def finish(fused) -> None:
            offset = 0
            for pending, prep in prepared:
                per_anchor = fused[offset : offset + prep.n_anchors]
                offset += prep.n_anchors
                try:
                    self._resolve(pending, prep, per_anchor)
                except Exception as exc:
                    self._fail(pending, exc)

        def degrade() -> None:
            for pending, prep in prepared:
                try:
                    per_anchor = extend_suffixes_shard(
                        prep.suffixes(), scheme, options, tile
                    )
                    self._resolve(pending, prep, per_anchor)
                except Exception as exc:
                    self._fail(pending, exc)

        try:
            future = self._fleet.submit(spec, scheme, options, tile, priority=priority)
        except Exception:
            degrade()
            return

        def on_done(fut) -> None:
            try:
                fused = fut.result()
            except BaseException:
                degrade()
            else:
                finish(fused)

        future.add_done_callback(on_done)

    def _resolve(self, pending: Pending, prep, per_anchor) -> None:
        with obs.span("service.resolve", anchors=prep.n_anchors):
            result = finish_fastz(prep, per_anchor)
            self._cache.put(pending.request.cache_key, result)
        if pending.abandoned:
            # The caller's result wait timed out after dispatch began: the
            # result is still cached, but nobody is waiting on it.
            self._recorder.record_abandoned()
            if not pending.future.done():
                pending.future.set_result(result)
            return
        self._recorder.record_completed(time.monotonic() - pending.enqueued_at)
        pending.future.set_result(result)

    def _fail(self, pending: Pending, exc: Exception) -> None:
        self._recorder.record_failed()
        pending.future.set_exception(exc)
