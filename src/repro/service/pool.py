"""Sharded multiprocess execution backend for the alignment service.

The dispatcher's fused extension batches are CPU-bound numpy loops, so a
single process caps the service at roughly one core no matter how well
micro-batching amortises per-request overhead.  :class:`WorkerPool` keeps
``N`` persistent worker processes and, per fused batch, splits the batch's
anchor rows into LPT-balanced shards
(:func:`~repro.core.perfmodel.anchor_weights`, weight = wavefront extent)
dispatched one per worker — the SaLoBa workload-balance lever applied to
the online path.  A shard message carries code sources (shared-memory
handles for store-published references, inline codes otherwise) plus
``(ti, qi, t, q)`` rows; the worker rebuilds the suffix views with
:meth:`~repro.core.pipeline.ExtensionSpec.suffixes`.  Because every
extension task is independent, re-placing shard records by anchor index
reproduces the in-process result bit for bit at any worker count.

Robustness, with the patterns proven out by :mod:`repro.jobs.scheduler`:

* **warm per-worker caches** — the scoring scheme / options / tile of a
  fuse group are shipped once per worker and cached by digest, so steady
  traffic pays one small key per dispatch instead of re-pickling the
  scheme every batch (workers are persistent precisely so process-local
  state stays warm);
* **death detection + respawn + re-dispatch** — a worker that dies
  (segfault, OOM-kill, SIGKILL) is detected by process liveness, a
  replacement is spawned into its slot, and the in-flight shard is
  re-dispatched, so the requests in that batch still complete; a shard
  that repeatedly kills its workers stops after ``max_redispatch``
  attempts with :class:`PoolError` instead of respawning forever;
* **graceful degradation** — a shard that keeps killing its workers
  fails only its batch with :class:`PoolError` (the service re-runs it
  in-process and the pool keeps serving); :class:`PoolUnavailable`
  (pool closed, or a dead worker cannot be replaced) means the pool
  itself is gone.

A shard whose *handler* raises (poisoned request) is reported as a
failure message, not a death: ``extend_spec`` raises ``RuntimeError`` and
the dispatcher's existing per-request isolation takes over.

Test hook (inert unless set): ``REPRO_POOL_TEST_KILL_WORKER`` is a
comma-separated list of worker ids that ``os._exit(137)`` on their first
task receipt — SIGKILL semantics placed deterministically mid-batch.
Worker ids increment across respawns, so a replacement never re-matches
its predecessor's id.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Any

from ..align.arena import release_thread_arenas
from ..core.multigpu import greedy_partition
from ..core.perfmodel import anchor_weights
from ..core.pipeline import ExtensionSpec, extend_suffixes_shard
from ..obs.metrics import MetricsRegistry
from ..store.shm import ShmPublisher, attach_codes, release_attachments

__all__ = ["PoolError", "PoolUnavailable", "WorkerPool"]

#: Test hook: comma-separated worker ids that hard-exit on first task.
_KILL_ENV = "REPRO_POOL_TEST_KILL_WORKER"

#: Dispatch-latency histogram boundaries (seconds).
_DISPATCH_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class PoolError(RuntimeError):
    """The pool cannot execute this batch; run it in-process instead."""


class PoolUnavailable(PoolError):
    """The pool itself is gone: closed, or a dead worker cannot be replaced."""


def _kill_ids() -> set[str]:
    raw = os.environ.get(_KILL_ENV, "")
    return {part.strip() for part in raw.split(",") if part.strip()}


def _resolve_sources(sources) -> list:
    """Materialise a dispatch message's code sources in a worker.

    ``("shm", name, length)`` attaches to the parent's published segment
    (cached per process by :func:`repro.store.attach_codes`, so repeated
    shards over the same reference map it once); ``("inline", codes)``
    arrived pickled in the message itself — the fallback for sequences
    that were never registered with the store.
    """
    out = []
    for src in sources:
        if src[0] == "shm":
            _kind, name, length = src
            out.append(attach_codes(name, length))
        else:
            out.append(src[1])
    return out


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker loop: one shard at a time, failures reported not raised.

    Polls with a timeout so an orphaned worker (coordinator hard-killed,
    skipping the atexit reaping of daemon children) notices the
    re-parenting and exits instead of blocking on the queue forever.

    Each worker implicitly keeps the pipeline's warm lockstep arenas
    (:func:`repro.align.thread_arena`) alive between shards — the
    process-resident analogue of the device buffers a GPU stream would
    own — and drops them on the clean-shutdown path.  Work arrives as
    ``(sources, rows)``: the shard's rows of an
    :class:`~repro.core.pipeline.ExtensionSpec` over code sources that
    resolve here — megabytes of shared sequence shrink to a name.
    """
    parent = os.getppid()
    warm: dict[str, tuple] = {}
    while True:
        try:
            item = task_q.get(timeout=2.0)
        except queue_mod.Empty:
            if os.getppid() != parent:
                release_thread_arenas()
                release_attachments()
                return
            continue
        if item is None:
            release_thread_arenas()
            release_attachments()
            return
        job_id, shard_id, key, params, (sources, rows) = item
        if str(worker_id) in _kill_ids():
            os._exit(137)
        try:
            if params is not None:
                warm[key] = params
            scheme, options, tile = warm[key]
            spec = ExtensionSpec(tuple(_resolve_sources(sources)), rows)
            records = extend_suffixes_shard(spec.suffixes(), scheme, options, tile)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            result_q.put(
                ("fail", job_id, shard_id, f"{type(exc).__name__}: {exc}")
            )
        else:
            result_q.put(("done", job_id, shard_id, records))


@dataclass
class _Worker:
    proc: multiprocessing.Process
    task_q: Any
    worker_id: int
    #: Fuse-group keys whose (scheme, options, tile) this worker has
    #: cached; dies with the process.
    seen: set
    #: (job_id, shard_id) in flight, or None when idle.
    current: tuple[int, int] | None = None


class WorkerPool:
    """``N`` persistent extension workers behind one dispatch call.

    ``extend_spec`` is synchronous and called from one thread at a time
    (the pool lane's worker); ``close`` may be called from any thread.
    """

    def __init__(
        self,
        workers: int,
        *,
        registry: MetricsRegistry | None = None,
        max_redispatch: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_redispatch < 0:
            raise ValueError("max_redispatch must be non-negative")
        self.n_workers = workers
        self.max_redispatch = max_redispatch
        self.registry = registry if registry is not None else MetricsRegistry()
        self.dispatches = 0
        self.respawns = 0
        self.redispatches = 0
        self.degraded = 0
        self._gauge = self.registry.gauge(
            "repro_service_pool_workers", "Pool worker processes by state."
        )
        self._respawn_counter = self.registry.counter(
            "repro_service_pool_respawns_total",
            "Dead pool workers replaced with fresh processes.",
        )
        self._shard_counter = self.registry.counter(
            "repro_service_pool_shards_total",
            "Extension shards dispatched, by worker slot.",
        )
        self._redispatch_counter = self.registry.counter(
            "repro_service_pool_redispatched_total",
            "In-flight shards re-dispatched after a worker death.",
        )
        self._degraded_counter = self.registry.counter(
            "repro_service_pool_degraded_total",
            "Fused batches that fell back to the in-process backend.",
        )
        self._dispatch_seconds = self.registry.histogram(
            "repro_service_pool_dispatch_seconds",
            "Wall time of fused-batch dispatches through the pool.",
            buckets=_DISPATCH_BUCKETS,
        )
        self._ctx = multiprocessing.get_context()
        self._result_q = self._ctx.Queue()
        self._ids = itertools.count()
        self._jobs = itertools.count()
        self._closed = False
        #: Parent-owned shared-memory registry for store-backed references;
        #: dispatch specs carry ("shm", name, length) instead of codes.
        self._shm = ShmPublisher()
        self._workers = [self._spawn() for _ in range(workers)]
        self._set_worker_gauges()

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> _Worker:
        worker_id = next(self._ids)
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_q, self._result_q),
            name=f"repro-pool-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        return _Worker(proc=proc, task_q=task_q, worker_id=worker_id, seen=set())

    def _respawn(self, slot: int) -> None:
        self.respawns += 1
        self._respawn_counter.inc()
        try:
            self._workers[slot] = self._spawn()
        except Exception as exc:  # pragma: no cover - OS resource exhaustion
            raise PoolUnavailable(f"cannot respawn pool worker: {exc}") from exc
        self._set_worker_gauges()

    def _set_worker_gauges(self) -> None:
        self._gauge.labels(state="configured").set(self.n_workers)
        self._gauge.labels(state="alive").set(self.n_alive)

    @property
    def n_alive(self) -> int:
        return sum(1 for w in self._workers if w.proc.is_alive())

    @property
    def worker_pids(self) -> list[int]:
        return [w.proc.pid for w in self._workers]

    @property
    def closed(self) -> bool:
        return self._closed

    def note_degraded(self) -> None:
        """Record one batch that fell back in-process after a PoolError."""
        self.degraded += 1
        self._degraded_counter.inc()

    def stats(self) -> dict:
        """JSON-ready pool health for :class:`ServiceStats`."""
        return {
            "workers": self.n_workers,
            "alive": self.n_alive,
            "dispatches": self.dispatches,
            "respawns": self.respawns,
            "redispatches": self.redispatches,
            "degraded": self.degraded,
        }

    def close(self, timeout: float = 2.0) -> None:
        """Stop every worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            try:
                w.task_q.put_nowait(None)
            except Exception:  # noqa: BLE001 - best-effort shutdown
                pass
        deadline = time.monotonic() + timeout
        for w in self._workers:
            w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
        self._result_q.close()
        self._result_q.cancel_join_thread()
        self._shm.close()
        self._set_worker_gauges()

    # -- shared-memory publication ------------------------------------------

    def publish(self, key: str, codes) -> tuple[str, int] | None:
        """Publish a reference's codes once; returns the worker handle.

        Idempotent per key; ``None`` (caller ships codes inline) when the
        publisher's byte cap is exhausted or the segment cannot be
        created.  Segments live until :meth:`close`.
        """
        if self._closed:
            return None
        return self._shm.publish(key, codes)

    # -- dispatch ------------------------------------------------------------

    def _send(self, slot: int, job_id: int, shard_id: int, key: str,
              params: tuple, work) -> None:
        worker = self._workers[slot]
        payload = None if key in worker.seen else params
        worker.seen.add(key)
        worker.current = (job_id, shard_id)
        worker.task_q.put((job_id, shard_id, key, payload, work))
        self._shard_counter.labels(slot=slot).inc()

    def extend_spec(self, sources, rows, scheme, options, tile: int, *, key: str):
        """Run one fused batch's extensions sharded across the workers.

        ``sources`` is a list of code sources — ``("shm", name, length)``
        handles from :meth:`publish` or ``("inline", codes)`` for
        unregistered sequences; ``rows`` is one ``(ti, qi, t, q)`` tuple
        per anchor, in anchor order, indexing into ``sources``.  Returns
        per-anchor extension records in anchor order, bit-identical to
        :func:`~repro.core.pipeline.extend_suffixes_shard` on the same
        batch.  Raises :class:`PoolError` when a shard keeps killing its
        workers, :class:`PoolUnavailable` when the pool is gone, and
        ``RuntimeError`` when a shard's handler failed (poisoned request).
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        n_anchors = len(rows)
        if n_anchors == 0:
            return []
        lengths = [src[2] if src[0] == "shm" else len(src[1]) for src in sources]
        idx_by_shard = []
        work_by_shard = []
        for part in greedy_partition(
            anchor_weights(lengths, rows), min(len(self._workers), n_anchors)
        ):
            if not part:
                continue
            idx = sorted(part)
            idx_by_shard.append(idx)
            work_by_shard.append((sources, [rows[k] for k in idx]))

        t0 = time.perf_counter()
        job_id = next(self._jobs)
        params = (scheme, options, tile)
        # Replace workers that died idle (e.g. killed between batches)
        # before handing them shards.
        for slot, worker in enumerate(self._workers):
            if not worker.proc.is_alive():
                self._respawn(slot)
        for shard_id, work in enumerate(work_by_shard):
            self._send(shard_id, job_id, shard_id, key, params, work)
        self.dispatches += 1

        done: dict[int, list] = {}
        failures: dict[int, str] = {}
        redispatched: dict[int, int] = {}
        while len(done) + len(failures) < len(work_by_shard):
            try:
                msg = self._result_q.get(timeout=0.02)
            except queue_mod.Empty:
                msg = None
            while msg is not None:
                kind, msg_job, shard_id, payload = msg
                for worker in self._workers:
                    if worker.current == (msg_job, shard_id):
                        worker.current = None
                # Stale deliveries (an aborted earlier job, or a shard the
                # death-reap already re-dispatched and resolved) are dropped.
                if msg_job == job_id and shard_id not in done and shard_id not in failures:
                    if kind == "done":
                        done[shard_id] = payload
                    else:
                        failures[shard_id] = payload
                try:
                    msg = self._result_q.get_nowait()
                except queue_mod.Empty:
                    msg = None

            for slot, worker in enumerate(self._workers):
                if worker.proc.is_alive():
                    continue
                current = worker.current
                self._respawn(slot)
                if current is None or current[0] != job_id:
                    continue
                shard_id = current[1]
                if shard_id in done or shard_id in failures:
                    continue
                redispatched[shard_id] = redispatched.get(shard_id, 0) + 1
                self.redispatches += 1
                self._redispatch_counter.inc()
                if redispatched[shard_id] > self.max_redispatch:
                    raise PoolError(
                        f"shard killed {redispatched[shard_id]} workers in a row"
                    )
                self._send(
                    slot, job_id, shard_id, key, params, work_by_shard[shard_id]
                )

        self._dispatch_seconds.observe(time.perf_counter() - t0)
        if failures:
            shard_id, error = sorted(failures.items())[0]
            raise RuntimeError(f"pool shard {shard_id} failed: {error}")

        out: list = [None] * n_anchors
        for shard_id, idx in enumerate(idx_by_shard):
            records = done[shard_id]
            for local, anchor in enumerate(idx):
                out[anchor] = records[local]
        return out
