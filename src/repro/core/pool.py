"""Worker processes: one lifecycle, two protocols on top of it.

Every worker process :mod:`repro` starts is started by
:class:`ProcessSlots`, which owns the lifecycle: **spawn** daemon workers
in fixed slots, each with its own task queue and all writing to one
result queue; run **one worker loop** (exit on a ``None`` sentinel or
when re-parented; a raised exception, or an answer that cannot be
pickled, becomes a failure message carrying its text and, when it
pickles, the exception, and never kills the worker); **reap** (respawn a
dead worker in its slot and hand back what it had in flight); **tear
down** (sentinel, join against one deadline, terminate stragglers).
Per-worker state travels once, in the process arguments — under
``fork`` it is inherited, not pickled.  :class:`InlineSlots` is the same
surface over one in-process slot.  Two protocols run on them: the one
scheduling loop of :func:`repro.jobs.scheduler.run_tasks` (units, retry,
split, quarantine; ``workers=0`` drives it over :class:`InlineSlots`)
and :class:`WorkerPool` — the service's pool lane
(:class:`~repro.fleet.backends.PoolBackend`) and, opened per call, the
``workers=`` paths of :func:`~repro.core.pipeline.run_fastz` and
:func:`~repro.core.streaming.run_fastz_streaming`.

The dispatcher's fused extension batches are CPU-bound numpy loops, so a
single process caps the service at roughly one core no matter how well
micro-batching amortises per-request overhead.  :class:`WorkerPool` keeps
``N`` persistent worker processes and, per fused batch, splits the batch's
anchor rows into LPT-balanced shards
(:func:`plan_shards`, weight = wavefront extent)
dispatched one per worker — the SaLoBa workload-balance lever applied to
the online path.  :meth:`WorkerPool.extend_spec` takes the batch's
:class:`~repro.core.pipeline.ExtensionSpec` and decides how each of its
sequences reaches the workers — this module is the only one that builds
or resolves a code source: a digest-named sequence is published once to
shared memory and travels as its handle, any other ships inline.  A
shard message carries those sources plus ``(ti, qi, t, q)`` rows; the
worker rebuilds the suffix views with
:meth:`~repro.core.pipeline.ExtensionSpec.suffixes`.  Because every
extension task is independent, re-placing shard records by anchor index
reproduces the in-process result bit for bit at any worker count.

Robustness, on top of the lifecycle it shares with
:mod:`repro.jobs.scheduler`:

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
failure message, not a death: ``extend_spec`` re-raises the worker's
exception — the type the in-process engine raises — and
the dispatcher's existing per-request isolation takes over.

Test hook (inert unless set): ``REPRO_POOL_TEST_KILL_WORKER`` is a
comma-separated list of :class:`WorkerPool` worker ids that
``os._exit(137)`` on their first
task receipt — SIGKILL semantics placed deterministically mid-batch.
Worker ids increment across respawns, so a replacement never re-matches
its predecessor's id.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue as queue_mod
import time

from ..align.arena import release_thread_arenas
from ..obs.metrics import MetricsRegistry
from ..store.shm import ShmPublisher, attach_codes, release_attachments
from .multigpu import greedy_partition
from .perfmodel import anchor_weights
from .pipeline import ExtensionSpec, extend_suffixes_shard

__all__ = [
    "InlineSlots",
    "PoolError",
    "PoolUnavailable",
    "ProcessSlots",
    "WorkerPool",
    "plan_shards",
]

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


# ---------------------------------------------------------------------------
# The lifecycle: spawn, worker loop, reap, teardown
# ---------------------------------------------------------------------------


def _failure(exc: Exception) -> tuple[str, Exception | None]:
    """A failure message's value: the error text, and the exception if it pickles."""
    text = f"{type(exc).__name__}: {exc}"
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure ships text only
        return text, None
    return text, exc


def _worker_loop(work, state, worker_id: int, task_q, result_q) -> None:
    """Worker loop: one item at a time, failures reported not raised.

    Polls with a timeout so an orphaned worker (coordinator hard-killed,
    skipping the atexit reaping of daemon children) notices the
    re-parenting and exits instead of blocking on the queue forever.

    Each message is ``(tag, payload)`` and runs ``work(state, worker_id,
    payload)``; each answer is ``(tag, ok, value, seconds)``, where a
    failed item's value is ``(text, exception or None)``.  A successful
    value ships pickled, so one that cannot be pickled fails its item
    here instead of being dropped by the queue's feeder thread, which
    would leave the caller waiting forever.  On exit the worker drops the
    lockstep arenas and shared-memory attachments its work left resident.
    """
    parent = os.getppid()
    while True:
        try:
            item = task_q.get(timeout=2.0)
        except queue_mod.Empty:
            if os.getppid() != parent:
                break
            continue
        if item is None:
            break
        tag, payload = item
        t0 = time.perf_counter()
        try:
            value = pickle.dumps(
                work(state, worker_id, payload), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            result_q.put((tag, False, _failure(exc), time.perf_counter() - t0))
        else:
            result_q.put((tag, True, value, time.perf_counter() - t0))
    release_thread_arenas()
    release_attachments()


def _retire(task_q) -> None:
    # A dead or stopped worker may leave messages unread: do not let
    # interpreter exit wait on the feeder thread that holds them.
    task_q.cancel_join_thread()
    task_q.close()


class ProcessSlots:
    """``n`` worker processes in fixed slots, one task queue each.

    ``work(state, worker_id, item)`` must be a module-level function;
    ``state`` is the caller's per-worker state and ``worker_id`` counts
    spawns, so a respawned slot gets a new id.  A slot is busy from
    :meth:`send` until :meth:`wait` returns the answer carrying the same
    tag, so tags must be unique among items in flight.  One thread drives
    a set of slots.
    """

    def __init__(self, n: int, work, state, *, name: str) -> None:
        self._ctx = multiprocessing.get_context()
        self._work = work
        self._state = state
        self._name = name
        self._ids = itertools.count()
        self._results = self._ctx.Queue()
        self._procs: list = []
        self._queues: list = []
        for _ in range(n):
            proc, task_q = self._start()
            self._procs.append(proc)
            self._queues.append(task_q)
        self._inflight: list = [None] * n

    def _start(self):
        worker_id = next(self._ids)
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(self._work, self._state, worker_id, task_q, self._results),
            name=f"{self._name}-{worker_id}",
            daemon=True,
        )
        proc.start()
        return proc, task_q

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self._procs]

    @property
    def n_alive(self) -> int:
        return sum(1 for proc in self._procs if proc.is_alive())

    def idle(self) -> list[int]:
        """Slots with nothing in flight."""
        return [slot for slot, tag in enumerate(self._inflight) if tag is None]

    def send(self, slot: int, tag, item) -> None:
        self._inflight[slot] = tag
        self._queues[slot].put((tag, item))

    def wait(self, timeout: float) -> list[tuple]:
        """Answers so far, blocking up to ``timeout`` for the first one."""
        out = []
        try:
            out.append(self._results.get(timeout=timeout))
            while True:
                out.append(self._results.get_nowait())
        except queue_mod.Empty:
            pass
        for tag, *_ in out:
            self._inflight = [None if busy == tag else busy for busy in self._inflight]
        return [
            (tag, ok, pickle.loads(value) if ok else value, seconds)
            for tag, ok, value, seconds in out
        ]

    def reap(self) -> list[tuple]:
        """Respawn dead workers in place: ``(slot, tag in flight, exit code)`` each.

        Raises ``OSError`` when a replacement cannot be started.
        """
        dead = []
        for slot, proc in enumerate(self._procs):
            if proc.is_alive():
                continue
            dead.append((slot, self._inflight[slot], proc.exitcode))
            _retire(self._queues[slot])
            self._inflight[slot] = None
            self._procs[slot], self._queues[slot] = self._start()
        return dead

    def close(self, timeout: float = 2.0) -> None:
        """Stop every worker; stragglers past ``timeout`` are terminated."""
        for task_q in self._queues:
            try:
                task_q.put_nowait(None)
            except Exception:  # noqa: BLE001 - best-effort shutdown
                pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for task_q in self._queues:
            _retire(task_q)
        self._results.close()
        self._results.cancel_join_thread()


class InlineSlots:
    """One in-process slot with the :class:`ProcessSlots` surface.

    :meth:`wait` runs the item sent in the calling thread and reports a
    raised exception through :func:`_failure`, as the worker loop does;
    answers are not pickled.  With nothing sent it sleeps out its timeout,
    so a caller's backoff still passes.  Nothing here can die, so
    :meth:`reap` returns nothing.
    """

    def __init__(self, work, state) -> None:
        self._work = work
        self._state = state
        self._sent: tuple | None = None

    def idle(self) -> list[int]:
        return [0] if self._sent is None else []

    def send(self, slot: int, tag, item) -> None:
        self._sent = (tag, item)

    def wait(self, timeout: float) -> list[tuple]:
        if self._sent is None:
            time.sleep(timeout)
            return []
        (tag, item), self._sent = self._sent, None
        t0 = time.perf_counter()
        try:
            value = self._work(self._state, 0, item)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            return [(tag, False, _failure(exc), time.perf_counter() - t0)]
        return [(tag, True, value, time.perf_counter() - t0)]

    def reap(self) -> list[tuple]:
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# WorkerPool: LPT-sharded extension batches
# ---------------------------------------------------------------------------


def plan_shards(lengths, rows, n_shards: int) -> list[list[int]]:
    """LPT-balanced anchor shards of spec ``rows`` over sources of ``lengths``.

    Anchors weigh their wavefront's reachable extent
    (:func:`~repro.core.perfmodel.anchor_weights`) and are dealt
    heaviest-first to the lightest shard
    (:func:`~repro.core.multigpu.greedy_partition`), so one repeat-dense
    anchor cannot serialise a whole shard.  Returns at most
    ``min(n_shards, len(rows))`` non-empty shards, each a list of anchor
    indices in ascending order; records re-placed by anchor index
    reproduce the unsharded order exactly.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if not rows:
        return []
    parts = greedy_partition(anchor_weights(lengths, rows), min(n_shards, len(rows)))
    return [sorted(part) for part in parts if part]


def _kill_ids() -> set[str]:
    raw = os.environ.get(_KILL_ENV, "")
    return {part.strip() for part in raw.split(",") if part.strip()}


def _resolve_sources(sources) -> list:
    """Materialise a dispatch message's code sources in a worker.

    ``("shm", name, length)`` attaches to the parent's published segment
    (cached per process by :func:`repro.store.attach_codes`, so repeated
    shards over the same reference map it once); ``("inline", codes)``
    arrived pickled in the message itself — sequences without a digest,
    or past the publisher's byte cap.  :meth:`WorkerPool._sources` builds
    both.
    """
    out = []
    for src in sources:
        if src[0] == "shm":
            _kind, name, length = src
            out.append(attach_codes(name, length))
        else:
            out.append(src[1])
    return out


def _extend_shard(warm: dict, worker_id: int, item) -> list:
    """Worker side of :meth:`WorkerPool.extend_spec`: one shard's records.

    ``warm`` is this worker process's own copy of the pool's cache of
    ``(scheme, options, tile)`` by fuse key; a message carries the
    params only the first time its key reaches this worker.

    Each worker implicitly keeps the pipeline's warm lockstep arenas
    (:func:`repro.align.thread_arena`) alive between shards — the
    process-resident analogue of the device buffers a GPU stream would
    own.  Work arrives as ``(sources, rows)``: the shard's rows of an
    :class:`~repro.core.pipeline.ExtensionSpec` over code sources that
    resolve here — megabytes of shared sequence shrink to a name.
    """
    key, params, (sources, rows) = item
    if str(worker_id) in _kill_ids():
        os._exit(137)
    if params is not None:
        warm[key] = params
    scheme, options, tile = warm[key]
    spec = ExtensionSpec(tuple(_resolve_sources(sources)), rows)
    return extend_suffixes_shard(spec.suffixes(), scheme, options, tile)


class WorkerPool:
    """``N`` persistent extension workers behind one dispatch call.

    ``extend_spec`` is synchronous and called from one thread at a time
    (the pool lane's worker, or the one run that opened the pool);
    ``close`` may be called from any thread.
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
        self._jobs = itertools.count()
        self._closed = False
        #: Parent-owned shared-memory segments of digest-named sequences,
        #: published once each; live until :meth:`close`.
        self._shm = ShmPublisher()
        # The empty dict is each worker's own warm-params cache.
        self._slots = ProcessSlots(workers, _extend_shard, {}, name="repro-pool-worker")
        #: Per slot, the fuse keys whose params that slot's worker has
        #: cached; emptied when the worker is replaced.
        self._seen: list[set] = [set() for _ in range(workers)]
        self._set_worker_gauges()

    # -- lifecycle -----------------------------------------------------------

    def _reap(self) -> list[tuple]:
        """Replace dead workers; ``(slot, tag in flight, exit code)`` each."""
        try:
            dead = self._slots.reap()
        except OSError as exc:  # pragma: no cover - OS resource exhaustion
            raise PoolUnavailable(f"cannot respawn pool worker: {exc}") from exc
        for slot, _tag, _exitcode in dead:
            self._seen[slot] = set()
            self.respawns += 1
            self._respawn_counter.inc()
        if dead:
            self._set_worker_gauges()
        return dead

    def _set_worker_gauges(self) -> None:
        self._gauge.labels(state="configured").set(self.n_workers)
        self._gauge.labels(state="alive").set(self.n_alive)

    @property
    def n_alive(self) -> int:
        return self._slots.n_alive

    @property
    def worker_pids(self) -> list[int]:
        return self._slots.pids

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
        self._slots.close(timeout)
        self._shm.close()
        self._set_worker_gauges()

    # -- dispatch ------------------------------------------------------------

    def _send(self, slot: int, job_id: int, shard_id: int, key: str,
              params: tuple, work) -> None:
        seen = self._seen[slot]
        payload = None if key in seen else params
        seen.add(key)
        self._slots.send(slot, (job_id, shard_id), (key, payload, work))
        self._shard_counter.labels(slot=slot).inc()

    def _sources(self, spec: ExtensionSpec) -> list:
        """How each of ``spec``'s sequences reaches the workers.

        A digest-named sequence ships as ``("shm", name, length)``,
        published once per digest; one without a digest, or one the
        publisher declines (byte cap, no segment), ships as
        ``("inline", codes)`` — slower, never wrong.
        """
        out = []
        for codes, digest in itertools.zip_longest(spec.codes, spec.digests):
            handle = self._shm.publish(digest, codes) if digest is not None else None
            out.append(("inline", codes) if handle is None else ("shm", *handle))
        return out

    def extend_spec(
        self, spec: ExtensionSpec, scheme, options, tile: int, *, key: str
    ):
        """Run one fused batch's extensions sharded across the workers.

        ``spec`` holds each sequence once and one ``(ti, qi, t, q)`` row
        per anchor, in anchor order.  Returns per-anchor extension
        records in anchor order, bit-identical to
        :func:`~repro.core.pipeline.extend_suffixes_shard` on
        ``spec.suffixes()``.  Raises :class:`PoolError` when a shard
        keeps killing its workers, :class:`PoolUnavailable` when the pool
        is gone, and a failed shard's own exception (``RuntimeError``
        with its text when it did not pickle) when its extension raised.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        rows = spec.rows
        if not rows:
            return []
        sources = self._sources(spec)
        shards = plan_shards([len(c) for c in spec.codes], rows, self.n_workers)
        work_by_shard = [(sources, [rows[k] for k in idx]) for idx in shards]

        t0 = time.perf_counter()
        job_id = next(self._jobs)
        params = (scheme, options, tile)
        # Replace workers that died idle (e.g. killed between batches)
        # before handing them shards.
        self._reap()
        for shard_id, work in enumerate(work_by_shard):
            self._send(shard_id, job_id, shard_id, key, params, work)
        self.dispatches += 1

        done: dict[int, list] = {}
        failures: dict[int, tuple] = {}
        redispatched: dict[int, int] = {}
        while len(done) + len(failures) < len(shards):
            for (msg_job, shard_id), ok, value, _seconds in self._slots.wait(0.02):
                # Stale deliveries (an aborted earlier job, or a shard the
                # death-reap already re-dispatched and resolved) are dropped.
                if msg_job == job_id and shard_id not in done and shard_id not in failures:
                    (done if ok else failures)[shard_id] = value
            for slot, tag, _exitcode in self._reap():
                if tag is None or tag[0] != job_id:
                    continue
                shard_id = tag[1]
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
            shard_id = min(failures)
            error, exc = failures[shard_id]
            if exc is not None:
                raise exc
            raise RuntimeError(f"pool shard {shard_id} failed: {error}")

        out: list = [None] * len(rows)
        for shard_id, idx in enumerate(shards):
            for anchor, record in zip(idx, done[shard_id]):
                out[anchor] = record
        return out
