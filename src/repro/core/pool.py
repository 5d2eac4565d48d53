"""Worker processes: one lifecycle, one dispatch loop on top of it.

Every worker process :mod:`repro` starts is started by
:class:`ProcessSlots`, which owns the lifecycle: **spawn** daemon workers
in fixed slots, each with its own task queue and its own answer pipe;
run **one worker loop** (exit on a ``None`` sentinel or
when re-parented; a raised exception, or an answer that cannot be
pickled, becomes a failure message carrying its text and, when it
pickles, the exception, and never kills the worker); **reap** (respawn a
dead worker in its slot and hand back what it had in flight); **tear
down** (sentinel, join against one deadline, terminate stragglers).
The group's state travels once, in the process arguments — under
``fork`` it is inherited, not pickled.  :class:`InlineSlots` is the same
surface over one in-process slot, and :func:`open_slots` picks between
the two by worker count.

:func:`run_tasks` is the one dispatch loop over a group (units, retry,
split, quarantine).  Its caller opens the group and closes it, so one
group serves many calls: a whole-genome job
(:func:`repro.jobs.run_wga`) opens one for its seed and extend phases,
and :class:`WorkerPool` keeps one for its life — the service's pool lane
(:class:`~repro.fleet.backends.PoolBackend`) and, opened per call, the
``workers=`` path of :func:`~repro.core.pipeline.run_fastz`, streamed or
not (one pool per call serves every slice).

The loop
--------

The unit of work is a :class:`TaskSpec` — an opaque payload plus a weight.
Scheduling follows the SaLoBa observation that workload balance across
segments dominates scaling.  Work is dispatched **heaviest-first** (LPT
order) to whichever slot is idle, so one repeat-dense chunk pair cannot
serialise the tail of a run.  Each pass of the loop reaps dead workers,
dispatches ready units to idle slots, then waits for answers only while
a unit is in flight or in backoff.  ``workers=0`` runs the same loop over
one inline slot, so inline runs share every line of the retry, split
and quarantine bookkeeping.

Units: every dispatch sends a **unit** — one or more tasks — to one
worker in one message ``(handler, payloads, attempt)``, so a handler can
run its members together (the job runner fuses a unit's extend tasks
into one lockstep engine call).  Callers group first-attempt tasks into
units by id (``units=``); the default is every task alone.  Handlers
must be module-level callables (pickled by reference with every message)
with signature ``handler(state, payloads, attempt) -> list``: the
group's state, then one value per payload, in order.

Fault tolerance stays per task:

* a task that raises is retried with exponential backoff
  (``backoff_s * 2**(attempt-1)``, capped at :data:`BACKOFF_CAP_S`) up to
  ``max_attempts``;
* a task that exhausts its attempts is **quarantined**: the call
  completes and reports the gap instead of crashing;
* a **worker death** (segfault, OOM-kill, ``os._exit``) is detected by
  process liveness and emits ``worker_death``; it counts as a failed
  attempt, so the in-flight task is re-queued with a ``retry`` event, or
  quarantined once its attempts are spent (a task that reliably kills its
  worker is not respawned forever); a replacement worker is spawned;
* a unit of two or more tasks that fails — its handler raises or its
  worker dies — is **split**: each member goes back on the ready queue
  alone, at once, and no member is charged an attempt, so it runs alone
  at the same attempt number.  The fault then lands on the culprit alone,
  and a unit never changes which tasks are quarantined or their attempt
  counts.  A split emits one ``split`` event (with the error and whether
  a worker died); the service's fused batches fall back the same way
  (``service/batcher.py``).

Every message is tagged with its call, so an answer or a reaped tag a
group carries over from an earlier call is dropped, never claimed.

The worker pool
---------------

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
or resolves a code source: a keyed sequence (a store digest, or one of
``run_fastz``'s per-call keys) is published once to shared memory and
travels as its handle, any other ships inline.  A
shard message carries the scoring parameters, those sources and
``(ti, qi, t, q)`` rows; the worker rebuilds the suffix views with
:meth:`~repro.core.pipeline.ExtensionSpec.suffixes`.  Because every
extension task is independent, re-placing shard records by anchor index
reproduces the in-process result bit for bit at any worker count.

Each batch is one :func:`run_tasks` call, one task per shard, and the
pool's policy is the loop's:

* **death detection + respawn + re-dispatch** — a worker that dies
  (segfault, OOM-kill, SIGKILL) is detected by process liveness, a
  replacement is spawned into its slot, and the in-flight shard is
  re-dispatched, so the requests in that batch still complete; a shard
  is dispatched at most ``MAX_REDISPATCH + 1`` times, then the batch
  fails with :class:`PoolError` instead of respawning forever;
* **errors fail fast** — a shard whose extension raises, or whose
  records cannot be pickled, answers with the failure itself, so the
  loop never retries it: ``extend_spec`` re-raises the worker's
  exception — the type the in-process engine raises — and the
  dispatcher's existing per-request isolation takes over;
* **graceful degradation** — a shard that keeps killing its workers
  fails only its batch with :class:`PoolError` (the service re-runs it
  in-process and the pool keeps serving); :class:`PoolUnavailable`
  (pool closed, or a dead worker cannot be replaced) means the pool
  itself is gone.

Test hook (inert unless set): ``REPRO_POOL_TEST_KILL_WORKER`` is a
comma-separated list of :class:`WorkerPool` worker ids that
``os._exit(137)`` on their first
task receipt — SIGKILL semantics placed deterministically mid-batch.
Worker ids count spawns, so a replacement never re-matches
its predecessor's id.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Any, Callable

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
    "TaskOutcome",
    "TaskSpec",
    "WorkerPool",
    "open_slots",
    "plan_shards",
    "run_tasks",
]

#: Test hook: comma-separated worker ids that hard-exit on first task.
_KILL_ENV = "REPRO_POOL_TEST_KILL_WORKER"

#: Re-dispatches of one shard after worker deaths before the batch fails
#: with :class:`PoolError` (a shard that keeps killing its workers is not
#: respawned forever).
MAX_REDISPATCH = 2

#: Ceiling of a retried task's exponential backoff, in seconds.
BACKOFF_CAP_S = 2.0

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


def _run_unit(state, item) -> list:
    """One unit ``(handler, payloads, attempt)``: one value per payload."""
    handler, payloads, attempt = item
    values = list(handler(state, payloads, attempt))
    if len(values) != len(payloads):
        raise RuntimeError(
            f"handler returned {len(values)} values for {len(payloads)} payloads"
        )
    return values


def _worker_loop(state, task_q, answers) -> None:
    """Worker loop: one unit at a time, failures reported not raised.

    Polls with a timeout so an orphaned worker (coordinator hard-killed,
    skipping the atexit reaping of daemon children) notices the
    re-parenting and exits instead of blocking on the queue forever.

    Each message is a pickled ``(tag, unit)`` and runs :func:`_run_unit`;
    each answer is ``(tag, ok, value, seconds)``, where a failed unit's value
    is ``(text, exception or None)``, sent on the worker's own pipe before
    it takes the next message.  A successful value ships pickled, so one
    that cannot be pickled fails its unit here instead of leaving the
    caller waiting forever.  On exit the worker drops the lockstep arenas
    and shared-memory attachments its work left resident.
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
        tag, unit = pickle.loads(item)
        t0 = time.perf_counter()
        try:
            value = pickle.dumps(
                _run_unit(state, unit), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            answers.send((tag, False, _failure(exc), time.perf_counter() - t0))
        else:
            answers.send((tag, True, value, time.perf_counter() - t0))
    release_thread_arenas()
    release_attachments()


def _retire(task_q) -> None:
    # A dead or stopped worker may leave messages unread: do not let
    # interpreter exit wait on the feeder thread that holds them.
    task_q.cancel_join_thread()
    task_q.close()


class ProcessSlots:
    """``n`` worker processes in fixed slots, a task queue and an answer pipe each.

    ``state`` is the group's per-worker state, every handler's first
    argument.  Worker ids count spawns, so a respawned slot gets a new
    id; each process is named ``<name>-<worker id>``.  A slot is busy
    from :meth:`send` until :meth:`wait` returns its answer or
    :meth:`reap` replaces its worker.  One thread drives a set of slots.

    Each worker answers on a pipe only it writes: a worker that dies
    mid-answer breaks its own pipe, never a lock the others need.  (A
    result queue shared by all workers has one write lock; a worker
    killed while its feeder thread holds it leaves every later answer
    blocked, and the caller waiting forever.)
    """

    def __init__(self, n: int, state, *, name: str) -> None:
        self._ctx = multiprocessing.get_context()
        self._state = state
        self._name = name
        self._ids = itertools.count()
        #: Dead workers replaced by :meth:`reap`, idle or busy.
        self.respawns = 0
        self._procs: list = []
        self._queues: list = []
        self._answers: list = []
        for _ in range(n):
            proc, task_q, answers = self._start()
            self._procs.append(proc)
            self._queues.append(task_q)
            self._answers.append(answers)
        self._inflight: list = [None] * n

    def _start(self):
        worker_id = next(self._ids)
        task_q = self._ctx.Queue()
        answers, sink = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(self._state, task_q, sink),
            name=f"{self._name}-{worker_id}",
            daemon=True,
        )
        proc.start()
        sink.close()  # the worker holds the only writing end
        return proc, task_q, answers

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
        # Pickled here, not by the queue's feeder thread: a message that
        # cannot be pickled (a handler that is not module-level) raises in
        # the caller and leaves the slot idle, instead of being dropped
        # while the caller waits for its answer forever.
        message = pickle.dumps((tag, item), protocol=pickle.HIGHEST_PROTOCOL)
        self._inflight[slot] = tag
        self._queues[slot].put(message)

    def wait(self, timeout: float) -> list[tuple]:
        """Answers so far, blocking up to ``timeout`` for the first one."""
        out = []
        ready = multiprocessing.connection.wait(self._answers, timeout)
        for slot, answers in enumerate(self._answers):
            if answers not in ready:
                continue
            try:
                while answers.poll():
                    out.append(answers.recv())
                    self._inflight[slot] = None
            except (EOFError, OSError):
                pass  # its worker died: reap replaces the worker and the pipe
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
            self._answers[slot].close()
            self._inflight[slot] = None
            self._procs[slot], self._queues[slot], self._answers[slot] = self._start()
            self.respawns += 1
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
        for answers in self._answers:
            answers.close()


class InlineSlots:
    """One in-process slot with the :class:`ProcessSlots` surface.

    :meth:`wait` runs the unit sent in the calling thread and reports a
    raised exception through :func:`_failure`, as the worker loop does;
    answers are not pickled.  With nothing sent it sleeps out its timeout,
    so a caller's backoff still passes.  Nothing here can die, so
    :meth:`reap` returns nothing.
    """

    def __init__(self, state) -> None:
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
            value = _run_unit(self._state, item)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            return [(tag, False, _failure(exc), time.perf_counter() - t0)]
        return [(tag, True, value, time.perf_counter() - t0)]

    def reap(self) -> list[tuple]:
        return []

    def close(self) -> None:
        pass


def open_slots(workers: int, state, *, name: str):
    """A group for :func:`run_tasks`: ``workers`` processes, or one inline slot at 0.

    ``state`` is every handler's first argument; ``name`` prefixes the
    worker processes' names.  The caller closes the group.
    """
    if workers < 0:
        raise ValueError("workers must be non-negative")
    if workers == 0:
        return InlineSlots(state)
    return ProcessSlots(workers, state, name=name)


# ---------------------------------------------------------------------------
# The dispatch loop
# ---------------------------------------------------------------------------

#: on_event kinds, in roughly increasing order of concern.
EVENTS = ("done", "retry", "split", "worker_death", "quarantined")

#: Numbers each :func:`run_tasks` call, so its tags never match another's.
_calls = itertools.count()


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable task."""

    task_id: str
    payload: Any
    #: Relative cost estimate (the job runner uses anchor counts); only
    #: the ordering matters.
    weight: float = 1.0


@dataclass
class TaskOutcome:
    """Terminal state of one task."""

    task_id: str
    ok: bool
    value: Any = None
    error: str | None = None
    attempts: int = 0
    worker_deaths: int = 0
    elapsed_s: float = 0.0


@dataclass
class _TaskState:
    spec: TaskSpec
    #: Dispatches so far, including uncharged ones in units that split.
    #: The staleness key of :func:`_claim_attempt`: it only advances on
    #: dispatch, so every dispatch gets its own number.
    attempts: int = 0
    #: Dispatches in units that split; never charged to the task.
    uncharged: int = 0
    worker_deaths: int = 0
    elapsed_s: float = 0.0
    last_error: str | None = None
    #: Highest attempt number already resolved (success, retry, death,
    #: split or quarantine).  ``attempts`` only advances on dispatch, so
    #: without this a dying worker's final message could race the
    #: death-reap that already re-queued the same attempt and be
    #: double-counted.
    consumed_attempt: int = 0

    @property
    def charged(self) -> int:
        """Attempts charged to the task: what handlers, events and outcomes see."""
        return self.attempts - self.uncharged


def _claim_attempt(state: _TaskState, outcomes: dict, attempt: int) -> bool:
    """Consume one attempt's terminal signal; True exactly once per attempt.

    The death-reap and the dead worker's last queued message can both
    observe the same in-flight attempt; whichever arrives second must be
    dropped as stale — otherwise one failure burns two attempts toward
    quarantine and re-queues the task twice (duplicate dispatch).
    ``attempts`` only advances on dispatch, so an ``attempt ==
    state.attempts`` check alone cannot tell the second observer from the
    first; the ``consumed_attempt`` high-water mark does.  A split unit's
    members are re-dispatched under a new number, so a late message from
    the unit is stale for every one of them.
    """
    if state.spec.task_id in outcomes:
        return False
    if attempt != state.attempts or attempt <= state.consumed_attempt:
        return False
    state.consumed_attempt = attempt
    return True


def _lpt_units(
    units: list[tuple[str, ...]], states: dict[str, _TaskState]
) -> list[tuple[str, ...]]:
    """Heaviest unit first (summed member weight); ties keep input order."""
    return sorted(units, key=lambda u: -sum(states[i].spec.weight for i in u))


def _backoff(attempt: int, backoff_s: float) -> float:
    return min(backoff_s * (2 ** (attempt - 1)), BACKOFF_CAP_S)


def _split(unit: tuple[str, ...], states: dict, error: str, died: bool, emit) -> None:
    """Un-charge a failed unit's members; the caller runs each alone next."""
    emit("split", "+".join(unit), tasks=list(unit), error=error, died=died)
    for task_id in unit:
        states[task_id].uncharged += 1


def _success(state: _TaskState, value, emit) -> TaskOutcome:
    # The value rides on the event so callers can checkpoint each task the
    # moment it completes, not at end of phase.
    emit("done", state.spec.task_id, attempts=state.charged, value=value)
    return TaskOutcome(
        task_id=state.spec.task_id,
        ok=True,
        value=value,
        attempts=state.charged,
        worker_deaths=state.worker_deaths,
        elapsed_s=state.elapsed_s,
    )


def _quarantine(state: _TaskState, emit) -> TaskOutcome:
    emit(
        "quarantined",
        state.spec.task_id,
        attempts=state.charged,
        error=state.last_error,
    )
    return TaskOutcome(
        task_id=state.spec.task_id,
        ok=False,
        error=state.last_error,
        attempts=state.charged,
        worker_deaths=state.worker_deaths,
        elapsed_s=state.elapsed_s,
    )


def run_tasks(
    tasks: list[TaskSpec],
    handler: Callable[[Any, list, int], list],
    slots,
    *,
    units: list[list[str]] | None = None,
    max_attempts: int = 3,
    backoff_s: float = 0.05,
    on_event: Callable[[str, str, dict], None] | None = None,
) -> dict[str, TaskOutcome]:
    """Run every task to a terminal state (success or quarantine) on ``slots``.

    ``slots`` is a group from :func:`open_slots` (or
    :class:`WorkerPool`'s own); the caller closes it, and it stays open
    for the next call.  ``units`` groups task ids for their first
    dispatch; every task must appear in exactly one group (default: every
    task alone).  Returns ``{task_id: TaskOutcome}`` covering every input
    task.  Raises only on programming errors (duplicate ids, bad units,
    bad arguments, a handler or payload that cannot be pickled into a
    worker's message) and on a worker that cannot be respawned
    (``OSError``) — task failures surface as outcomes, never as
    exceptions.  Emits no
    metrics: ``on_event(kind, task_id, info)`` sees every event in
    :data:`EVENTS`.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ValueError("task ids must be unique")
    groups = [(i,) for i in ids] if units is None else [tuple(u) for u in units]
    members = [i for unit in groups for i in unit]
    if (
        not all(groups)
        or len(members) != len(set(members))
        or set(members) != set(ids)
    ):
        raise ValueError("units must cover every task exactly once")
    if not tasks:
        return {}

    def emit(kind: str, task_id: str, **info) -> None:
        if on_event is not None:
            on_event(kind, task_id, info)

    call = next(_calls)
    states = {t.task_id: _TaskState(t) for t in tasks}
    outcomes: dict[str, TaskOutcome] = {}
    # Ready heap: (ready_at, seq, unit); seq follows LPT rank so the
    # initial drain dispatches heaviest-first.
    seq = itertools.count()
    ready: list[tuple[float, int, tuple[str, ...]]] = []
    for unit in _lpt_units(groups, states):
        heapq.heappush(ready, (0.0, next(seq), unit))

    def fail_attempt(state: _TaskState, error: str, *, death: bool) -> None:
        """Shared retry/quarantine bookkeeping for failures and deaths."""
        state.last_error = error
        if death:
            state.worker_deaths += 1
            emit(
                "worker_death",
                state.spec.task_id,
                attempt=state.charged,
                error=error,
            )
        if state.charged >= max_attempts:
            outcomes[state.spec.task_id] = _quarantine(state, emit)
            return
        emit(
            "retry",
            state.spec.task_id,
            attempt=state.charged,
            error=error,
            died=death,
        )
        delay = _backoff(state.charged, backoff_s)
        heapq.heappush(
            ready, (time.monotonic() + delay, next(seq), (state.spec.task_id,))
        )

    def fail_unit(unit: tuple[str, ...], error: str, *, death: bool) -> None:
        if len(unit) == 1:
            fail_attempt(states[unit[0]], error, death=death)
            return
        _split(unit, states, error, death, emit)
        now = time.monotonic()
        for task_id in unit:
            heapq.heappush(ready, (now, next(seq), (task_id,)))

    def claim(tag) -> bool:
        # The group outlives this call: a tag of another call is stale.
        # A unit's members share their dispatch number and every state
        # change, so a message is fresh for all of them or for none.
        tag_call, unit, dispatch = tag
        if tag_call != call:
            return False
        return all([_claim_attempt(states[i], outcomes, dispatch) for i in unit])

    while len(outcomes) < len(states):
        # 1. Reap dead workers (each respawned in its slot); re-queue
        #    the units they had in flight.
        for _slot, tag, exitcode in slots.reap():
            if tag is not None and claim(tag):
                fail_unit(tag[1], f"worker died (exit code {exitcode})", death=True)

        # 2. Dispatch ready units to idle workers.
        now = time.monotonic()
        for slot in slots.idle():
            while ready and ready[0][2][0] in outcomes:
                heapq.heappop(ready)  # cancelled by quarantine
            if not ready or ready[0][0] > now:
                break
            _, _, unit = heapq.heappop(ready)
            unit_states = [states[i] for i in unit]
            for state in unit_states:
                state.attempts += 1
            # Units are first dispatches, so members agree on both.
            dispatch, attempt = unit_states[0].attempts, unit_states[0].charged
            slots.send(
                slot,
                (call, unit, dispatch),
                (handler, [s.spec.payload for s in unit_states], attempt),
            )

        # 3. Wait for results while work remains — a unit in flight,
        #    or one in backoff — blocking up to 20 ms, never spinning.
        #    An inline slot runs its unit here.
        if len(outcomes) == len(states):
            break
        for tag, ok, result, elapsed in slots.wait(0.02):
            # Stale messages (another call's, task already resolved, a
            # newer attempt dispatched, this attempt already consumed by
            # the death-reap, or the unit since split) are dropped.
            if not claim(tag):
                continue
            unit = tag[1]
            for task_id in unit:
                states[task_id].elapsed_s += elapsed / len(unit)
            if ok:
                for task_id, value in zip(unit, result):
                    outcomes[task_id] = _success(states[task_id], value, emit)
            else:
                fail_unit(unit, result[0], death=False)

    return outcomes


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
    arrived pickled in the message itself — sequences without a key, or
    past the publisher's byte cap.  :meth:`WorkerPool._sources` builds
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


def _extend_shard(_state, payloads: list, _attempt: int) -> list:
    """Worker side of :meth:`WorkerPool.extend_spec`: each shard's answer.

    A payload is ``((scheme, options, tile), (sources, rows))``: the
    shard's rows of an :class:`~repro.core.pipeline.ExtensionSpec` over
    code sources that resolve here — megabytes of shared sequence shrink
    to a name.  The answer is ``(True, records pickled here)`` or
    ``(False, failure)``: an engine error, or records that cannot be
    pickled, is the shard's own answer, so only a worker death reaches
    the loop's retry path.

    Each worker implicitly keeps the pipeline's warm lockstep arenas
    (:func:`repro.align.thread_arena`) alive between shards — the
    process-resident analogue of the device buffers a GPU stream would
    own.
    """
    worker_id = multiprocessing.current_process().name.rpartition("-")[2]
    if worker_id in _kill_ids():
        os._exit(137)
    out = []
    for (scheme, options, tile), (sources, rows) in payloads:
        try:
            spec = ExtensionSpec(tuple(_resolve_sources(sources)), rows)
            records = extend_suffixes_shard(spec.suffixes(), scheme, options, tile)
            out.append((True, pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)))
        except Exception as exc:  # noqa: BLE001 - the shard's own answer
            out.append((False, _failure(exc)))
    return out


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
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.n_workers = workers
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
            "Extension shards dispatched, re-dispatches included.",
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
        self._closed = False
        #: Parent-owned shared-memory segments of keyed sequences,
        #: published once each; live until :meth:`close`.
        self._shm = ShmPublisher()
        self._slots = ProcessSlots(workers, None, name="repro-pool-worker")
        self._set_worker_gauges()

    # -- lifecycle -----------------------------------------------------------

    def _count_respawns(self) -> None:
        """Book the workers the loop's reaps replaced since the last count."""
        new = self._slots.respawns - self.respawns
        if new:
            self.respawns += new
            self._respawn_counter.inc(new)
            self._set_worker_gauges()

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

    def _sources(self, spec: ExtensionSpec) -> list:
        """How each of ``spec``'s sequences reaches the workers.

        A keyed sequence ships as ``("shm", name, length)``, published
        once per key for the life of the pool; one without a key, or one
        the publisher declines (byte cap, no segment), ships as
        ``("inline", codes)`` — slower, never wrong.
        """
        out = []
        for codes, digest in itertools.zip_longest(spec.codes, spec.digests):
            handle = self._shm.publish(digest, codes) if digest is not None else None
            out.append(("inline", codes) if handle is None else ("shm", *handle))
        return out

    def extend_spec(self, spec: ExtensionSpec, scheme, options, tile: int):
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
        params = (scheme, options, tile)
        tasks = [
            TaskSpec(str(k), (params, (sources, [rows[i] for i in idx])))
            for k, idx in enumerate(shards)
        ]

        t0 = time.perf_counter()
        self.dispatches += 1
        try:
            outcomes = run_tasks(
                tasks,
                _extend_shard,
                self._slots,
                max_attempts=MAX_REDISPATCH + 1,
                backoff_s=0.0,
            )
        except OSError as exc:  # pragma: no cover - OS resource exhaustion
            raise PoolUnavailable(f"cannot respawn pool worker: {exc}") from exc
        finally:
            self._count_respawns()
        self._dispatch_seconds.observe(time.perf_counter() - t0)
        results = [outcomes[task.task_id] for task in tasks]
        sent = sum(outcome.attempts for outcome in results)
        self._shard_counter.inc(sent)
        self.redispatches += sent - len(tasks)
        self._redispatch_counter.inc(sent - len(tasks))

        for outcome in results:
            if not outcome.ok:
                raise PoolError(
                    f"shard {outcome.task_id} killed "
                    f"{outcome.worker_deaths} workers in a row"
                )
        out: list = [None] * len(rows)
        for outcome, idx in zip(results, shards):
            ok, value = outcome.value
            if not ok:
                error, exc = value
                if exc is not None:
                    raise exc
                raise RuntimeError(f"pool shard {outcome.task_id} failed: {error}")
            for anchor, record in zip(idx, pickle.loads(value)):
                out[anchor] = record
        return out
