"""Fault-tolerant multiprocess task scheduling for WGA jobs.

The unit of work is a :class:`TaskSpec` — an opaque payload plus a weight
(the scheduler is generic; the runner uses it for both seeding and
extension phases).  Scheduling follows the SaLoBa observation that
workload balance across segments dominates scaling.  Work is dispatched
**heaviest-first** (LPT order) to a demand-driven worker pool, so one
repeat-dense chunk pair cannot serialise the tail of a run; the runner
plans its extend units over unit loads with
:func:`repro.core.multigpu.partition_loads`, the paper's multi-GPU seed
partitioner.

The worker processes come from :class:`repro.core.pool.ProcessSlots`,
the one lifecycle every :mod:`repro` worker runs on — spawn, worker loop,
reap-and-respawn, teardown; :class:`~repro.core.pool.WorkerPool` is the
other protocol on it.  This module is the scheduling protocol: the ready
heap, attempts, units, split and quarantine, in **one loop for every
worker count**.  ``workers=0`` runs that loop over
:class:`~repro.core.pool.InlineSlots`, one slot in the calling process,
so inline runs share every line of the retry, split and quarantine
bookkeeping.  The handler and ``init_arg`` travel once, with each worker
process.  Each pass of the loop reaps dead workers, dispatches ready
units to idle ones, then waits for results only while a unit is in
flight or in backoff.

Units: every dispatch sends a **unit** — one or more tasks — to one
worker in one message, so a handler can run its members together (the
runner fuses a unit's extend tasks into one lockstep engine call).
Callers group first-attempt tasks into units by id (``units=``); the
default is every task alone.  Handlers must be module-level callables
(picklable) with signature ``handler(init_arg, payloads, attempt) ->
list``: one value per payload, in order.

Fault tolerance stays per task:

* a task that raises is retried with exponential backoff
  (``backoff_s * 2**(attempt-1)``, capped) up to ``max_attempts``;
* a task that exhausts its attempts is **quarantined**: the job completes
  and reports the gap instead of crashing;
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
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable

from .. import obs
from ..core.pool import InlineSlots, ProcessSlots

__all__ = ["TaskOutcome", "TaskSpec", "run_tasks"]

#: on_event kinds, in roughly increasing order of concern.
EVENTS = ("done", "retry", "split", "worker_death", "quarantined")


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable task."""

    task_id: str
    payload: Any
    #: Relative cost estimate (anchor count, window area, ...); only the
    #: ordering matters.
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


def _backoff(attempt: int, backoff_s: float, cap_s: float) -> float:
    return min(backoff_s * (2 ** (attempt - 1)), cap_s)


def _call_unit(handler, init_arg, payloads: list, attempt: int) -> list:
    """Run one unit's handler; it must return one value per payload."""
    values = list(handler(init_arg, payloads, attempt))
    if len(values) != len(payloads):
        raise RuntimeError(
            f"handler returned {len(values)} values for {len(payloads)} payloads"
        )
    return values


def _events_counter():
    return obs.counter(
        "repro_jobs_scheduler_events_total",
        "Scheduler events (done/retry/split/worker_death/quarantined).",
    )


def _task_seconds():
    return obs.histogram(
        "repro_jobs_task_seconds",
        "Wall time of individual WGA tasks (successful attempts).",
    )


def run_tasks(
    tasks: list[TaskSpec],
    handler: Callable[[Any, list, int], list],
    init_arg: Any = None,
    *,
    units: list[list[str]] | None = None,
    workers: int = 0,
    max_attempts: int = 3,
    backoff_s: float = 0.05,
    backoff_cap_s: float = 2.0,
    on_event: Callable[[str, str, dict], None] | None = None,
) -> dict[str, TaskOutcome]:
    """Run every task to a terminal state (success or quarantine).

    ``units`` groups task ids for their first dispatch; every task must
    appear in exactly one group (default: every task alone).  Returns
    ``{task_id: TaskOutcome}`` covering every input task.  Raises only on
    programming errors (duplicate ids, bad units, bad arguments) — worker
    failures surface as outcomes, never as exceptions.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if workers < 0:
        raise ValueError("workers must be non-negative")
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
        _events_counter().labels(kind=kind).inc()
        if on_event is not None:
            on_event(kind, task_id, info)

    states = {t.task_id: _TaskState(t) for t in tasks}
    ordered = _lpt_units(groups, states)
    # Handler and init_arg travel once, with each worker process.
    if workers == 0:
        slots = InlineSlots(_run_unit, (handler, init_arg))
    else:
        slots = ProcessSlots(
            min(workers, len(ordered)),
            _run_unit,
            (handler, init_arg),
            name="repro-job-worker",
        )
    try:
        return _run_pool(
            ordered, states, slots, max_attempts, backoff_s, backoff_cap_s, emit
        )
    finally:
        slots.close()


def _split(unit: tuple[str, ...], states: dict, error: str, died: bool, emit) -> None:
    """Un-charge a failed unit's members; the caller runs each alone next."""
    emit("split", "+".join(unit), tasks=list(unit), error=error, died=died)
    for task_id in unit:
        states[task_id].uncharged += 1


def _success(state: _TaskState, value, emit) -> TaskOutcome:
    _task_seconds().observe(state.elapsed_s)
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


# ---------------------------------------------------------------------------
# The scheduling loop
# ---------------------------------------------------------------------------


def _run_unit(state, _worker_id: int, item) -> list:
    """Worker side of the loop: one unit through the job's handler."""
    handler, init_arg = state
    payloads, attempt = item
    return _call_unit(handler, init_arg, payloads, attempt)


def _run_pool(
    units: list[tuple[str, ...]],
    states: dict[str, _TaskState],
    slots,
    max_attempts: int,
    backoff_s: float,
    backoff_cap_s: float,
    emit,
) -> dict[str, TaskOutcome]:
    """Drive every unit to a terminal state over ``slots``.

    ``slots`` is a :class:`~repro.core.pool.ProcessSlots` or an
    :class:`~repro.core.pool.InlineSlots`; the caller closes it.
    """
    outcomes: dict[str, TaskOutcome] = {}
    # Ready heap: (ready_at, seq, unit); seq follows LPT rank so the
    # initial drain dispatches heaviest-first.
    seq = itertools.count()
    ready: list[tuple[float, int, tuple[str, ...]]] = []
    for unit in units:
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
        delay = _backoff(state.charged, backoff_s, backoff_cap_s)
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

    def claim(unit: tuple[str, ...], dispatch: int) -> bool:
        # A unit's members share their dispatch number and every state
        # change, so a message is fresh for all of them or for none.
        return all([_claim_attempt(states[i], outcomes, dispatch) for i in unit])

    while len(outcomes) < len(states):
        # 1. Reap dead workers (each respawned in its slot); re-queue
        #    the units they had in flight.
        for _slot, tag, exitcode in slots.reap():
            if tag is not None and claim(*tag):
                fail_unit(
                    tag[0], f"worker died (exit code {exitcode})", death=True
                )

        # 2. Dispatch ready units to idle workers.
        now = time.monotonic()
        for slot in slots.idle():
            while ready and ready[0][2][0] in outcomes:
                heapq.heappop(ready)  # cancelled by quarantine
            if not ready or ready[0][0] > now:
                break
            _, _, unit = heapq.heappop(ready)
            members = [states[i] for i in unit]
            for state in members:
                state.attempts += 1
            # Units are first dispatches, so members agree on both.
            dispatch, attempt = members[0].attempts, members[0].charged
            slots.send(
                slot,
                (unit, dispatch),
                ([s.spec.payload for s in members], attempt),
            )

        # 3. Wait for results while work remains — a unit in flight,
        #    or one in backoff — blocking up to 20 ms, never spinning.
        #    An inline slot runs its unit here.
        if len(outcomes) == len(states):
            break
        for (unit, dispatch), ok, result, elapsed in slots.wait(0.02):
            # Stale messages (task already resolved, a newer attempt
            # dispatched, this attempt already consumed by the
            # death-reap, or the unit since split) are dropped.
            if not claim(unit, dispatch):
                continue
            for task_id in unit:
                states[task_id].elapsed_s += elapsed / len(unit)
            if ok:
                for task_id, value in zip(unit, result):
                    outcomes[task_id] = _success(states[task_id], value, emit)
            else:
                fail_unit(unit, result[0], death=False)

    return outcomes
