"""Fault-tolerant multiprocess task scheduling for WGA jobs.

The unit of work is a :class:`TaskSpec` — an opaque payload plus a weight
(the scheduler is generic; the runner uses it for both seeding and
extension phases).  Scheduling follows the SaLoBa observation that
workload balance across segments dominates scaling:

* work is dispatched **heaviest-first** (LPT order) to a demand-driven
  worker pool, so one repeat-dense chunk pair cannot serialise the tail
  of a run;
* :func:`plan_balance` uses :func:`repro.core.multigpu.greedy_partition`
  — the paper's multi-GPU seed partitioner, promoted to a real helper —
  to report the projected per-worker load split.

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
  process liveness, the in-flight task is re-queued (counting as a failed
  attempt, so a task that reliably kills its worker is quarantined rather
  than respawned forever) and a replacement worker is spawned;
* a unit of two or more tasks that fails — its handler raises or its
  worker dies — is **split**: each member goes back on the ready queue
  alone, at once, and no member is charged an attempt, so it runs alone
  at the same attempt number.  The fault then lands on the culprit alone,
  and a unit never changes which tasks are quarantined or their attempt
  counts.  A split emits one ``split`` event (with the error and whether
  a worker died); the service's fused batches fall back the same way
  (``service/batcher.py``).

``workers=0`` runs everything inline in the calling process with the same
retry/quarantine/split bookkeeping — the deterministic path tests lean on.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import obs
from ..core.multigpu import partition_loads

__all__ = ["TaskOutcome", "TaskSpec", "plan_balance", "run_tasks"]

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


def plan_balance(tasks: list[TaskSpec], n_parts: int) -> list[float]:
    """Projected per-part load under LPT assignment (descending)."""
    if not tasks:
        return [0.0] * max(n_parts, 1)
    _, loads = partition_loads([t.weight for t in tasks], n_parts)
    return sorted(loads, reverse=True)


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
    if workers == 0:
        return _run_inline(
            ordered, states, handler, init_arg, max_attempts, backoff_s,
            backoff_cap_s, emit,
        )
    return _run_pool(
        ordered,
        states,
        handler,
        init_arg,
        workers,
        max_attempts,
        backoff_s,
        backoff_cap_s,
        emit,
    )


def _split(unit: tuple[str, ...], states: dict, error: str, died: bool, emit) -> None:
    """Un-charge a failed unit's members; the caller runs each alone next."""
    emit("split", "+".join(unit), tasks=list(unit), error=error, died=died)
    for task_id in unit:
        states[task_id].uncharged += 1


def _run_inline(
    units: list[tuple[str, ...]],
    states: dict[str, _TaskState],
    handler,
    init_arg,
    max_attempts: int,
    backoff_s: float,
    backoff_cap_s: float,
    emit,
) -> dict[str, TaskOutcome]:
    outcomes: dict[str, TaskOutcome] = {}
    for unit in units:
        members = [states[i] for i in unit]
        if len(unit) > 1:
            for state in members:
                state.attempts += 1
            t0 = time.perf_counter()
            try:
                values = _call_unit(
                    handler,
                    init_arg,
                    [s.spec.payload for s in members],
                    members[0].charged,
                )
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                values, error = None, f"{type(exc).__name__}: {exc}"
            share = (time.perf_counter() - t0) / len(unit)
            for state in members:
                state.elapsed_s += share
            if values is not None:
                for state, value in zip(members, values):
                    outcomes[state.spec.task_id] = _success(state, value, emit)
                continue
            _split(unit, states, error, False, emit)
        for state in members:
            outcomes[state.spec.task_id] = _run_alone(
                state, handler, init_arg, max_attempts, backoff_s, backoff_cap_s, emit
            )
    return outcomes


def _run_alone(
    state: _TaskState,
    handler,
    init_arg,
    max_attempts: int,
    backoff_s: float,
    backoff_cap_s: float,
    emit,
) -> TaskOutcome:
    """One task alone, inline: retry with backoff until done or quarantined."""
    spec = state.spec
    while True:
        state.attempts += 1
        t0 = time.perf_counter()
        try:
            (value,) = _call_unit(handler, init_arg, [spec.payload], state.charged)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            state.elapsed_s += time.perf_counter() - t0
            state.last_error = f"{type(exc).__name__}: {exc}"
            if state.charged >= max_attempts:
                return _quarantine(state, emit)
            emit(
                "retry",
                spec.task_id,
                attempt=state.charged,
                error=state.last_error,
            )
            time.sleep(_backoff(state.charged, backoff_s, backoff_cap_s))
        else:
            state.elapsed_s += time.perf_counter() - t0
            return _success(state, value, emit)


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
# Multiprocess pool
# ---------------------------------------------------------------------------


def _worker_main(handler, init_arg, task_q, result_q) -> None:
    """Worker loop: one unit at a time, failures reported not raised.

    Polls with a timeout so an orphaned worker — its coordinator hard-
    killed (``os._exit``), which skips the atexit hook that reaps daemon
    children — notices the re-parenting and exits instead of blocking on
    the queue forever.
    """
    parent = os.getppid()
    while True:
        try:
            item = task_q.get(timeout=2.0)
        except queue_mod.Empty:
            if os.getppid() != parent:
                return
            continue
        if item is None:
            return
        unit, payloads, dispatch, attempt = item
        t0 = time.perf_counter()
        try:
            values = _call_unit(handler, init_arg, payloads, attempt)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            result_q.put(
                (
                    "fail",
                    unit,
                    dispatch,
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - t0,
                )
            )
        else:
            result_q.put(("done", unit, dispatch, values, time.perf_counter() - t0))


@dataclass
class _WorkerHandle:
    proc: multiprocessing.Process
    task_q: Any
    #: (unit task ids, dispatch number) in flight, or None when idle.
    current: tuple[tuple[str, ...], int] | None = None


def _run_pool(
    units: list[tuple[str, ...]],
    states: dict[str, _TaskState],
    handler,
    init_arg,
    workers: int,
    max_attempts: int,
    backoff_s: float,
    backoff_cap_s: float,
    emit,
) -> dict[str, TaskOutcome]:
    ctx = multiprocessing.get_context()
    result_q = ctx.Queue()
    outcomes: dict[str, TaskOutcome] = {}
    # Ready heap: (ready_at, seq, unit); seq follows LPT rank so the
    # initial drain dispatches heaviest-first.
    seq = itertools.count()
    ready: list[tuple[float, int, tuple[str, ...]]] = []
    for unit in units:
        heapq.heappush(ready, (0.0, next(seq), unit))

    def spawn() -> _WorkerHandle:
        task_q = ctx.Queue()
        proc = ctx.Process(
            target=_worker_main,
            args=(handler, init_arg, task_q, result_q),
            daemon=True,
        )
        proc.start()
        return _WorkerHandle(proc=proc, task_q=task_q)

    handles = [spawn() for _ in range(min(workers, len(units)))]

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
        if not death:
            emit(
                "retry",
                state.spec.task_id,
                attempt=state.charged,
                error=error,
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

    try:
        while len(outcomes) < len(states):
            # 1. Drain results.
            try:
                msg = result_q.get(timeout=0.02)
            except queue_mod.Empty:
                msg = None
            while msg is not None:
                kind, unit, dispatch, *rest = msg
                for h in handles:
                    if h.current == (unit, dispatch):
                        h.current = None
                # Stale messages (task already resolved, a newer attempt
                # dispatched, this attempt already consumed by the
                # death-reap, or the unit since split) are dropped.
                if claim(unit, dispatch):
                    result, elapsed = rest
                    for task_id in unit:
                        states[task_id].elapsed_s += elapsed / len(unit)
                    if kind == "done":
                        for task_id, value in zip(unit, result):
                            outcomes[task_id] = _success(states[task_id], value, emit)
                    else:
                        fail_unit(unit, result, death=False)
                try:
                    msg = result_q.get_nowait()
                except queue_mod.Empty:
                    msg = None

            # 2. Reap dead workers; re-queue their in-flight units.
            for idx, h in enumerate(handles):
                if h.proc.is_alive():
                    continue
                if h.current is not None:
                    unit, dispatch = h.current
                    h.current = None
                    if claim(unit, dispatch):
                        fail_unit(
                            unit,
                            f"worker died (exit code {h.proc.exitcode})",
                            death=True,
                        )
                if len(outcomes) < len(states):
                    handles[idx] = spawn()

            # 3. Dispatch ready units to idle workers.
            now = time.monotonic()
            for h in handles:
                if h.current is not None:
                    continue
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
                h.current = (unit, dispatch)
                h.task_q.put(
                    (unit, [s.spec.payload for s in members], dispatch, attempt)
                )
    finally:
        for h in handles:
            try:
                h.task_q.put_nowait(None)
            except Exception:  # noqa: BLE001 - best-effort shutdown
                pass
        deadline = time.monotonic() + 2.0
        for h in handles:
            h.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if h.proc.is_alive():
                h.proc.terminate()
                h.proc.join(timeout=1.0)
        result_q.close()
        result_q.cancel_join_thread()

    return outcomes
