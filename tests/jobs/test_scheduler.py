"""Unit tests for the fault-tolerant dispatch loop, ``run_tasks``.

Handlers live at module level: every message pickles its handler by
reference.  Fault behaviour is driven through the task payload, so the
same handlers serve the inline and multiprocess paths.  A handler
receives the group's state and a unit's payloads and returns one value
per payload; any faulty member fails the whole unit, as a fused engine
call would.  Most tests open a group around one call (:func:`run`); the
loop itself never opens or closes one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.pool import InlineSlots, open_slots
from repro.jobs import TaskSpec, run_tasks

_SRC_PATH = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[2] / "src"),
    os.environ.get("PYTHONPATH", ""),
]))

# Workers inherit the handler and the patched shard function by fork.
_UNPICKLABLE_ANSWER = """
import json
import threading

import numpy as np

import repro.core.pool as pool
from repro.core.options import FastzOptions
from repro.core.pipeline import ExtensionSpec
from repro.jobs import TaskSpec, run_tasks
from repro.scoring import default_scheme

def handler(state, payloads, attempt):
    return [threading.Lock()]

slots = pool.open_slots(1, None, name="test-worker")
try:
    outcome = run_tasks([TaskSpec("t0", {})], handler, slots, backoff_s=0.001)["t0"]
finally:
    slots.close()

pool.extend_suffixes_shard = lambda *args: [threading.Lock()]
workers = pool.WorkerPool(1)
try:
    workers.extend_spec(
        ExtensionSpec((np.zeros(64, dtype=np.uint8),), ((0, 0, 32, 32),)),
        default_scheme(), FastzOptions(), 16,
    )
    pool_error = "no error"
except Exception as exc:
    pool_error = f"{type(exc).__name__}: {exc}"
finally:
    workers.close()
print(json.dumps([vars(outcome), pool_error]))
"""


# A handler that cannot be pickled into a message, then one that can, on
# one group.
_UNPICKLABLE_HANDLER = """
import json

from repro.core.pool import open_slots, run_tasks
from repro.jobs import TaskSpec

def ones(state, payloads, attempt):
    return [1] * len(payloads)

slots = open_slots(1, None, name="test-worker")
try:
    try:
        run_tasks([TaskSpec("t0", {})], lambda state, payloads, attempt: payloads, slots)
        error = "no error"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    after = run_tasks([TaskSpec("t0", {})], ones, slots)["t0"].value
finally:
    slots.close()
print(json.dumps([error, after]))
"""


# One worker answers a task, then dies on the next, twelve times over:
# every death follows an answer the worker has just sent.
_ANSWER_THEN_DIE = """
import json
import os

from repro.core.pool import open_slots, run_tasks
from repro.jobs import TaskSpec

def answer_or_die(state, payloads, attempt):
    for payload in payloads:
        if payload["die"] and attempt == 1:
            os._exit(1)
    return [p["n"] for p in payloads]

tasks = [
    TaskSpec(f"t{i}", {"n": i, "die": i % 2 == 1}, weight=24 - i) for i in range(24)
]
slots = open_slots(1, None, name="test-worker")
try:
    outcomes = run_tasks(tasks, answer_or_die, slots, backoff_s=0.0)
finally:
    slots.close()
print(json.dumps({t: [o.ok, o.value, o.worker_deaths] for t, o in outcomes.items()}))
"""


def ok_handler(state, payloads, attempt):
    return [{"task": p["n"], "init": state, "attempt": attempt} for p in payloads]


def flaky_handler(state, payloads, attempt):
    for payload in payloads:
        if attempt <= payload.get("fail_attempts", 0):
            raise RuntimeError(f"flaky (attempt {attempt})")
    return [p["n"] for p in payloads]


def dying_handler(state, payloads, attempt):
    for payload in payloads:
        if attempt <= payload.get("die_attempts", 0):
            os._exit(1)  # simulates a segfault / OOM-kill: no exception, no result
    return [p["n"] for p in payloads]


def unit_handler(state, payloads, attempt):
    """Each member's value is its whole unit, so a test can see who ran together."""
    return [sorted(p["n"] for p in payloads)] * len(payloads)


def pid_handler(state, payloads, attempt):
    return [os.getpid()] * len(payloads)


class _CarryOverSlots(InlineSlots):
    """One inline slot that carries answers and reaped tags across calls.

    A group outlives a call, so it can still deliver an earlier call's
    answer, or reap a worker that died running an earlier call's unit.
    Answers in ``replay`` arrive alone, before the unit in flight runs;
    tags in ``dead`` are reaped while a unit is in flight.  Every answer
    the slot produced is kept in ``delivered``.
    """

    def __init__(self, state):
        super().__init__(state)
        self.delivered, self.replay, self.dead = [], [], []
        self.closed = False

    def wait(self, timeout):
        if self.replay:
            out, self.replay = self.replay, []
            return out
        answers = super().wait(timeout)
        self.delivered += answers
        return answers

    def reap(self):
        if self.idle():
            return []
        out, self.dead = self.dead, []
        return out

    def close(self):
        self.closed = True


def specs(n, **payload_extra):
    return [
        TaskSpec(task_id=f"t{i}", payload={"n": i, **payload_extra}, weight=i + 1)
        for i in range(n)
    ]


def run(tasks, handler, state=None, *, workers, **kwargs):
    """``run_tasks`` on a group of ``workers`` opened and closed around it."""
    slots = open_slots(workers, state, name="test-worker")
    try:
        return run_tasks(tasks, handler, slots, **kwargs)
    finally:
        slots.close()


class TestInline:
    """Core scheduling cases on one in-process slot (``workers=0``).

    :class:`TestInlineOnTwoWorkers` reruns every case on two worker
    processes: both counts run the same loop.
    """

    workers = 0

    def test_all_succeed(self):
        outcomes = run(specs(5), ok_handler, "ctx", workers=self.workers)
        assert set(outcomes) == {f"t{i}" for i in range(5)}
        for i in range(5):
            o = outcomes[f"t{i}"]
            assert o.ok and o.attempts == 1 and o.worker_deaths == 0
            assert o.value == {"task": i, "init": "ctx", "attempt": 1}

    def test_retry_then_success(self):
        events = []
        outcomes = run(
            [TaskSpec("t0", {"n": 0, "fail_attempts": 2})],
            flaky_handler,
            workers=self.workers,
            backoff_s=0.001,
            on_event=lambda kind, task, info: events.append(kind),
        )
        assert outcomes["t0"].ok and outcomes["t0"].attempts == 3
        assert events == ["retry", "retry", "done"]

    def test_quarantine_after_max_attempts(self):
        events = []
        outcomes = run(
            [TaskSpec("t0", {"n": 0, "fail_attempts": 99})],
            flaky_handler,
            workers=self.workers,
            max_attempts=3,
            backoff_s=0.001,
            on_event=lambda kind, task, info: events.append(kind),
        )
        o = outcomes["t0"]
        assert not o.ok and o.attempts == 3 and "flaky" in o.error
        assert events == ["retry", "retry", "quarantined"]

    def test_quarantine_does_not_block_other_tasks(self):
        tasks = [
            TaskSpec("bad", {"n": -1, "fail_attempts": 99}),
            TaskSpec("good", {"n": 1}),
        ]
        outcomes = run(
            tasks, flaky_handler, workers=self.workers, max_attempts=2,
            backoff_s=0.001,
        )
        assert not outcomes["bad"].ok
        assert outcomes["good"].ok and outcomes["good"].value == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="unique"):
            run(
                [TaskSpec("a", {}), TaskSpec("a", {})], ok_handler,
                workers=self.workers,
            )
        with pytest.raises(ValueError):
            run(specs(1), ok_handler, workers=self.workers, max_attempts=0)
        with pytest.raises(ValueError):
            open_slots(-1, None, name="test-worker")

    def test_empty_task_list(self):
        assert run([], ok_handler, workers=self.workers) == {}


class TestInlineOnTwoWorkers(TestInline):
    workers = 2


class TestCallerOwnedGroup:
    """``run_tasks`` drives a group its caller opened, for many calls."""

    def test_earlier_calls_answers_and_deaths_are_dropped(self):
        slots = _CarryOverSlots("ctx")
        first = run_tasks(specs(2), ok_handler, slots)
        assert all(o.ok for o in first.values())
        assert not slots.closed
        # The first call's answers, and a death while running its units,
        # reach the next call: "t0" under the same id and dispatch number,
        # "t1" under an id the next call does not run.
        slots.replay = [
            (tag, True, ["stale"], seconds)
            for tag, _ok, _value, seconds in slots.delivered
        ]
        slots.dead = [(0, tag, 137) for tag, *_ in slots.delivered]
        events = []
        second = run_tasks(
            [TaskSpec("t0", {"n": 7})],
            ok_handler,
            slots,
            on_event=lambda kind, task, info: events.append(kind),
        )
        o = second["t0"]
        assert o.ok and o.attempts == 1 and o.worker_deaths == 0
        assert o.value == {"task": 7, "init": "ctx", "attempt": 1}
        assert events == ["done"]
        assert not slots.replay and not slots.dead
        assert not slots.closed


class TestInlineSlot:
    def test_backoff_does_not_block_the_next_unit(self):
        # The inline slot runs the pool's loop: while "bad" waits out its
        # backoff, "good" runs, and "bad" retries after it.
        events = []
        outcomes = run(
            [
                TaskSpec("bad", {"n": -1, "fail_attempts": 1}),
                TaskSpec("good", {"n": 1}),
            ],
            flaky_handler,
            workers=0,
            backoff_s=0.05,
            on_event=lambda kind, task, info: events.append((kind, task)),
        )
        assert events == [("retry", "bad"), ("done", "good"), ("done", "bad")]
        assert outcomes["bad"].ok and outcomes["bad"].attempts == 2
        assert outcomes["good"].ok and outcomes["good"].attempts == 1


class TestPool:
    def test_group_serves_successive_calls(self):
        slots = open_slots(2, None, name="test-worker")
        try:
            pids = slots.pids
            for _ in range(2):
                outcomes = run_tasks(specs(4), pid_handler, slots)
                assert all(o.ok for o in outcomes.values())
                assert {o.value for o in outcomes.values()} <= set(pids)
            assert slots.pids == pids and slots.n_alive == 2
        finally:
            slots.close()

    def test_all_succeed_across_workers(self):
        outcomes = run(specs(9), ok_handler, "ctx", workers=3)
        assert all(o.ok for o in outcomes.values())
        assert sorted(o.value["task"] for o in outcomes.values()) == list(range(9))

    def test_worker_failure_retried(self):
        outcomes = run(
            [TaskSpec("t0", {"n": 7, "fail_attempts": 1})],
            flaky_handler,
            workers=2,
            backoff_s=0.001,
        )
        assert outcomes["t0"].ok and outcomes["t0"].attempts == 2

    def test_worker_death_requeues_task(self):
        events = []
        outcomes = run(
            [TaskSpec("t0", {"n": 3, "die_attempts": 1}), TaskSpec("t1", {"n": 4})],
            dying_handler,
            workers=2,
            backoff_s=0.001,
            on_event=lambda kind, task, info: events.append((kind, task)),
        )
        assert outcomes["t0"].ok and outcomes["t0"].value == 3
        assert outcomes["t0"].worker_deaths == 1
        assert outcomes["t0"].attempts == 2
        assert outcomes["t1"].ok
        assert ("worker_death", "t0") in events

    def test_reliably_lethal_task_quarantined(self):
        outcomes = run(
            [TaskSpec("t0", {"n": 0, "die_attempts": 99})],
            dying_handler,
            workers=1,
            max_attempts=2,
            backoff_s=0.001,
        )
        o = outcomes["t0"]
        assert not o.ok and o.worker_deaths == 2 and o.attempts == 2

    def test_unpicklable_answer_fails_instead_of_hanging(self):
        """An answer the worker cannot pickle is a failure, not a lost message.

        Runs in a subprocess with a timeout: when the answer is lost, the
        caller waits for it forever.  Both callers of the loop must see
        the pickling error: a job task is retried and quarantined, while
        ``WorkerPool.extend_spec`` raises it.
        """
        proc = subprocess.run(
            [sys.executable, "-c", _UNPICKLABLE_ANSWER],
            env=dict(os.environ, PYTHONPATH=_SRC_PATH),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outcome, pool_error = json.loads(proc.stdout.splitlines()[-1])
        assert outcome["ok"] is False
        assert outcome["attempts"] == 3
        assert "cannot pickle" in outcome["error"]
        assert pool_error.startswith("TypeError") and "cannot pickle" in pool_error


    def test_death_right_after_an_answer_blocks_no_later_answer(self):
        """A worker that dies just after answering leaves the group working.

        Runs in a subprocess with a timeout: were the answers on one
        queue shared by every worker, a worker killed while its feeder
        thread still held the queue's write lock would block every later
        answer, and the caller would wait forever.
        """
        proc = subprocess.run(
            [sys.executable, "-c", _ANSWER_THEN_DIE],
            env=dict(os.environ, PYTHONPATH=_SRC_PATH),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outcomes = json.loads(proc.stdout.splitlines()[-1])
        assert outcomes == {
            f"t{i}": [True, i, i % 2] for i in range(24)
        }

    def test_unpicklable_handler_raises_instead_of_hanging(self):
        """Every message pickles its handler; one that cannot be pickled
        raises in the caller and leaves its slot idle for the next call.

        Runs in a subprocess with a timeout: a message the queue's feeder
        thread fails to pickle is dropped, and the caller waits forever.
        """
        proc = subprocess.run(
            [sys.executable, "-c", _UNPICKLABLE_HANDLER],
            env=dict(os.environ, PYTHONPATH=_SRC_PATH),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        error, after = json.loads(proc.stdout.splitlines()[-1])
        assert "pickle" in error and "lambda" in error
        assert after == 1


@pytest.mark.parametrize("workers", [0, 2])
class TestUnits:
    """A unit is several first-attempt tasks in one dispatch.

    It succeeds together or splits: each member then runs alone at the
    same attempt number, so faults stay per task.
    """

    def test_unit_succeeds_together(self, workers):
        events = []
        outcomes = run(
            specs(5),
            unit_handler,
            units=[["t0", "t3"], ["t1", "t2", "t4"]],
            workers=workers,
            on_event=lambda kind, task, info: events.append((kind, task)),
        )
        for i in range(5):
            o = outcomes[f"t{i}"]
            assert o.ok and o.attempts == 1 and o.worker_deaths == 0
            assert o.value == ([0, 3] if i in (0, 3) else [1, 2, 4])
        assert sorted(events) == [("done", f"t{i}") for i in range(5)]

    def test_raising_unit_splits_uncharged(self, workers):
        events = []
        tasks = [
            TaskSpec("bad", {"n": -1, "fail_attempts": 1}),
            TaskSpec("a", {"n": 1}),
            TaskSpec("b", {"n": 2}),
        ]
        outcomes = run(
            tasks,
            flaky_handler,
            units=[["bad", "a", "b"]],
            workers=workers,
            backoff_s=0.001,
            on_event=lambda kind, task, info: events.append((kind, task, info)),
        )
        (split,) = [info for kind, _, info in events if kind == "split"]
        assert split["tasks"] == ["bad", "a", "b"]
        assert not split["died"] and "flaky" in split["error"]
        # The culprit alone shows today's exact sequence, from attempt 1.
        assert [(k, i.get("attempt", i.get("attempts"))) for k, t, i in events
                if t == "bad"] == [("retry", 1), ("done", 2)]
        assert outcomes["bad"].ok and outcomes["bad"].attempts == 2
        for task_id in ("a", "b"):
            assert [k for k, t, _ in events if t == task_id] == ["done"]
            assert outcomes[task_id].ok and outcomes[task_id].attempts == 1

    @pytest.mark.parametrize("max_attempts", [1, 2])
    def test_raising_unit_quarantines_only_the_culprit(self, workers, max_attempts):
        events = []
        tasks = [
            TaskSpec("a", {"n": 1}),
            TaskSpec("bad", {"n": -1, "fail_attempts": 99}),
        ]
        outcomes = run(
            tasks,
            flaky_handler,
            units=[["a", "bad"]],
            workers=workers,
            max_attempts=max_attempts,
            backoff_s=0.001,
            on_event=lambda kind, task, info: events.append((kind, task)),
        )
        o = outcomes["bad"]
        assert not o.ok and o.attempts == max_attempts and "flaky" in o.error
        assert [k for k, t in events if t == "bad"] == (
            ["retry"] * (max_attempts - 1) + ["quarantined"]
        )
        assert outcomes["a"].ok and outcomes["a"].attempts == 1

    def test_units_must_cover_every_task_once(self, workers):
        for units in (
            [["t0"]],
            [["t0", "t1"], ["t1"]],
            [["t0", "t1"], []],
            [["t0", "t1", "t9"]],
        ):
            with pytest.raises(ValueError, match="units"):
                run(specs(2), ok_handler, units=units, workers=workers)


class TestUnitWorkerDeath:
    def test_dying_unit_splits_uncharged(self):
        events = []
        tasks = [
            TaskSpec("lethal", {"n": 0, "die_attempts": 1}),
            TaskSpec("a", {"n": 1}),
        ]
        outcomes = run(
            tasks,
            dying_handler,
            units=[["lethal", "a"]],
            workers=2,
            backoff_s=0.001,
            on_event=lambda kind, task, info: events.append((kind, task, info)),
        )
        (split,) = [info for kind, _, info in events if kind == "split"]
        assert split["died"] and "worker died" in split["error"]
        # Alone, the lethal member kills one more worker, charged once.
        o = outcomes["lethal"]
        assert o.ok and o.value == 0 and o.attempts == 2 and o.worker_deaths == 1
        assert outcomes["a"].ok and outcomes["a"].attempts == 1
        assert outcomes["a"].worker_deaths == 0

    def test_lethal_member_quarantined_alone(self):
        outcomes = run(
            [
                TaskSpec("a", {"n": 1}),
                TaskSpec("lethal", {"n": 0, "die_attempts": 99}),
                TaskSpec("b", {"n": 2}),
            ],
            dying_handler,
            units=[["a", "lethal", "b"]],
            workers=1,
            max_attempts=1,
            backoff_s=0.001,
        )
        o = outcomes["lethal"]
        assert not o.ok and o.attempts == 1 and o.worker_deaths == 1
        assert outcomes["a"].ok and outcomes["b"].ok
        assert outcomes["a"].attempts == outcomes["b"].attempts == 1


class TestAttemptClaim:
    """The death-race staleness guard, exercised deterministically.

    The coordinator can observe one in-flight attempt twice — once via
    the death-reap and once via the dying worker's last queued ``fail``
    message — in either order.  ``_claim_attempt`` must admit exactly one
    observer per attempt, or a single failure burns two attempts toward
    quarantine and re-queues the task twice.
    """

    def _state(self, task_id="t0"):
        from repro.core.pool import _TaskState

        state = _TaskState(TaskSpec(task_id, {"n": 0}))
        state.attempts = 1  # dispatched once, in flight
        return state

    def test_second_observer_of_same_attempt_is_stale(self):
        from repro.core.pool import _claim_attempt

        state = self._state()
        assert _claim_attempt(state, {}, 1)  # death-reap consumes attempt 1
        assert not _claim_attempt(state, {}, 1)  # late fail msg: stale

    def test_next_dispatch_is_claimable_again(self):
        from repro.core.pool import _claim_attempt

        state = self._state()
        assert _claim_attempt(state, {}, 1)
        state.attempts = 2  # re-queued task dispatched again
        assert _claim_attempt(state, {}, 2)
        assert not _claim_attempt(state, {}, 2)

    def test_old_attempt_numbers_are_stale(self):
        from repro.core.pool import _claim_attempt

        state = self._state()
        state.attempts = 2
        assert not _claim_attempt(state, {}, 1)

    def test_resolved_task_rejects_everything(self):
        from repro.core.pool import _claim_attempt

        state = self._state()
        assert not _claim_attempt(state, {"t0": object()}, 1)

    def test_split_units_late_message_is_stale(self):
        from repro.core.pool import _claim_attempt, _split

        # Both in flight as the unit ("t0", "t1"), dispatch 1.
        states = {"t0": self._state("t0"), "t1": self._state("t1")}
        # The death-reap consumes the unit's dispatch and splits it.
        assert all([_claim_attempt(s, {}, 1) for s in states.values()])
        _split(("t0", "t1"), states, "worker died", True, lambda *a, **k: None)
        state = states["t0"]
        state.attempts = 2  # re-dispatched alone...
        assert state.charged == 1  # ...at the same, uncharged attempt
        assert not _claim_attempt(state, {}, 1)  # dead unit's last message
        assert _claim_attempt(state, {}, 2)
