"""Unit tests for the fault-tolerant task scheduler.

Handlers live at module level: the pool pickles them by reference.
Fault behaviour is driven through the task payload, so the same handlers
serve the inline and multiprocess paths.  A handler receives a unit's
payloads and returns one value per payload; any faulty member fails the
whole unit, as a fused engine call would.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
from repro.jobs import TaskSpec, run_tasks
from repro.scoring import default_scheme

def handler(init_arg, payloads, attempt):
    return [threading.Lock()]

outcome = run_tasks([TaskSpec("t0", {})], handler, workers=1, backoff_s=0.001)["t0"]

pool.extend_suffixes_shard = lambda *args: [threading.Lock()]
workers = pool.WorkerPool(1)
try:
    workers.extend_spec(
        [("inline", np.zeros(64, dtype=np.uint8))], [(0, 0, 32, 32)],
        default_scheme(), FastzOptions(), 16, key="k",
    )
    pool_error = "no error"
except Exception as exc:
    pool_error = f"{type(exc).__name__}: {exc}"
finally:
    workers.close()
print(json.dumps([vars(outcome), pool_error]))
"""


def ok_handler(init_arg, payloads, attempt):
    return [{"task": p["n"], "init": init_arg, "attempt": attempt} for p in payloads]


def flaky_handler(init_arg, payloads, attempt):
    for payload in payloads:
        if attempt <= payload.get("fail_attempts", 0):
            raise RuntimeError(f"flaky (attempt {attempt})")
    return [p["n"] for p in payloads]


def dying_handler(init_arg, payloads, attempt):
    for payload in payloads:
        if attempt <= payload.get("die_attempts", 0):
            os._exit(1)  # simulates a segfault / OOM-kill: no exception, no result
    return [p["n"] for p in payloads]


def unit_handler(init_arg, payloads, attempt):
    """Each member's value is its whole unit, so a test can see who ran together."""
    return [sorted(p["n"] for p in payloads)] * len(payloads)


def specs(n, **payload_extra):
    return [
        TaskSpec(task_id=f"t{i}", payload={"n": i, **payload_extra}, weight=i + 1)
        for i in range(n)
    ]


class TestInline:
    def test_all_succeed(self):
        outcomes = run_tasks(specs(5), ok_handler, "ctx")
        assert set(outcomes) == {f"t{i}" for i in range(5)}
        for i in range(5):
            o = outcomes[f"t{i}"]
            assert o.ok and o.attempts == 1 and o.worker_deaths == 0
            assert o.value == {"task": i, "init": "ctx", "attempt": 1}

    def test_retry_then_success(self):
        events = []
        outcomes = run_tasks(
            [TaskSpec("t0", {"n": 0, "fail_attempts": 2})],
            flaky_handler,
            backoff_s=0.001,
            on_event=lambda kind, task, info: events.append(kind),
        )
        assert outcomes["t0"].ok and outcomes["t0"].attempts == 3
        assert events == ["retry", "retry", "done"]

    def test_quarantine_after_max_attempts(self):
        events = []
        outcomes = run_tasks(
            [TaskSpec("t0", {"n": 0, "fail_attempts": 99})],
            flaky_handler,
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
        outcomes = run_tasks(tasks, flaky_handler, max_attempts=2, backoff_s=0.001)
        assert not outcomes["bad"].ok
        assert outcomes["good"].ok and outcomes["good"].value == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="unique"):
            run_tasks([TaskSpec("a", {}), TaskSpec("a", {})], ok_handler)
        with pytest.raises(ValueError):
            run_tasks(specs(1), ok_handler, max_attempts=0)
        with pytest.raises(ValueError):
            run_tasks(specs(1), ok_handler, workers=-1)

    def test_empty_task_list(self):
        assert run_tasks([], ok_handler) == {}


class TestPool:
    def test_all_succeed_across_workers(self):
        outcomes = run_tasks(specs(9), ok_handler, "ctx", workers=3)
        assert all(o.ok for o in outcomes.values())
        assert sorted(o.value["task"] for o in outcomes.values()) == list(range(9))

    def test_worker_failure_retried(self):
        outcomes = run_tasks(
            [TaskSpec("t0", {"n": 7, "fail_attempts": 1})],
            flaky_handler,
            workers=2,
            backoff_s=0.001,
        )
        assert outcomes["t0"].ok and outcomes["t0"].attempts == 2

    def test_worker_death_requeues_task(self):
        events = []
        outcomes = run_tasks(
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
        outcomes = run_tasks(
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
        caller waits for it forever.  Both protocols on the worker
        lifecycle must see the pickling error: ``run_tasks`` retries and
        quarantines the task, ``WorkerPool.extend_spec`` raises it.
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


@pytest.mark.parametrize("workers", [0, 2])
class TestUnits:
    """A unit is several first-attempt tasks in one dispatch.

    It succeeds together or splits: each member then runs alone at the
    same attempt number, so faults stay per task.
    """

    def test_unit_succeeds_together(self, workers):
        events = []
        outcomes = run_tasks(
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
        outcomes = run_tasks(
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
        outcomes = run_tasks(
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
                run_tasks(specs(2), ok_handler, units=units, workers=workers)


class TestUnitWorkerDeath:
    def test_dying_unit_splits_uncharged(self):
        events = []
        tasks = [
            TaskSpec("lethal", {"n": 0, "die_attempts": 1}),
            TaskSpec("a", {"n": 1}),
        ]
        outcomes = run_tasks(
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
        outcomes = run_tasks(
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
        from repro.jobs.scheduler import _TaskState

        state = _TaskState(TaskSpec(task_id, {"n": 0}))
        state.attempts = 1  # dispatched once, in flight
        return state

    def test_second_observer_of_same_attempt_is_stale(self):
        from repro.jobs.scheduler import _claim_attempt

        state = self._state()
        assert _claim_attempt(state, {}, 1)  # death-reap consumes attempt 1
        assert not _claim_attempt(state, {}, 1)  # late fail msg: stale

    def test_next_dispatch_is_claimable_again(self):
        from repro.jobs.scheduler import _claim_attempt

        state = self._state()
        assert _claim_attempt(state, {}, 1)
        state.attempts = 2  # re-queued task dispatched again
        assert _claim_attempt(state, {}, 2)
        assert not _claim_attempt(state, {}, 2)

    def test_old_attempt_numbers_are_stale(self):
        from repro.jobs.scheduler import _claim_attempt

        state = self._state()
        state.attempts = 2
        assert not _claim_attempt(state, {}, 1)

    def test_resolved_task_rejects_everything(self):
        from repro.jobs.scheduler import _claim_attempt

        state = self._state()
        assert not _claim_attempt(state, {"t0": object()}, 1)

    def test_split_units_late_message_is_stale(self):
        from repro.jobs.scheduler import _claim_attempt, _split

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
