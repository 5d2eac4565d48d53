"""The whole-genome job runner: checkpointed, fault-tolerant WGA.

``run_wga`` drives a full alignment job through four phases:

1. **Ownership grid** — both sequences are tiled into disjoint cores of
   ``chunk_size`` bases (the last core absorbs the remainder), and each
   chunk pair of that grid owns the anchors whose positions its cores
   hold.  The grid keys the extend tasks, the journal records and the
   merge watermark; it bounds no extension.
2. **Seed** — one task (``anchors``) runs
   :func:`repro.lastz.pipeline.select_anchors` over the whole pair, the
   call the single-pass pipeline makes, so the job's anchors are the
   single pass's by construction.  Seeding's dependencies are global
   (censoring counts words over the whole target, thinning scans whole
   diagonals), so it is not chunked.
3. **Extend** — anchors are grouped by owning chunk pair, one task per
   pair.  Tasks are dealt by anchor weight into *units* of about one
   lockstep block's rows (``FastzOptions.batch_size``), at least one per
   worker.  A unit runs the calls :func:`repro.core.pipeline.run_fastz`
   makes, on the whole sequences: ``prepare_fastz`` per member, one
   ``extend_suffixes_shard`` engine call over every member's suffixes and
   ``finish_fastz`` per member.  Extension problems are independent, so
   a task's records are the single pass's records for its anchors.
   Units are scheduled heaviest-first across the job's workers
   (:func:`repro.core.pool.run_tasks`); retry, quarantine, worker-death
   re-queue and the journal stay per task, because a unit that fails
   splits into its members, uncharged.
4. **Merge** — task results are deduplicated in global anchor order and
   canonically sorted (:mod:`repro.jobs.merge`).

A job opens one worker group (:func:`repro.core.pool.open_slots`) when
its first task is due and closes it when the job ends, so its workers
are forked once and run both phases, and a job whose tasks are all
journaled forks none.

Every completed task appends one record to an on-disk journal
(:mod:`repro.jobs.journal`) keyed by a job digest over the sequences,
scoring configuration, pipeline options and ownership grid.
Killing a job at any point and re-running it replays the journal and
re-executes only unfinished tasks; the final output is byte-identical to
an uninterrupted run at any worker count.

Test hooks (environment variables, used by the fault-injection tests and
the kill/resume CI job; both are inert unless set):

* ``REPRO_WGA_TEST_FAIL="e:c0x1=2,s:anchors=-1"`` — the named task raises
  on its first N attempts (``-1`` = always; ``s:``/``e:`` = seed/extend,
  and ``anchors`` is the one seed task).  A faulted member fails its
  whole unit, which splits, so the task then fails alone exactly as an
  unfused one.
* ``REPRO_WGA_TEST_EXIT_AFTER=K`` — hard ``os._exit(137)`` (SIGKILL
  semantics: no cleanup, no atexit) right after the K-th task record is
  journaled by this process.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import closing
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store import StoredReference

import numpy as np

from .. import obs
from ..align.alignment import Alignment
from ..core.multigpu import partition_loads
from ..core.options import FASTZ_FULL, FastzOptions
from ..core.pipeline import extend_suffixes_shard, finish_fastz, prepare_fastz
from ..core.pool import TaskOutcome, TaskSpec, open_slots, run_tasks
from ..genome.sequence import Sequence
from ..lastz.config import LastzConfig
from ..lastz.pipeline import select_anchors
from ..seeding import Anchors
from ..service.request import scheme_digest
from .journal import Journal, replay
from .merge import IncrementalMerger, ops_from_cigar

__all__ = ["JobOptions", "QuarantinedTask", "WgaReport", "run_wga"]

#: Bump when the journal schema changes; part of the job digest, so stale
#: journals are rejected rather than misread.
JOURNAL_VERSION = 2

#: Task id of the seed phase's one task.
SEED_TASK = "anchors"


@dataclass(frozen=True)
class JobOptions:
    """Knobs of the job runner (orthogonal to :class:`FastzOptions`)."""

    #: Core tile size per sequence, in bases: the ownership grid that
    #: keys extend tasks.
    chunk_size: int = 32_768
    #: Worker processes; 0 = run inline in this process.
    workers: int = 0
    #: Attempts per task before quarantine.
    max_attempts: int = 3
    #: Base retry backoff (exponential, capped at
    #: :data:`repro.core.pool.BACKOFF_CAP_S`).
    backoff_s: float = 0.05
    #: fsync the journal after every record (off = tests/benchmarks).
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


@dataclass(frozen=True)
class QuarantinedTask:
    """A task that exhausted its attempts; the job completed around it."""

    phase: str
    task_id: str
    attempts: int
    error: str


@dataclass
class WgaReport:
    """Outcome of one whole-genome job."""

    alignments: list[Alignment]
    job_dir: Path
    digest: str
    resumed: bool
    n_anchors: int
    n_seed_tasks: int
    n_extend_tasks: int
    seed_skipped: int
    extend_skipped: int
    retries: int
    worker_deaths: int
    #: Always 0: extension runs on the whole sequences.  perfbench's
    #: ``jobs.window_fallback_frac`` reads it.
    window_fallbacks: int = 0
    quarantined: list[QuarantinedTask] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def complete(self) -> bool:
        """True when no chunk was quarantined (no reported gaps)."""
        return not self.quarantined


class JobDigestMismatch(ValueError):
    """An existing journal belongs to a different job definition."""


# ---------------------------------------------------------------------------
# Job identity
# ---------------------------------------------------------------------------


def _config_digest(config: LastzConfig) -> str:
    h = hashlib.sha256()
    for f in dataclass_fields(config):
        value = getattr(config, f.name)
        if f.name == "scheme":
            h.update(scheme_digest(value).encode())
        else:
            h.update(f"{f.name}={value!r}".encode())
        h.update(b"\x00")
    return h.hexdigest()


def job_digest(
    target: Sequence,
    query: Sequence,
    config: LastzConfig,
    options: FastzOptions,
    chunk_size: int,
) -> str:
    """Identity of a job's *result-relevant* inputs.

    Worker count, retry policy and fsync mode are deliberately excluded:
    they change wall-clock, never output, and a journal written at
    ``workers=8`` must resume cleanly at ``workers=1``.  Geometry is
    included — a journal records one completion per chunk pair of the
    ownership grid, so the grid must match.
    """
    h = hashlib.sha256()
    h.update(f"journal-v{JOURNAL_VERSION}".encode())
    for seq in (target, query):
        h.update(seq.name.encode() + b"\x00")
        h.update(np.ascontiguousarray(seq.codes).tobytes())
    h.update(_config_digest(config).encode())
    for f in dataclass_fields(options):
        h.update(f"{f.name}={getattr(options, f.name)!r}".encode() + b"\x00")
    h.update(f"chunk_size={chunk_size}".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Test hooks
# ---------------------------------------------------------------------------


def _maybe_inject_fault(task_key: str, attempt: int) -> None:
    """Raise if REPRO_WGA_TEST_FAIL says this task's attempt should fail."""
    spec = os.environ.get("REPRO_WGA_TEST_FAIL", "")
    if not spec:
        return
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry or "=" not in entry:
            continue
        key, _, count = entry.partition("=")
        if key.strip() != task_key:
            continue
        n = int(count)
        if n < 0 or attempt <= n:
            raise RuntimeError(
                f"injected fault for {task_key} (attempt {attempt})"
            )


class _ExitAfter:
    """SIGKILL-style hard exit after N journaled task records."""

    def __init__(self) -> None:
        raw = os.environ.get("REPRO_WGA_TEST_EXIT_AFTER", "")
        self.limit = int(raw) if raw else 0
        self.count = 0

    def tick(self) -> None:
        if not self.limit:
            return
        self.count += 1
        if self.count >= self.limit:
            os._exit(137)


# ---------------------------------------------------------------------------
# Phase handlers (module-level: every message pickles its handler by
# reference, and ``run_wga`` looks both up when it calls ``run_tasks``)
#
# Both take the job's worker-group state ``(target, query, config,
# options)``, which travels once per worker: inherited without a copy
# under ``fork``, pickled once at spawn under other start methods.  A
# side may be a stored reference: the worker that seeds reads a stored
# target's persisted table, and keeps it until the group closes.
# ---------------------------------------------------------------------------


def _seed_handler(state, payloads: list, attempt: int) -> list[dict]:
    """Select the whole pair's anchors, exactly as the single pass does."""
    target, query, config, _options = state
    out = []
    for payload in payloads:
        _maybe_inject_fault(f"s:{payload['id']}", attempt)
        anchors = select_anchors(target, query, config)
        out.append(
            {"at": anchors.target_pos.tolist(), "aq": anchors.query_pos.tolist()}
        )
    return out


def _extend_handler(state, payloads: list, attempt: int) -> list[dict]:
    """Extend a unit of tasks' owned anchors in one engine call.

    Each member is prepared and finished as ``run_fastz`` prepares and
    finishes a pair, and every member's suffixes go to the engine in one
    call: the records are the single pass's records for those anchors.
    """
    target, query, config, options = state
    # Any member's injected fault fails the whole unit; the scheduler then
    # splits it and the member fails alone, exactly as an unfused task.
    for payload in payloads:
        _maybe_inject_fault(f"e:{payload['id']}", attempt)
    members = [
        prepare_fastz(
            target,
            query,
            config,
            options,
            anchors=Anchors(
                np.asarray(payload["at"], dtype=np.int64),
                np.asarray(payload["aq"], dtype=np.int64),
            ),
        )
        for payload in payloads
    ]
    per_anchor = extend_suffixes_shard(
        [s for prep in members for s in prep.suffixes()],
        config.scheme,
        options,
        members[0].tile,
    )
    out = []
    lo = 0
    for prep in members:
        result = finish_fastz(prep, per_anchor[lo : lo + prep.n_anchors])
        lo += prep.n_anchors
        # Tasks are in anchor order; those clearing the gapped threshold
        # have one alignment each, in the same order.
        alignments = iter(result.alignments)
        rows = []
        for task in result.tasks:
            if task.score >= config.scheme.gapped_threshold:
                a = next(alignments)
                rows.append(
                    [task.anchor_t, task.anchor_q, a.target_start, a.target_end,
                     a.query_start, a.query_end, a.score, a.cigar()]
                )
        out.append(
            {"alignments": rows, "n_anchors": prep.n_anchors, "eager": result.eager_count}
        )
    return out


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class _JobGroup:
    """The job's one worker group, opened when its first task is due."""

    def __init__(self, workers: int, state) -> None:
        self._workers = workers
        self._state = state
        self._slots = None

    def __call__(self):
        if self._slots is None:
            self._slots = open_slots(
                self._workers, self._state, name="repro-job-worker"
            )
        return self._slots

    def close(self) -> None:
        if self._slots is not None:
            self._slots.close()


def _extend_units(
    tasks: list[TaskSpec], workers: int, batch_size: int
) -> tuple[list[list[str]], list[float]]:
    """Deal extend tasks by anchor weight into units for fused engine calls.

    A unit holds about one lockstep block's rows (two per anchor), and
    there are at least as many units as workers, so every worker still
    gets work.  Members keep task order inside a unit.  Returns the units
    and their anchor counts; every unit is non-empty, because LPT deals
    the heaviest ``n_units`` tasks one to each part first.
    """
    if not tasks:
        return [], []
    n_anchors = sum(t.weight for t in tasks)
    n_units = min(
        len(tasks), max(workers or 1, math.ceil(2 * n_anchors / batch_size))
    )
    parts, loads = partition_loads([t.weight for t in tasks], n_units)
    return [[tasks[i].task_id for i in sorted(part)] for part in parts], loads


def _succeeded(outcomes: dict[str, TaskOutcome]) -> dict[str, dict]:
    """The values of the tasks that succeeded; records each one's wall time."""
    seconds = obs.histogram(
        "repro_jobs_task_seconds",
        "Wall time of individual WGA tasks (successful attempts).",
    )
    out = {}
    for task_id, outcome in outcomes.items():
        if outcome.ok:
            seconds.observe(outcome.elapsed_s)
            out[task_id] = outcome.value
    return out


def _owner_index(pos: np.ndarray, length: int, chunk_size: int) -> np.ndarray:
    """Owning core per position of a sequence of ``length`` bases.

    Cores of ``chunk_size`` bases tile the sequence; the last absorbs the
    remainder, so no core is a stub, and a sequence shorter than one core
    is one chunk.
    """
    return np.minimum(pos // chunk_size, max(1, length // chunk_size) - 1)


def _owned_anchors(
    anchors: Anchors, t_len: int, q_len: int, chunk_size: int
) -> dict[str, list[int]]:
    """Anchor indices per owning chunk pair, keyed ``c{t core}x{q core}``."""
    t_owner = _owner_index(anchors.target_pos, t_len, chunk_size)
    q_owner = _owner_index(anchors.query_pos, q_len, chunk_size)
    by_pair: dict[str, list[int]] = {}
    for idx, (ti, qi) in enumerate(zip(t_owner.tolist(), q_owner.tolist())):
        by_pair.setdefault(f"c{ti}x{qi}", []).append(idx)
    return by_pair


def _stale_journal_name(journal_path: Path, digest: str) -> Path:
    """Collision-proof rotation name for a discarded (``fresh=True``) journal.

    A wall-clock-seconds stamp collides when two fresh runs start within
    the same second (the second rename silently targets the first run's
    rotation) and jumps around under clock changes.  The job digest plus
    pid plus a monotonic-nanosecond reading is unique per run: the digest
    ties the rotation to the job it replaced, the pid separates concurrent
    processes, and the monotonic clock never repeats within a process.
    """
    stamp = f"{digest[:12]}-{os.getpid():x}-{time.monotonic_ns():x}"
    return journal_path.with_suffix(f".jsonl.stale-{stamp}")


def _chunk_records(record: dict) -> list[tuple[int, int, Alignment]]:
    """Decode one extend-task journal record into merge records."""
    out: list[tuple[int, int, Alignment]] = []
    for at, aq, ts, te, qs, qe, score, cigar in record["alignments"]:
        out.append(
            (
                at,
                aq,
                Alignment(
                    target_start=ts,
                    target_end=te,
                    query_start=qs,
                    query_end=qe,
                    score=score,
                    ops=ops_from_cigar(cigar),
                ),
            )
        )
    return out


def run_wga(
    target: "Sequence | StoredReference",
    query: "Sequence | StoredReference",
    config: LastzConfig | None = None,
    options: FastzOptions = FASTZ_FULL,
    *,
    job: JobOptions = JobOptions(),
    job_dir: str | Path,
    fresh: bool = False,
    log: Callable[[str], None] | None = None,
    on_alignment: Callable[[Alignment], None] | None = None,
) -> WgaReport:
    """Run (or resume) a checkpointed whole-genome alignment job.

    Parameters
    ----------
    job:
        Ownership grid, worker pool size and fault-tolerance policy.
    job_dir:
        Durable state directory; holds ``journal.jsonl``.  Re-running with
        the same directory resumes: tasks with journal records are
        skipped.  A journal from a *different* job definition raises
        :class:`JobDigestMismatch` unless ``fresh=True`` rotates it away.
    log:
        Progress sink (one line per event); ``None`` disables reporting.
    on_alignment:
        Streaming sink: called once per *finalized* alignment, in global
        anchor order, as soon as the merge watermark proves no unfinished
        chunk task can precede it (``repro wga --follow``).  The final
        report still carries the full canonical output — byte-identical
        to the barrier merge.
    """
    t0 = time.perf_counter()
    for side in (target, query):
        if not len(side):
            raise ValueError(f"sequence {side.name!r} is empty")
    config = config or LastzConfig()
    say = log or (lambda _msg: None)
    job_dir = Path(job_dir)
    journal_path = job_dir / "journal.jsonl"
    digest = job_digest(target, query, config, options, job.chunk_size)
    exit_after = _ExitAfter()

    with obs.span("jobs.run", workers=job.workers) as run_span:
        # --- journal replay (resume) -----------------------------------
        seed_done: dict[str, dict] = {}
        extend_done: dict[str, dict] = {}
        resumed = False
        if journal_path.exists():
            if fresh:
                journal_path.rename(_stale_journal_name(journal_path, digest))
            else:
                for record in replay(journal_path):
                    kind = record.get("type")
                    if kind == "header":
                        if record.get("digest") != digest:
                            raise JobDigestMismatch(
                                f"{journal_path} was written by a different job "
                                "(sequences, scoring, pipeline options, chunk "
                                "size or journal version changed); pass "
                                "fresh=True / --fresh to discard it"
                            )
                        resumed = True
                    elif kind == "seeds":
                        seed_done[record["task"]] = record
                    elif kind == "chunk":
                        extend_done[record["task"]] = record
                    # quarantined records: deliberately *not* terminal —
                    # a resume re-queues those tasks.

        # One worker group for both phases: the seed task and every
        # extend unit run on workers forked once for the job, when its
        # first task is due, so a fully journaled job forks none.
        with Journal(journal_path, fsync=job.fsync) as journal, closing(
            _JobGroup(job.workers, (target, query, config, options))
        ) as group:
            if not resumed:
                journal.append(
                    {
                        "type": "header",
                        "version": JOURNAL_VERSION,
                        "digest": digest,
                        "target": target.name,
                        "query": query.name,
                        "target_bp": len(target),
                        "query_bp": len(query),
                        "chunk_size": job.chunk_size,
                    }
                )

            quarantined: list[QuarantinedTask] = []
            counters = {"retries": 0, "deaths": 0}

            def make_events(
                phase: str,
                record_type: str,
                total: int,
                skipped: int,
                on_done: Callable[[str, dict], None] | None = None,
                on_quarantined: Callable[[str], None] | None = None,
            ):
                progress = {"done": skipped}

                def on_event(kind: str, task_id: str, info: dict) -> None:
                    obs.counter(
                        "repro_jobs_scheduler_events_total",
                        "Scheduler events (done/retry/split/worker_death/quarantined).",
                    ).labels(kind=kind).inc()
                    if kind == "done":
                        progress["done"] += 1
                        record = dict(info["value"])
                        record["type"] = record_type
                        record["task"] = task_id
                        record["attempts"] = info["attempts"]
                        journal.append(record)
                        exit_after.tick()
                        if on_done is not None:
                            on_done(task_id, record)
                        say(
                            f"[{phase} {progress['done']}/{total}] {task_id} ok"
                            + (
                                f" (attempt {info['attempts']})"
                                if info["attempts"] > 1
                                else ""
                            )
                        )
                    elif kind == "retry":
                        counters["retries"] += 1
                        say(
                            f"[{phase}] {task_id} re-queued after its worker "
                            f"died (attempt {info['attempt']})"
                            if info["died"]
                            else f"[{phase}] {task_id} failed attempt "
                            f"{info['attempt']} ({info['error']}); retrying"
                        )
                    elif kind == "split":
                        # Not a retry: no member is charged an attempt.
                        if info["died"]:
                            counters["deaths"] += 1
                        say(
                            f"[{phase}] unit of {len(info['tasks'])} tasks "
                            f"({', '.join(info['tasks'])}) "
                            + ("lost its worker" if info["died"] else "failed")
                            + f" ({info['error']}); running each alone"
                        )
                    elif kind == "worker_death":
                        # A retry or a quarantine event follows.
                        counters["deaths"] += 1
                        say(
                            f"[{phase}] worker running {task_id} died "
                            f"({info['error']})"
                        )
                    elif kind == "quarantined":
                        quarantined.append(
                            QuarantinedTask(
                                phase=phase,
                                task_id=task_id,
                                attempts=info["attempts"],
                                error=str(info.get("error")),
                            )
                        )
                        obs.counter(
                            "repro_jobs_quarantined_total",
                            "Chunk tasks quarantined after exhausting retries.",
                        ).labels(phase=phase).inc()
                        if on_quarantined is not None:
                            on_quarantined(task_id)
                        say(
                            f"[{phase}] {task_id} QUARANTINED after "
                            f"{info['attempts']} attempts: {info['error']}"
                        )

                return on_event

            # --- seed phase: one task over the whole pair --------------
            with obs.span("jobs.seed") as sp:
                seed_skipped = int(SEED_TASK in seed_done)
                seed_tasks = (
                    [] if seed_skipped else [TaskSpec(SEED_TASK, {"id": SEED_TASK})]
                )
                if seed_skipped:
                    say("[seed] resuming: anchors already journaled")
                # On the job's workers (inline only at workers=0), so the
                # whole target's word table (16 B per base), built or read
                # from the store, does not grow the coordinator's heap,
                # which lives through the extend phase.
                if seed_tasks:
                    outcomes = run_tasks(
                        seed_tasks,
                        _seed_handler,
                        group(),
                        max_attempts=job.max_attempts,
                        backoff_s=job.backoff_s,
                        on_event=make_events("seed", "seeds", 1, seed_skipped),
                    )
                    seed_done.update(_succeeded(outcomes))
                # A quarantined seed task leaves the job without anchors.
                found = seed_done.get(SEED_TASK, {"at": [], "aq": []})
                anchors = Anchors(
                    np.asarray(found["at"], dtype=np.int64),
                    np.asarray(found["aq"], dtype=np.int64),
                )
                sp.set(skipped=seed_skipped, anchors=len(anchors))
            say(f"selected {len(anchors)} anchors")

            # --- extend phase ------------------------------------------
            with obs.span("jobs.extend", anchors=len(anchors)) as sp:
                by_pair = _owned_anchors(
                    anchors, len(target), len(query), job.chunk_size
                )

                # Incremental merge: every chunk task can still produce
                # records only at or above its minimum anchor key, so the
                # merger finalizes (and surfaces) alignments below the
                # min-over-pending watermark while extension is running.
                expected: dict[str, tuple[int, int]] = {}
                for task_id, idxs in by_pair.items():
                    expected[task_id] = min(
                        zip(
                            anchors.query_pos[idxs].tolist(),
                            anchors.target_pos[idxs].tolist(),
                        )
                    )
                merger = IncrementalMerger(expected, on_alignment=on_alignment)
                for task_id, record in extend_done.items():
                    merger.complete(task_id, _chunk_records(record))

                extend_tasks = []
                for task_id, idxs in sorted(by_pair.items()):
                    if task_id in extend_done:
                        continue
                    extend_tasks.append(
                        TaskSpec(
                            task_id=task_id,
                            payload={
                                "id": task_id,
                                "at": anchors.target_pos[idxs].tolist(),
                                "aq": anchors.query_pos[idxs].tolist(),
                            },
                            weight=len(idxs),
                        )
                    )
                extend_skipped = len(by_pair) - len(extend_tasks)
                if extend_skipped:
                    say(
                        f"[extend] resuming: {extend_skipped}/{len(by_pair)} "
                        "chunk tasks already journaled"
                    )
                units, unit_anchors = _extend_units(
                    extend_tasks, job.workers, options.batch_size
                )
                if units:
                    n_workers = max(job.workers, 1)
                    _, loads = partition_loads(unit_anchors, n_workers)
                    say(
                        f"[extend] {len(extend_tasks)} tasks in {len(units)} "
                        f"units, {int(sum(unit_anchors))} anchors across "
                        f"{n_workers} workers (LPT plan: max {int(max(loads))}, "
                        f"min {int(min(loads))} anchors/worker; "
                        f"{int(max(unit_anchors))}-{int(min(unit_anchors))} "
                        "anchors/unit)"
                    )
                    outcomes = run_tasks(
                        extend_tasks,
                        _extend_handler,
                        group(),
                        units=units,
                        max_attempts=job.max_attempts,
                        backoff_s=job.backoff_s,
                        on_event=make_events(
                            "extend",
                            "chunk",
                            len(by_pair),
                            extend_skipped,
                            # Feed the merger as chunk results land: the
                            # watermark advances and finalized alignments
                            # stream out mid-job.  Quarantined tasks complete
                            # empty so one poisoned chunk cannot dam the rest.
                            on_done=lambda task_id, record: merger.complete(
                                task_id, _chunk_records(record)
                            ),
                            on_quarantined=lambda task_id: merger.complete(
                                task_id, []
                            ),
                        ),
                    )
                    extend_done.update(_succeeded(outcomes))
                sp.set(tasks=len(by_pair), skipped=extend_skipped, units=len(units))

            # --- merge (already folded incrementally; finalize) --------
            with obs.span("jobs.merge", chunks=len(extend_done)) as sp:
                n_records = 0
                for task_id, record in extend_done.items():
                    n_records += len(record["alignments"])
                    # Idempotent safety net: a result delivered without a
                    # "done" event (scheduler edge cases) still merges.
                    merger.complete(task_id, _chunk_records(record))
                alignments = merger.finalize()
                sp.set(records=n_records, alignments=len(alignments))

            elapsed = time.perf_counter() - t0
            report = WgaReport(
                alignments=alignments,
                job_dir=job_dir,
                digest=digest,
                resumed=resumed,
                n_anchors=len(anchors),
                n_seed_tasks=1,
                n_extend_tasks=len(by_pair),
                seed_skipped=seed_skipped,
                extend_skipped=extend_skipped,
                retries=counters["retries"],
                worker_deaths=counters["deaths"],
                quarantined=quarantined,
                elapsed_s=elapsed,
            )
            run_span.set(
                alignments=len(alignments),
                quarantined=len(quarantined),
                resumed=resumed,
            )
            say(
                f"job done in {elapsed:.2f}s: {len(alignments)} alignments, "
                f"{len(anchors)} anchors, {report.retries} retries, "
                f"{report.worker_deaths} worker deaths, "
                f"{len(quarantined)} quarantined"
            )
            for gap in quarantined:
                say(
                    f"GAP: {gap.phase} task {gap.task_id} missing after "
                    f"{gap.attempts} attempts ({gap.error})"
                )
            return report
