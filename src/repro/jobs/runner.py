"""The whole-genome job runner: segmented, checkpointed, fault-tolerant WGA.

``run_wga`` drives a full alignment job through four phases:

1. **Segment** — both sequences are tiled into overlapping chunks
   (:mod:`repro.jobs.segmenter`); work is the chunk-pair cross product.
2. **Seed** — chunk pairs are seeded independently (censored against
   *global* target word counts, so segmentation cannot change which
   repeats are suppressed), then thinned into anchors with one global
   ``collapse_diagonal`` pass — bit-identical to unsegmented
   ``select_anchors``.
3. **Extend** — anchors are grouped by owning chunk pair, one task per
   pair.  Tasks are dealt by anchor weight into *units* of about one
   lockstep block's rows (``FastzOptions.batch_size``), at least one per
   worker; each unit runs window-bounded through one
   :func:`repro.core.pipeline.run_fastz_chunks` call — one engine call
   for all its members' anchors, seam-guarded, so neither chunking nor
   fusion ever changes an alignment.  Units are scheduled heaviest-first
   across the worker pool (:mod:`repro.jobs.scheduler`); retry,
   quarantine, worker-death re-queue and the journal stay per task,
   because a unit that fails splits into its members, uncharged.
4. **Merge** — chunk results are deduplicated in global anchor order and
   canonically sorted (:mod:`repro.jobs.merge`).

Every completed task appends one record to an on-disk journal
(:mod:`repro.jobs.journal`) keyed by a job digest over the sequences,
scoring configuration, pipeline options and segmentation geometry.
Killing a job at any point and re-running it replays the journal and
re-executes only unfinished tasks; the final output is byte-identical to
an uninterrupted run at any worker count.

Test hooks (environment variables, used by the fault-injection tests and
the kill/resume CI job; both are inert unless set):

* ``REPRO_WGA_TEST_FAIL="e:c0x1=2,s:c1x0=-1"`` — the named task raises on
  its first N attempts (``-1`` = always; ``s:``/``e:`` = seed/extend).  A
  faulted member fails its whole unit, which splits, so the task then
  fails alone exactly as an unfused one.
* ``REPRO_WGA_TEST_EXIT_AFTER=K`` — hard ``os._exit(137)`` (SIGKILL
  semantics: no cleanup, no atexit) right after the K-th task record is
  journaled by this process.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
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
from ..core.pipeline import run_fastz_chunks
from ..genome.sequence import Sequence
from ..lastz.config import LastzConfig
from ..seeding import Anchors, collapse_diagonal
from ..seeding.seeds import SeedMatches, find_seeds, overrepresented_words
from ..service.request import scheme_digest
from .journal import Journal, replay
from .merge import IncrementalMerger, ops_from_cigar
from .scheduler import TaskSpec, run_tasks
from .segmenter import Chunk, ChunkPair, chunk_pairs, segment_sequence

__all__ = ["JobOptions", "QuarantinedTask", "WgaReport", "run_wga"]

#: Bump when the journal schema changes; part of the job digest, so stale
#: journals are rejected rather than misread.
JOURNAL_VERSION = 1


@dataclass(frozen=True)
class JobOptions:
    """Knobs of the job runner (orthogonal to :class:`FastzOptions`)."""

    #: Core tile size per sequence, in bases.
    chunk_size: int = 32_768
    #: Window slack past each core, in bases.  Must cover the seed span
    #: (enforced) and should cover the y-drop extension horizon; the
    #: pipeline's seam guard re-extends unbounded when it does not, so
    #: this is a performance knob, never a correctness one.
    overlap: int = 4_096
    #: Worker processes; 0 = run inline in this process.
    workers: int = 0
    #: Attempts per task before quarantine.
    max_attempts: int = 3
    #: Base retry backoff (exponential, capped).
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: fsync the journal after every record (off = tests/benchmarks).
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.overlap < 0:
            raise ValueError("overlap must be non-negative")
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
    window_fallbacks: int
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
    overlap: int,
) -> str:
    """Identity of a job's *result-relevant* inputs.

    Worker count, retry policy and fsync mode are deliberately excluded:
    they change wall-clock, never output, and a journal written at
    ``workers=8`` must resume cleanly at ``workers=1``.  Geometry is
    included — a journal records per-chunk completions, so the chunk grid
    must match.
    """
    h = hashlib.sha256()
    h.update(f"journal-v{JOURNAL_VERSION}".encode())
    for seq in (target, query):
        h.update(seq.name.encode() + b"\x00")
        h.update(np.ascontiguousarray(seq.codes).tobytes())
    h.update(_config_digest(config).encode())
    for f in dataclass_fields(options):
        h.update(f"{f.name}={getattr(options, f.name)!r}".encode() + b"\x00")
    h.update(f"chunk_size={chunk_size},overlap={overlap}".encode())
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
# Phase handlers (module-level: workers pickle them by reference)
#
# Both take the job's decoded codes in their worker state, which travels
# once per worker: inherited without a copy under ``fork``, pickled once
# at spawn under other start methods.
# ---------------------------------------------------------------------------


def _seed_handler(state, payloads: list, attempt: int) -> list[dict]:
    """Seed each chunk pair's windows; return globally-owned seed positions."""
    t_codes, q_codes, config, censored = state
    out = []
    for payload in payloads:
        _maybe_inject_fault(f"s:{payload['id']}", attempt)
        tw, qw = payload["t"], payload["q"]  # (start, end, core_start, core_end)
        seeds = find_seeds(
            t_codes[tw[0] : tw[1]],
            q_codes[qw[0] : qw[1]],
            k=config.seed_length,
            spaced_pattern=config.spaced_pattern,
            censored_words=censored,
        )
        t_pos = seeds.target_pos + tw[0]
        q_pos = seeds.query_pos + qw[0]
        own = (
            (t_pos >= tw[2])
            & (t_pos < tw[3])
            & (q_pos >= qw[2])
            & (q_pos < qw[3])
        )
        out.append({"t": t_pos[own].tolist(), "q": q_pos[own].tolist()})
    return out


def _extend_handler(state, payloads: list, attempt: int) -> list[dict]:
    """Extend a unit of chunk pairs' owned anchors in one engine call."""
    t_codes, q_codes, config, options = state
    # Any member's injected fault fails the whole unit; the scheduler then
    # splits it and the member fails alone, exactly as an unfused task.
    for payload in payloads:
        _maybe_inject_fault(f"e:{payload['id']}", attempt)
    results = run_fastz_chunks(
        t_codes,
        q_codes,
        config,
        options,
        tasks=[
            (
                Anchors(
                    np.asarray(payload["at"], dtype=np.int64),
                    np.asarray(payload["aq"], dtype=np.int64),
                ),
                tuple(payload["tw"]),
                tuple(payload["qw"]),
            )
            for payload in payloads
        ],
    )
    return [
        {
            "alignments": [
                [t, q, a.target_start, a.target_end, a.query_start, a.query_end, a.score, a.cigar()]
                for t, q, a in result.records
            ],
            "n_anchors": result.n_anchors,
            "eager": result.eager_count,
            "window_fallbacks": result.window_fallbacks,
        }
        for result in results
    ]


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


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


def _owner_index(pos: np.ndarray, chunk_size: int, n_chunks: int) -> np.ndarray:
    """Core-ownership chunk index per position (last core absorbs the tail)."""
    return np.minimum(pos // chunk_size, n_chunks - 1)


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
    """Run (or resume) a segmented whole-genome alignment job.

    Parameters
    ----------
    job:
        Segmentation geometry, worker pool size and fault-tolerance policy.
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
    config = config or LastzConfig()
    say = log or (lambda _msg: None)
    job_dir = Path(job_dir)
    journal_path = job_dir / "journal.jsonl"
    span = (
        len(config.spaced_pattern) if config.spaced_pattern else config.seed_length
    )
    overlap = max(job.overlap, span)
    digest = job_digest(
        target, query, config, options, job.chunk_size, overlap
    )
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
                                "(sequences, scoring, pipeline options or chunk "
                                "geometry changed); pass fresh=True / --fresh "
                                "to discard it"
                            )
                        resumed = True
                    elif kind == "seeds":
                        seed_done[record["task"]] = record
                    elif kind == "chunk":
                        extend_done[record["task"]] = record
                    # quarantined records: deliberately *not* terminal —
                    # a resume re-queues those tasks.

        journal = Journal(journal_path, fsync=job.fsync)
        try:
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
                        "overlap": overlap,
                    }
                )

            # --- segment -----------------------------------------------
            with obs.span("jobs.segment"):
                t_chunks = segment_sequence(len(target), job.chunk_size, overlap)
                q_chunks = segment_sequence(len(query), job.chunk_size, overlap)
                pairs = chunk_pairs(t_chunks, q_chunks)
            pair_by_id = {p.task_id: p for p in pairs}
            say(
                f"segmented {target.name} x {query.name} into "
                f"{len(t_chunks)} x {len(q_chunks)} chunks "
                f"({len(pairs)} pair tasks, core {job.chunk_size} bp, "
                f"overlap {overlap} bp)"
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

            # --- seed phase --------------------------------------------
            with obs.span("jobs.seed", pairs=len(pairs)) as sp:
                censored = overrepresented_words(
                    target.codes,
                    k=config.seed_length,
                    spaced_pattern=config.spaced_pattern,
                    max_word_count=config.max_word_count,
                )
                seed_tasks = [
                    TaskSpec(
                        task_id=p.task_id,
                        payload={
                            "id": p.task_id,
                            "t": (p.target.start, p.target.end, p.target.core_start, p.target.core_end),
                            "q": (p.query.start, p.query.end, p.query.core_start, p.query.core_end),
                        },
                        weight=p.window_area,
                    )
                    for p in pairs
                    if p.task_id not in seed_done
                ]
                seed_skipped = len(pairs) - len(seed_tasks)
                if seed_skipped:
                    say(f"[seed] resuming: {seed_skipped}/{len(pairs)} chunk pairs already journaled")
                outcomes = run_tasks(
                    seed_tasks,
                    _seed_handler,
                    (target.codes, query.codes, config, censored),
                    workers=job.workers,
                    max_attempts=job.max_attempts,
                    backoff_s=job.backoff_s,
                    backoff_cap_s=job.backoff_cap_s,
                    on_event=make_events("seed", "seeds", len(pairs), seed_skipped),
                )
                for task_id, outcome in outcomes.items():
                    if outcome.ok:
                        seed_done[task_id] = outcome.value
                sp.set(skipped=seed_skipped, censored_words=int(censored.size))

            # --- collapse into anchors (global, deterministic) ---------
            with obs.span("jobs.collapse") as sp:
                all_t = np.concatenate(
                    [np.asarray(r["t"], dtype=np.int64) for r in seed_done.values()]
                    or [np.zeros(0, dtype=np.int64)]
                )
                all_q = np.concatenate(
                    [np.asarray(r["q"], dtype=np.int64) for r in seed_done.values()]
                    or [np.zeros(0, dtype=np.int64)]
                )
                anchors = collapse_diagonal(
                    SeedMatches(all_t, all_q, span),
                    window=config.collapse_window,
                    diag_band=config.diag_band,
                )
                sp.set(seeds=int(all_t.size), anchors=len(anchors))
            say(f"collapsed {all_t.size} seeds into {len(anchors)} anchors")

            # --- extend phase ------------------------------------------
            with obs.span("jobs.extend", anchors=len(anchors)) as sp:
                t_owner = _owner_index(
                    anchors.target_pos, job.chunk_size, len(t_chunks)
                )
                q_owner = _owner_index(
                    anchors.query_pos, job.chunk_size, len(q_chunks)
                )
                by_pair: dict[str, list[int]] = {}
                for idx in range(len(anchors)):
                    key = f"c{int(t_owner[idx])}x{int(q_owner[idx])}"
                    by_pair.setdefault(key, []).append(idx)

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
                    p = pair_by_id[task_id]
                    extend_tasks.append(
                        TaskSpec(
                            task_id=task_id,
                            payload={
                                "id": task_id,
                                "at": anchors.target_pos[idxs].tolist(),
                                "aq": anchors.query_pos[idxs].tolist(),
                                "tw": (p.target.start, p.target.end),
                                "qw": (p.query.start, p.query.end),
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
                    (target.codes, query.codes, config, options),
                    units=units,
                    workers=job.workers,
                    max_attempts=job.max_attempts,
                    backoff_s=job.backoff_s,
                    backoff_cap_s=job.backoff_cap_s,
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
                for task_id, outcome in outcomes.items():
                    if outcome.ok:
                        extend_done[task_id] = outcome.value
                sp.set(tasks=len(by_pair), skipped=extend_skipped, units=len(units))

            # --- merge (already folded incrementally; finalize) --------
            with obs.span("jobs.merge", chunks=len(extend_done)) as sp:
                window_fallbacks = 0
                n_records = 0
                for task_id, record in extend_done.items():
                    window_fallbacks += int(record.get("window_fallbacks", 0))
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
                n_seed_tasks=len(pairs),
                n_extend_tasks=len(by_pair),
                seed_skipped=seed_skipped,
                extend_skipped=extend_skipped,
                retries=counters["retries"],
                worker_deaths=counters["deaths"],
                window_fallbacks=window_fallbacks,
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
        finally:
            journal.close()
