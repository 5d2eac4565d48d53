"""Durable whole-genome alignment jobs: seed, extend, checkpoint, merge.

This package runs the FastZ pipeline as a job that survives failures,
the way SegAlign runs LASTZ: the pair's anchors are selected once, and
the anchors each chunk pair of a fixed ownership grid owns form one
extend task, run against the whole sequences.  Tasks are scheduled
across a fault-tolerant multiprocess pool, one per job, every
completed task is checkpointed to an append-only journal
(:mod:`.journal`) so a killed job resumes where it left off, and the
per-task results are merged deterministically (:mod:`.merge`) — the
final output is byte-identical to a single-pass run at any worker count.
:func:`run_wga` in :mod:`.runner` ties the phases together; the
``repro wga`` CLI subcommand fronts it.  The scheduler is
:func:`repro.core.pool.run_tasks`, the one dispatch loop over worker
processes, re-exported here with its task types.
"""

from ..core.pool import TaskOutcome, TaskSpec, run_tasks
from .journal import Journal, JournalError, replay
from .merge import (
    IncrementalMerger,
    canonical_order,
    dedupe_records,
    ops_from_cigar,
    sort_canonical,
)
from .runner import (
    JobDigestMismatch,
    JobOptions,
    QuarantinedTask,
    WgaReport,
    job_digest,
    run_wga,
)

__all__ = [
    "IncrementalMerger",
    "JobDigestMismatch",
    "JobOptions",
    "Journal",
    "JournalError",
    "QuarantinedTask",
    "TaskOutcome",
    "TaskSpec",
    "WgaReport",
    "canonical_order",
    "dedupe_records",
    "job_digest",
    "ops_from_cigar",
    "replay",
    "run_tasks",
    "run_wga",
    "sort_canonical",
]
