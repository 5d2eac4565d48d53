"""Durable whole-genome alignment jobs: segment, schedule, checkpoint, merge.

This package scales the FastZ pipeline past what one process (or one
accelerator's memory) can hold, the way SegAlign scales LASTZ: the
genome pair is tiled into overlapping chunks (:mod:`.segmenter`), chunk
pairs are scheduled across a fault-tolerant multiprocess pool
(:mod:`.scheduler`), every completed chunk is checkpointed to an
append-only journal (:mod:`.journal`) so a killed job resumes where it
left off, and per-chunk results are merged deterministically
(:mod:`.merge`) — the final output is byte-identical to an unsegmented
run at any worker count.  :func:`run_wga` in :mod:`.runner` ties the
phases together; the ``repro wga`` CLI subcommand fronts it.
"""

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
from .scheduler import TaskOutcome, TaskSpec, run_tasks
from .segmenter import Chunk, ChunkPair, chunk_pairs, segment_sequence

__all__ = [
    "Chunk",
    "ChunkPair",
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
    "chunk_pairs",
    "dedupe_records",
    "job_digest",
    "ops_from_cigar",
    "replay",
    "run_tasks",
    "run_wga",
    "segment_sequence",
    "sort_canonical",
]
