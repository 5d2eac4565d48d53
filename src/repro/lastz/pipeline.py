"""The sequential gapped LASTZ pipeline (the paper's baseline).

Stages: seed discovery -> diagonal thinning -> per-anchor two-sided y-drop
gapped extension (row engine).  Includes LASTZ's *sequential work
reduction* (paper §2.1): an anchor falling inside a previously discovered
alignment is not re-extended — "if combining were profitable, the prior
alignment would have expanded to include it".  FastZ deliberately forgoes
this optimisation (it is inherently sequential), which is why its binning
counts cover every seed.

The pipeline doubles as the *work profiler*: every task records the DP
cells it explored, and those cell counts drive the CPU timing model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..align.alignment import Alignment
from ..align.extend import AnchorExtension, extend_anchor
from ..align.ydrop import ydrop_extend
from ..genome.sequence import Sequence, as_codes
from ..seeding import Anchors, collapse_diagonal, find_seeds
from ..store import StoredReference
from .config import LastzConfig

__all__ = ["TaskRecord", "LastzResult", "AlignmentIndex", "run_gapped_lastz", "select_anchors"]

_DIAG_BUCKET = 256


@dataclass(frozen=True)
class TaskRecord:
    """Per-anchor work record (the unit of the CPU work profile)."""

    anchor_t: int
    anchor_q: int
    score: int
    target_span: int
    query_span: int
    cells: int
    rows: int
    skipped: bool

    @property
    def extent(self) -> int:
        return max(self.target_span, self.query_span)


class AlignmentIndex:
    """Diagonal-bucketed index of discovered alignments.

    Supports the two queries the sequential pipeline needs: "does this
    anchor fall inside a known alignment?" (work reduction) and
    registration of new alignments.  Buckets are keyed by
    ``(t - q) // bucket`` so a containment probe touches at most three
    buckets.
    """

    def __init__(self, bucket: int = _DIAG_BUCKET):
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        self._bucket = bucket
        self._boxes: dict[int, list[tuple[int, int, int, int]]] = defaultdict(list)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, alignment: Alignment) -> None:
        box = (
            alignment.target_start,
            alignment.target_end,
            alignment.query_start,
            alignment.query_end,
        )
        d_lo = (alignment.target_start - alignment.query_end) // self._bucket
        d_hi = (alignment.target_end - alignment.query_start) // self._bucket
        for b in range(d_lo, d_hi + 1):
            self._boxes[b].append(box)
        self._count += 1

    def contains(self, t: int, q: int) -> bool:
        b = (t - q) // self._bucket
        for bb in (b - 1, b, b + 1):
            for ts, te, qs, qe in self._boxes.get(bb, ()):
                if ts <= t < te and qs <= q < qe:
                    return True
        return False


@dataclass
class LastzResult:
    """Output of a pipeline run: alignments plus the work profile."""

    alignments: list[Alignment]
    tasks: list[TaskRecord]
    anchors: Anchors
    extensions: list[AnchorExtension] = field(default_factory=list, repr=False)

    @property
    def cells_per_task(self) -> np.ndarray:
        return np.array([t.cells for t in self.tasks], dtype=np.int64)

    @property
    def total_cells(self) -> int:
        return int(self.cells_per_task.sum())

    @property
    def skipped_count(self) -> int:
        return sum(1 for t in self.tasks if t.skipped)

    def scores(self) -> np.ndarray:
        return np.array([a.score for a in self.alignments], dtype=np.int64)

    def lengths(self) -> np.ndarray:
        return np.array([a.length for a in self.alignments], dtype=np.int64)


def select_anchors(
    target: Sequence | StoredReference | np.ndarray,
    query: Sequence | StoredReference | np.ndarray,
    config: LastzConfig,
) -> Anchors:
    """Stage 1+2: discover seeds and thin them into anchors.

    The one place that decides where the target's sorted seed table comes
    from: a :class:`~repro.store.StoredReference` target reads its
    store's persisted table (loaded, or built once and persisted), and
    any other target has its table built inside :func:`find_seeds`.  The
    anchors are bit-identical either way.
    """
    table = None
    if isinstance(target, StoredReference):
        table = target.store.seed_table(
            target.digest,
            k=config.seed_length,
            spaced_pattern=config.spaced_pattern,
        )
    seeds = find_seeds(
        as_codes(target),
        as_codes(query),
        k=config.seed_length,
        spaced_pattern=config.spaced_pattern,
        max_word_count=config.max_word_count,
        target_table=table,
    )
    return collapse_diagonal(
        seeds, window=config.collapse_window, diag_band=config.diag_band
    )


def run_gapped_lastz(
    target: Sequence | StoredReference | np.ndarray,
    query: Sequence | StoredReference | np.ndarray,
    config: LastzConfig | None = None,
    *,
    anchors: Anchors | None = None,
    work_reduction: bool = True,
    keep_extensions: bool = False,
) -> LastzResult:
    """Run the full sequential gapped pipeline.

    Parameters
    ----------
    anchors:
        Pre-selected anchors (lets FastZ and LASTZ share the exact same
        task list).  Computed from the config when omitted.
    work_reduction:
        Enable the sequential skip of anchors inside known alignments.
    keep_extensions:
        Retain the raw per-anchor extension objects (tests use them).
    """
    config = config or LastzConfig()
    if anchors is None:
        anchors = select_anchors(target, query, config)
    t_codes, q_codes = as_codes(target), as_codes(query)

    # Sequential scan order: by query position then target position.
    order = np.lexsort((anchors.target_pos, anchors.query_pos))
    anchors = anchors.take(order)

    index = AlignmentIndex()
    alignments: list[Alignment] = []
    tasks: list[TaskRecord] = []
    extensions: list[AnchorExtension] = []
    scheme = config.scheme

    for t, q in zip(anchors.target_pos.tolist(), anchors.query_pos.tolist()):
        if work_reduction and index.contains(t, q):
            tasks.append(
                TaskRecord(
                    anchor_t=t,
                    anchor_q=q,
                    score=0,
                    target_span=0,
                    query_span=0,
                    cells=0,
                    rows=0,
                    skipped=True,
                )
            )
            continue

        ext = extend_anchor(
            t_codes,
            q_codes,
            t,
            q,
            scheme,
            ydrop_extend,
            traceback=config.traceback,
        )
        tasks.append(
            TaskRecord(
                anchor_t=t,
                anchor_q=q,
                score=ext.score,
                target_span=ext.target_span,
                query_span=ext.query_span,
                cells=ext.left.stats.cells + ext.right.stats.cells,
                rows=ext.left.stats.rows + ext.right.stats.rows,
                skipped=False,
            )
        )
        if keep_extensions:
            extensions.append(ext)

        if ext.score >= scheme.gapped_threshold:
            if config.traceback:
                alignment = ext.alignment()
            else:
                alignment = Alignment(
                    target_start=t - ext.left.end_i,
                    target_end=t + ext.right.end_i,
                    query_start=q - ext.left.end_j,
                    query_end=q + ext.right.end_j,
                    score=ext.score,
                )
            alignments.append(alignment)
            index.add(alignment)

    return LastzResult(
        alignments=alignments,
        tasks=tasks,
        anchors=anchors,
        extensions=extensions,
    )
