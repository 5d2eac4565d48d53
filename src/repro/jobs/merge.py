"""Deterministic merging of chunk-pair alignment results.

An anchor's extension runs on the whole sequences, free to run past its
chunk's core, so the same genomic alignment can be discovered by anchors
owned by different chunk pairs.  The merge reproduces exactly what a
single-pass :meth:`~repro.core.pipeline.FastzResult.unique_alignments`
pass would keep:

1. every record carries its source anchor ``(query_pos, target_pos)``;
   records are sorted in global anchor order — the pipeline's
   ``lexsort((target_pos, query_pos))``, query-major — regardless of
   which chunk produced them or in what order chunks finished;
2. duplicates are dropped by (target, query) interval, keeping the
   first in anchor order.

The result is then put in canonical output order — (target, query,
strand) coordinates — so two runs with different worker counts, chunk
geometries or resume histories serialise byte-identically.
"""

from __future__ import annotations

import heapq
import re
from typing import Callable, Iterable, Mapping

from .. import obs
from ..align.alignment import Alignment

__all__ = [
    "IncrementalMerger",
    "canonical_order",
    "dedupe_records",
    "ops_from_cigar",
    "sort_canonical",
]

_CIGAR_RUN = re.compile(r"(\d+)([MID])")


def ops_from_cigar(cigar: str) -> tuple[tuple[str, int], ...]:
    """Parse a CIGAR string (``"120M2D87M"``) back into an edit script.

    Inverse of :meth:`~repro.align.alignment.Alignment.cigar`; the journal
    stores edit scripts as CIGAR text.
    """
    ops: list[tuple[str, int]] = []
    pos = 0
    for match in _CIGAR_RUN.finditer(cigar):
        if match.start() != pos:
            raise ValueError(f"malformed CIGAR {cigar!r}")
        ops.append((match.group(2), int(match.group(1))))
        pos = match.end()
    if pos != len(cigar):
        raise ValueError(f"malformed CIGAR {cigar!r}")
    return tuple(ops)


def dedupe_records(
    records: Iterable[tuple[int, int, Alignment]],
) -> list[Alignment]:
    """Deduplicate ``(anchor_t, anchor_q, alignment)`` records globally.

    Sorts by source anchor in pipeline order (query-major) and keeps the
    first alignment per (target, query) interval — bit-compatible with
    ``unique_alignments()`` on an unsegmented run over the same anchors.
    """
    ordered = sorted(records, key=lambda r: (r[1], r[0]))
    seen: set[tuple[int, int, int, int]] = set()
    out: list[Alignment] = []
    for _t, _q, a in ordered:
        key = (a.target_start, a.target_end, a.query_start, a.query_end)
        if key not in seen:
            seen.add(key)
            out.append(a)
    return out


class IncrementalMerger:
    """Watermark-driven incremental version of :func:`dedupe_records`.

    The barrier merge needs every chunk result in hand before it can
    dedupe, because a record's keep/drop decision depends on whether an
    *earlier-anchored* task rediscovered the same interval.  But "earlier"
    is bounded: each pending task ``T`` can only still produce records at
    or above its minimum anchor key ``min_key(T)`` (anchors are fixed at
    planning time), so every buffered record strictly below the
    **watermark** ``min(min_key(T) for pending T)`` is already final —
    no unfinished task can precede it in anchor order.

    Feed results with :meth:`complete` as tasks finish (any order,
    duplicate deliveries ignored; quarantined tasks complete with no
    records so the watermark keeps advancing); finalized alignments fire
    ``on_alignment`` immediately in ascending anchor order — this is what
    makes a whole-genome run show alignments seconds in.
    :meth:`finalize` returns the full canonical output,
    byte-identical to ``sort_canonical(dedupe_records(all_records))``.
    """

    def __init__(
        self,
        expected: Mapping[str, tuple[int, int]],
        *,
        on_alignment: Callable[[Alignment], None] | None = None,
    ) -> None:
        #: task_id -> minimum (anchor_q, anchor_t) the task can still emit.
        self._pending = dict(expected)
        self._on_alignment = on_alignment
        self._heap: list[tuple[tuple[int, int], int, Alignment]] = []
        self._serial = 0
        self._seen: set[tuple[int, int, int, int]] = set()
        self._emitted: list[Alignment] = []

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def emitted(self) -> int:
        return len(self._emitted)

    def watermark(self) -> tuple[int, int] | None:
        """Anchor key below which every buffered record is final."""
        if not self._pending:
            return None
        return min(self._pending.values())

    def complete(
        self, task_id: str, records: Iterable[tuple[int, int, Alignment]]
    ) -> None:
        """Deliver one finished task's records (idempotent per task)."""
        if task_id not in self._pending:
            return
        del self._pending[task_id]
        for t, q, a in records:
            self._serial += 1
            heapq.heappush(self._heap, ((q, t), self._serial, a))
        self._advance()
        obs.gauge(
            "repro_jobs_merge_buffered",
            "Alignment records buffered above the merge watermark.",
        ).set(len(self._heap))

    def _advance(self) -> None:
        wm = self.watermark()
        merged = obs.counter(
            "repro_jobs_merged_alignments_total",
            "Alignments finalized by the incremental merge.",
        )
        while self._heap and (wm is None or self._heap[0][0] < wm):
            _key, _serial, a = heapq.heappop(self._heap)
            key = (a.target_start, a.target_end, a.query_start, a.query_end)
            if key in self._seen:
                continue
            self._seen.add(key)
            self._emitted.append(a)
            merged.inc()
            if self._on_alignment is not None:
                self._on_alignment(a)

    def finalize(self) -> list[Alignment]:
        """Canonical merged output; requires every expected task completed."""
        if self._pending:
            raise RuntimeError(
                f"cannot finalize: {len(self._pending)} tasks still pending"
            )
        return sort_canonical(self._emitted)


def canonical_order(alignment: Alignment) -> tuple:
    """Total output order: (target, query, strand) coordinates, then score.

    Strand is constant ('+') in this library; it sits in the key so the
    contract is explicit and survives a reverse-complement extension.
    """
    return (
        alignment.target_start,
        alignment.target_end,
        alignment.query_start,
        alignment.query_end,
        "+",
        -alignment.score,
        alignment.cigar(),
    )


def sort_canonical(alignments: Iterable[Alignment]) -> list[Alignment]:
    """Sort alignments into the canonical (target, query, strand) order."""
    return sorted(alignments, key=canonical_order)
