"""Genome segmentation for the whole-genome job runner (SegAlign-style).

Both sequences are cut into *cores* — disjoint tiles of ``chunk_size``
bases — each wrapped in a *window* that extends ``overlap`` bases past the
core on either side.  Extension work is the cross product of target and
query chunks, SegAlign's shape: each chunk pair extends the anchors its
cores own, with suffixes clipped to its windows.  Seeding is not
segmented; the job selects the whole pair's anchors in one task.
``overlap`` should cover the y-drop extension horizon; the pipeline's
seam guard (:func:`repro.core.pipeline.run_fastz_chunk`) makes
correctness unconditional regardless.

Because cores tile each sequence disjointly, chunk ownership partitions
the anchor set — no cross-chunk reconciliation is needed beyond the
overlap-region *alignment* dedup done by :mod:`repro.jobs.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Chunk", "ChunkPair", "chunk_pairs", "segment_sequence"]


@dataclass(frozen=True)
class Chunk:
    """One tile of a sequence: a disjoint core plus an overlap window."""

    index: int
    #: Disjoint ownership interval ``[core_start, core_end)``.
    core_start: int
    core_end: int
    #: Window interval ``[start, end)`` = core extended by the overlap,
    #: clamped to the sequence.
    start: int
    end: int

    def __post_init__(self) -> None:
        if not (self.start <= self.core_start < self.core_end <= self.end):
            raise ValueError("chunk window must contain its non-empty core")

    @property
    def core_span(self) -> int:
        return self.core_end - self.core_start

    def owns(self, pos: int) -> bool:
        """Is ``pos`` inside this chunk's ownership core?"""
        return self.core_start <= pos < self.core_end


def segment_sequence(length: int, chunk_size: int, overlap: int) -> list[Chunk]:
    """Tile ``[0, length)`` into cores of ``chunk_size`` with overlap windows.

    The last core absorbs the remainder (it may be up to
    ``2 * chunk_size - 1`` long) so no core is shorter than
    ``chunk_size`` — a stub tail chunk would be pure scheduling overhead.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if overlap < 0:
        raise ValueError("overlap must be non-negative")
    n_chunks = max(1, length // chunk_size)
    chunks: list[Chunk] = []
    for i in range(n_chunks):
        core_start = i * chunk_size
        core_end = (i + 1) * chunk_size if i + 1 < n_chunks else length
        chunks.append(
            Chunk(
                index=i,
                core_start=core_start,
                core_end=core_end,
                start=max(0, core_start - overlap),
                end=min(length, core_end + overlap),
            )
        )
    return chunks


@dataclass(frozen=True)
class ChunkPair:
    """One unit of distributable work: a (target chunk, query chunk) pair."""

    target: Chunk
    query: Chunk

    @property
    def task_id(self) -> str:
        return f"c{self.target.index}x{self.query.index}"

    def owns(self, t_pos: int, q_pos: int) -> bool:
        return self.target.owns(t_pos) and self.query.owns(q_pos)


def chunk_pairs(
    target_chunks: list[Chunk], query_chunks: list[Chunk]
) -> list[ChunkPair]:
    """The full cross product, in (target index, query index) order."""
    return [ChunkPair(t, q) for t in target_chunks for q in query_chunks]
