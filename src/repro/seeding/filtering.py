"""Seed filtering: stage 2 of the WGA pipeline.

Two filters are provided:

* :func:`collapse_diagonal` — LASTZ-style anchor thinning: seeds on the same
  diagonal within ``window`` bases of a previously kept seed are dropped.
  This is what turns a run of overlapping word hits inside one homologous
  segment into a handful of anchor points, and it is the filter used by the
  *gapped* (high-sensitivity) pipeline.

* :func:`ungapped_filter` — the 'ungapped LASTZ' filter: each anchor is
  ungapped-x-drop extended and kept only if its HSP score clears
  ``scheme.hsp_threshold``.  Faster downstream (fewer anchors) but less
  sensitive — exactly the trade-off of the paper's Figure 2.

Anchors are the (target, query) coordinate pairs handed to gapped
extension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.ungapped import ungapped_extend
from ..scoring import ScoringScheme
from .seeds import SeedMatches

__all__ = [
    "Anchors",
    "collapse_diagonal",
    "ungapped_filter",
]


@dataclass(frozen=True)
class Anchors:
    """Filtered anchor points for gapped extension (parallel arrays)."""

    target_pos: np.ndarray
    query_pos: np.ndarray

    def __post_init__(self) -> None:
        if self.target_pos.shape != self.query_pos.shape:
            raise ValueError("anchor arrays must have equal shape")

    def __len__(self) -> int:
        return int(self.target_pos.shape[0])

    def take(self, indices: np.ndarray) -> "Anchors":
        return Anchors(self.target_pos[indices], self.query_pos[indices])

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.target_pos.tolist(), self.query_pos.tolist()))


def collapse_diagonal(
    seeds: SeedMatches, *, window: int = 500, diag_band: int = 0
) -> Anchors:
    """Thin seeds: keep one per diagonal band per ``window`` bases.

    Seeds are scanned in (diagonal, query-position) order; a seed is
    kept if no previously kept seed lies within ``diag_band`` diagonals and
    ``window`` query bases of it.  ``diag_band=0`` collapses per exact
    diagonal; a positive band additionally merges seeds whose diagonals are
    shifted by small indels (LASTZ's chaining performs the equivalent
    merge).  The anchor point is placed at the *centre* of the seed word,
    which is where LASTZ anchors its gapped extension.  Anchors come back
    in scan order.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if diag_band < 0:
        raise ValueError("diag_band must be non-negative")
    t_all = np.asarray(seeds.target_pos, dtype=np.int64)
    q_all = np.asarray(seeds.query_pos, dtype=np.int64)
    d_all = t_all - q_all
    order = np.lexsort((q_all, d_all))
    d_sorted = d_all[order]
    q_sorted = q_all[order]
    n = d_sorted.shape[0]
    keep = np.zeros(n, dtype=bool)

    if diag_band == 0:
        # Last kept query position per diagonal.
        last_q: dict[int, int] = {}
        for idx in range(n):
            d = int(d_sorted[idx])
            q = int(q_sorted[idx])
            prev = last_q.get(d)
            if prev is None or q - prev >= window:
                keep[idx] = True
                last_q[d] = q
    else:
        # Every kept (diag, q) per diagonal bucket, in keep order (the
        # scan probes them first-to-last, so order matters).
        last_kept: dict[int, list[tuple[int, int]]] = {}
        for idx in range(n):
            d = int(d_sorted[idx])
            q = int(q_sorted[idx])
            b = d // diag_band
            clear = True
            for bb in (b - 1, b, b + 1):
                for kd, kq in last_kept.get(bb, ()):
                    if abs(d - kd) <= diag_band and abs(q - kq) < window:
                        clear = False
                        break
                if not clear:
                    break
            if clear:
                keep[idx] = True
                last_kept.setdefault(b, []).append((d, q))

    kept = order[keep]
    half = seeds.span // 2
    return Anchors(
        target_pos=(t_all[kept] + half).astype(np.int64),
        query_pos=(q_all[kept] + half).astype(np.int64),
    )


def ungapped_filter(
    anchors: Anchors,
    target: np.ndarray,
    query: np.ndarray,
    scheme: ScoringScheme,
) -> tuple[Anchors, np.ndarray]:
    """Keep anchors whose ungapped HSP clears ``scheme.hsp_threshold``.

    Returns the surviving anchors and the HSP scores of *all* input anchors
    (callers use the scores for sensitivity analysis).
    """
    n = len(anchors)
    scores = np.zeros(n, dtype=np.int64)
    for idx in range(n):
        hsp = ungapped_extend(
            target,
            query,
            int(anchors.target_pos[idx]),
            int(anchors.query_pos[idx]),
            scheme,
        )
        scores[idx] = hsp.score
    keep = scores >= scheme.hsp_threshold
    return anchors.take(np.flatnonzero(keep)), scores
