"""The 'ungapped LASTZ' pipeline: ungapped filtering before gapped extension.

This is the faster-but-less-sensitive variant of the paper's Figure 2:
anchors must first survive an x-drop *ungapped* extension scoring at least
``hsp_threshold``; only survivors receive the (expensive) gapped extension.
Seeds sitting in gap-interrupted homology never reach a high ungapped score
and are dropped — exactly the sensitivity loss the figure quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genome.sequence import Sequence, as_codes
from ..seeding import Anchors, ungapped_filter
from ..store import StoredReference
from .config import LastzConfig
from .pipeline import LastzResult, run_gapped_lastz, select_anchors

__all__ = ["UngappedLastzResult", "run_ungapped_lastz"]


@dataclass
class UngappedLastzResult:
    """Ungapped-filter pipeline output."""

    result: LastzResult
    #: HSP score per input anchor (before filtering).
    hsp_scores: np.ndarray
    #: Number of anchors that survived the ungapped filter.
    survivors: int
    #: Number of anchors before filtering.
    candidates: int

    @property
    def alignments(self):
        return self.result.alignments

    @property
    def filter_rate(self) -> float:
        """Fraction of anchors removed by the ungapped filter."""
        if self.candidates == 0:
            return 0.0
        return 1.0 - self.survivors / self.candidates


def run_ungapped_lastz(
    target: Sequence | StoredReference | np.ndarray,
    query: Sequence | StoredReference | np.ndarray,
    config: LastzConfig | None = None,
    *,
    anchors: Anchors | None = None,
    work_reduction: bool = True,
) -> UngappedLastzResult:
    """Run seed -> ungapped filter -> gapped extension."""
    config = config or LastzConfig()
    if anchors is None:
        anchors = select_anchors(target, query, config)
    t_codes, q_codes = as_codes(target), as_codes(query)
    candidates = len(anchors)

    surviving, hsp_scores = ungapped_filter(anchors, t_codes, q_codes, config.scheme)
    result = run_gapped_lastz(
        t_codes,
        q_codes,
        config,
        anchors=surviving,
        work_reduction=work_reduction,
    )
    return UngappedLastzResult(
        result=result,
        hsp_scores=hsp_scores,
        survivors=len(surviving),
        candidates=candidates,
    )
