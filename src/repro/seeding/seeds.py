"""Seed discovery: exact k-mer matches between target and query.

Stage 1 of the WGA pipeline (paper §2): find short exact matches (19 bp by
default, LASTZ's seed length) to serve as anchor candidates for gapped
extension.  Both contiguous k-mers and LASTZ-style spaced seeds (a pattern
of care/don't-care positions, default ``12-of-19``) are supported.

Everything is vectorised: words are packed into ``uint64`` (k-mers by
doubling, about log2(k) passes over the sequence; spaced words one pass
per care position), and matching is sort + ``searchsorted`` rather than a
Python-dict hash table.  Words that occur too often in the target are
*censored* (dropped), mirroring LASTZ's treatment of high-frequency repeat
words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs

__all__ = [
    "SeedMatches",
    "SeedTable",
    "LASTZ_SPACED_SEED",
    "build_seed_table",
    "pack_kmers",
    "pack_spaced",
    "pack_words",
    "find_seeds",
]

#: LASTZ's default 12-of-19 spaced seed pattern (1 = care, 0 = don't care).
LASTZ_SPACED_SEED = "1110100110010101111"


@dataclass(frozen=True)
class SeedMatches:
    """Parallel arrays of seed hits: ``target_pos[k]`` pairs ``query_pos[k]``.

    Positions are the start offsets of the matched word; ``span`` is the
    word footprint in bases (= k for contiguous seeds, pattern length for
    spaced seeds).
    """

    target_pos: np.ndarray
    query_pos: np.ndarray
    span: int

    def __post_init__(self) -> None:
        if self.target_pos.shape != self.query_pos.shape:
            raise ValueError("seed position arrays must have equal shape")

    def __len__(self) -> int:
        return int(self.target_pos.shape[0])

    def diagonals(self) -> np.ndarray:
        """Seed diagonals ``target_pos - query_pos`` (used for collapsing)."""
        return self.target_pos.astype(np.int64) - self.query_pos.astype(np.int64)


def _window_masked(mask: np.ndarray, span: int) -> np.ndarray:
    """Boolean per window start: does the window touch a masked base?"""
    n = mask.shape[0]
    if n < span:
        return np.zeros(0, dtype=bool)
    csum = np.concatenate(([0], np.cumsum(mask.astype(np.int32))))
    return (csum[span:] - csum[:-span]) > 0


def pack_kmers(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack every k-window into a base-4 word.

    Returns ``(words, valid)``: ``words[i]`` encodes ``codes[i:i+k]`` and
    ``valid[i]`` is False where the window contains an N.
    """
    if not 1 <= k <= 31:
        raise ValueError("k must be in [1, 31] to fit a uint64 word")
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.shape[0]
    if n < k:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)
    # Pack by doubling: ``run`` holds every window of ``width`` bases and
    # is joined with itself shifted by ``width`` to double it, while
    # ``words`` (windows of ``have`` bases) takes on the run for each set
    # bit of k, so k = 19 costs 6 shift-or passes instead of 19.
    run = np.where(codes >= 4, 0, codes).astype(np.uint64)
    width, bits = 1, k
    words, have = None, 0
    while True:
        if bits & 1:
            if words is None:
                words, have = run, width
            else:
                words = words[: run.shape[0] - have] << np.uint64(2 * width)
                words |= run[have:]
                have += width
        bits >>= 1
        if not bits:
            break
        run = (run[:-width] << np.uint64(2 * width)) | run[width:]
        width *= 2
    return words, ~_window_masked(codes >= 4, k)


def pack_spaced(codes: np.ndarray, pattern: str) -> tuple[np.ndarray, np.ndarray]:
    """Pack windows under a spaced-seed pattern (only '1' positions count)."""
    if not pattern or any(c not in "01" for c in pattern):
        raise ValueError("pattern must be a non-empty string of 0s and 1s")
    care = [i for i, c in enumerate(pattern) if c == "1"]
    if not care:
        raise ValueError("pattern must have at least one care position")
    if len(care) > 31:
        raise ValueError("too many care positions to fit a uint64 word")
    span = len(pattern)
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.shape[0]
    if n < span:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)
    safe = np.where(codes >= 4, 0, codes).astype(np.uint64)
    words = np.zeros(n - span + 1, dtype=np.uint64)
    for offset in care:
        words = (words << np.uint64(2)) | safe[offset : n - span + 1 + offset]
    # N handling: any N inside the *whole span* invalidates the window (a
    # conservative simplification; LASTZ checks only care positions).
    return words, ~_window_masked(codes >= 4, span)


def pack_words(
    codes: np.ndarray,
    *,
    k: int = 19,
    spaced_pattern: str | None = None,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pack windows under either seeding mode; returns ``(words, valid, span)``.

    The one dispatch point between contiguous and spaced seeds, and the
    one place a soft mask applies, shared by :func:`find_seeds` and
    :func:`build_seed_table` so both sides pack identically.  ``mask``
    (True = masked base, one per code) invalidates every window that
    touches a masked base; a mask of another length is a ``ValueError``.
    """
    if spaced_pattern is not None:
        words, valid = pack_spaced(codes, spaced_pattern)
        span = len(spaced_pattern)
    else:
        words, valid = pack_kmers(codes, k)
        span = k
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != np.shape(codes):
            raise ValueError("mask must match the sequence's length")
        valid &= ~_window_masked(mask, span)
    return words, valid, span


def _sort_by_word(
    words: np.ndarray, positions: np.ndarray, n_windows: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(words, positions)`` sorted by word, ties by position.

    ``positions`` are ascending window indices below ``n_windows``, so this
    is exactly the order of a stable argsort of ``words``.  When a word and
    a position fit one 64-bit key side by side, one in-place sort of
    ``(word << p) | position`` (``p`` the bit length of the largest window
    index) replaces the argsort and both gathers; the keys are distinct, so
    any sort gives the stable order.
    """
    p = max(n_windows - 1, 0).bit_length()
    if words.shape[0] and int(words.max()).bit_length() + p <= 64:
        keys = (words << np.uint64(p)) | positions.astype(np.uint64)
        keys.sort()
        low = np.uint64((1 << p) - 1)
        return keys >> np.uint64(p), (keys & low).view(np.int64)
    order = np.argsort(words, kind="stable")
    return words[order], positions[order].astype(np.int64, copy=False)


@dataclass(frozen=True)
class SeedTable:
    """Sorted target-side word table, the precomputable half of seeding.

    ``words`` is sorted ascending and ``positions[i]`` is the start offset
    of ``words[i]`` in the target; ``span`` is the word footprint in bases.
    Building this table (pack + sort by word over the whole target) is
    the expensive part of :func:`find_seeds` and depends only on the
    target and the seeding parameters, so the reference store persists it
    per registered sequence and hands it back on every request.
    """

    words: np.ndarray
    positions: np.ndarray
    span: int

    def __post_init__(self) -> None:
        if self.words.shape != self.positions.shape:
            raise ValueError("seed table arrays must have equal shape")

    def __len__(self) -> int:
        return int(self.words.shape[0])


def build_seed_table(
    codes: np.ndarray,
    *,
    k: int = 19,
    spaced_pattern: str | None = None,
    mask: np.ndarray | None = None,
) -> SeedTable:
    """Build the sorted target-side word table used by :func:`find_seeds`.

    The target half of :func:`find_seeds`, which builds its table here
    when none is passed in, so matching against a prebuilt table is
    bit-identical to the inline path.  Every build, inline or for the
    reference store, is one ``fastz.seed_table`` span.
    """
    with obs.span("fastz.seed_table", target_bp=len(codes)):
        words, valid, span = pack_words(
            codes, k=k, spaced_pattern=spaced_pattern, mask=mask
        )
        pos_all = np.flatnonzero(valid)
        w, positions = _sort_by_word(words[pos_all], pos_all, words.shape[0])
        return SeedTable(words=w, positions=positions, span=span)


def find_seeds(
    target: np.ndarray,
    query: np.ndarray,
    *,
    k: int = 19,
    spaced_pattern: str | None = None,
    max_word_count: int = 64,
    target_mask: np.ndarray | None = None,
    query_mask: np.ndarray | None = None,
    target_table: SeedTable | None = None,
) -> SeedMatches:
    """All exact word matches between ``target`` and ``query``.

    Parameters
    ----------
    k:
        Contiguous seed length (ignored when ``spaced_pattern`` is given).
    spaced_pattern:
        Optional spaced-seed pattern, e.g. :data:`LASTZ_SPACED_SEED`.
    max_word_count:
        Censoring threshold: words occurring more than this many times in
        the target are dropped entirely (repeat suppression).
    target_mask, query_mask:
        Optional soft-mask boolean arrays (True = masked, e.g. lowercase
        repeats in FASTA).  Windows touching a masked base never seed —
        LASTZ's repeat handling — though extensions may still align
        *through* masked regions.
    target_table:
        Prebuilt sorted target table (see :func:`build_seed_table`).  When
        given, the target-side pack + sort — the expensive, per-reference
        half of this function — is skipped entirely; the table must have
        been built with the same seeding parameters (``span`` is checked;
        ``target_mask`` must then be None because masking is baked into
        the table at build time).  The result is bit-identical to the
        inline path.
    """
    q_words, q_valid, span = pack_words(
        query, k=k, spaced_pattern=spaced_pattern, mask=query_mask
    )

    if target_table is not None:
        if target_mask is not None:
            raise ValueError(
                "target_mask cannot be combined with target_table; masking "
                "is baked into the table when it is built"
            )
        if target_table.span != span:
            raise ValueError(
                f"target_table was built with span {target_table.span}, "
                f"these seeding parameters need span {span}"
            )
    else:
        target_table = build_seed_table(
            target, k=k, spaced_pattern=spaced_pattern, mask=target_mask
        )
    t_w_sorted = target_table.words
    t_pos_sorted = target_table.positions

    q_pos_all = np.flatnonzero(q_valid)
    if t_pos_sorted.size == 0 or q_pos_all.size == 0:
        return SeedMatches(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), span
        )
    # Search the query words in ascending order: NumPy's binary search then
    # keeps the previous key's bound and walks cache-resident paths.  The
    # hits stay in word order; the canonical sort below fixes their order.
    q_w, q_pos_all = _sort_by_word(q_words[q_pos_all], q_pos_all, q_words.shape[0])
    left = np.searchsorted(t_w_sorted, q_w, side="left")
    # Most query words occur nowhere in the target, so only the words found
    # at their lower bound get the second search.
    hit = np.flatnonzero(t_w_sorted.take(left, mode="clip") == q_w)
    left, q_hit_pos = left[hit], q_pos_all[hit]
    counts = np.searchsorted(t_w_sorted, q_w[hit], side="right") - left

    # Censor high-frequency words.
    keep = counts <= max_word_count
    if not keep.any():
        return SeedMatches(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), span
        )
    left = left[keep]
    counts = counts[keep]
    q_hit_pos = q_hit_pos[keep]

    # Expand (query hit, count) pairs into flat index lists.
    total = int(counts.sum())
    q_rep = np.repeat(q_hit_pos, counts)
    # Offsets into t_pos_sorted: left[i] .. left[i]+counts[i]-1 for each hit.
    starts = np.repeat(left, counts)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    t_rep = t_pos_sorted[starts + within]

    # Canonical order: by query position, then target position.
    order = np.lexsort((t_rep, q_rep))
    return SeedMatches(
        target_pos=t_rep[order].astype(np.int64),
        query_pos=q_rep[order].astype(np.int64),
        span=span,
    )
