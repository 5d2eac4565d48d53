"""Persistent per-reference seed-table cache.

The target half of :func:`repro.seeding.find_seeds` — pack every window
into a word, drop invalid windows, stable-sort — depends only on the
reference and the seeding parameters, so it is pure precomputable state
(Sundram's seed-filter-extend dataflow observation).  The store persists
each :class:`~repro.seeding.SeedTable` as a ``.npz`` beside the 2-bit
file, keyed by:

* the store format version (:data:`~repro.store.twobit.STORE_VERSION`) —
  a format bump orphans every cached table at once, and
* a seeding-parameter key (``k<k>`` or ``p<pattern>``) — tables for
  different seed shapes coexist.

A cached table whose recorded span disagrees with its key's span (a
hand-edited or torn file) is treated as a miss, never served.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .. import obs
from ..seeding import SeedTable
from .twobit import STORE_VERSION, atomic_write

__all__ = ["load_table", "save_table", "seed_params_key", "table_span"]

# One warning per process; every degrade is still counted.
_degrade_warned = False


def _note_degraded(path: Path, reason: str) -> None:
    """Record a cache entry that could not be served (rebuild follows).

    The degrade itself stays silent-by-design — the cache is advisory —
    but it must not be *invisible*: a store on a flaky disk rebuilding
    every table on every run is a real performance bug.  Every degrade
    increments ``repro_store_seed_cache_degraded_total``; the first one
    per process also warns with the path and reason.
    """
    global _degrade_warned
    obs.counter(
        "repro_store_seed_cache_degraded_total",
        "Cached seed tables that failed to load and degraded to a rebuild.",
    ).inc()
    if not _degrade_warned:
        _degrade_warned = True
        warnings.warn(
            f"seed-table cache degraded to a rebuild ({reason}): {path}; "
            "further degrades are counted in "
            "repro_store_seed_cache_degraded_total without warning again",
            RuntimeWarning,
            stacklevel=4,
        )


def seed_params_key(*, k: int = 19, spaced_pattern: str | None = None) -> str:
    """Filename-safe cache key for one set of seeding parameters."""
    if spaced_pattern is not None:
        if not spaced_pattern or any(c not in "01" for c in spaced_pattern):
            raise ValueError("pattern must be a non-empty string of 0s and 1s")
        return f"v{STORE_VERSION}-p{spaced_pattern}"
    return f"v{STORE_VERSION}-k{int(k)}"


def table_span(*, k: int = 19, spaced_pattern: str | None = None) -> int:
    """Word footprint in bases for one set of seeding parameters."""
    return len(spaced_pattern) if spaced_pattern is not None else int(k)


def save_table(path: str | Path, table: SeedTable) -> None:
    """Persist a seed table atomically (:func:`~repro.store.twobit.atomic_write`)."""
    with atomic_write(path) as handle:
        np.savez(
            handle,
            words=np.asarray(table.words, dtype=np.uint64),
            positions=np.asarray(table.positions, dtype=np.int64),
            span=np.int64(table.span),
        )


def load_table(
    path: str | Path, *, expect_span: int | None = None
) -> SeedTable | None:
    """Load a cached table; ``None`` on missing/unreadable/mismatched files.

    The cache is advisory — any problem degrades to a rebuild, never an
    error and never a wrong table.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            words = np.asarray(data["words"], dtype=np.uint64)
            positions = np.asarray(data["positions"], dtype=np.int64)
            span = int(data["span"])
    except Exception as exc:
        _note_degraded(path, f"unreadable: {type(exc).__name__}: {exc}")
        return None
    if words.shape != positions.shape or words.ndim != 1:
        _note_degraded(path, "malformed arrays")
        return None
    if expect_span is not None and span != expect_span:
        _note_degraded(path, f"span {span} != expected {expect_span}")
        return None
    return SeedTable(words=words, positions=positions, span=span)
