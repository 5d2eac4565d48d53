"""Workload profiles: run each benchmark's pipelines once, reuse everywhere.

Every figure/table of the evaluation consumes the same underlying data: the
per-task work profiles of the reference LASTZ run (CPU timing) and of the
FastZ run (GPU timing), plus the resulting alignments.  Building a profile
means running the actual DP engines over the synthetic pair, which is the
expensive part — so profiles are cached both in-process and on disk
(``REPRO_CACHE_DIR``, default ``.repro_cache/`` under the working
directory; set ``REPRO_NO_CACHE=1`` to disable).

The on-disk cache is self-limiting: ``REPRO_CACHE_MAX_MB`` caps its total
size (unset = unlimited), evicting oldest-first after each write, and a
``CACHE_VERSION`` stamp file records which ``_CACHE_VERSION``/
``_CACHE_FORMAT`` wrote the directory — when a version bump changes the
stamp, every cached pickle is purged eagerly instead of lingering forever
under now-unreachable keys.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.options import SCALED_BIN_EDGES, FastzOptions
from ..core.pipeline import FastzResult, run_fastz
from ..core.task import TaskArrays
from ..genome.evolve import GenomePair
from ..lastz.config import LastzConfig
from ..lastz.pipeline import LastzResult, run_gapped_lastz
from ..scoring import default_scheme
from .registry import BenchmarkSpec, build_benchmark_pair

__all__ = [
    "WorkloadProfile",
    "BENCH_OPTIONS",
    "bench_calibration",
    "bench_config",
    "build_profile",
    "build_sensitivity_run",
    "clear_cache",
]

#: Bump when profile-affecting code changes, to invalidate stale caches.
_CACHE_VERSION = 7

#: Bump when the *pickle schema* of cached objects changes (new/renamed
#: fields on profiles, tasks, options, results...).  Old pickles then miss
#: the key and are rebuilt instead of being unpickled into garbage — or
#: crashing tier-1 with ``AttributeError`` mid-load.
_CACHE_FORMAT = 2

#: FastZ options used by the scaled benchmark suite: full FastZ with the
#: suite's scaled bin edges, extended by the lockstep batched engine (the
#: results are bit-identical to the scalar engine; profile builds are just
#: several times faster).
BENCH_OPTIONS = FastzOptions(bin_edges=SCALED_BIN_EDGES, engine="batched")

#: Calibration for the scaled suite.  The only override is the modeled
#: device-memory budget for per-task DP allocations: the suite's search
#: depths (and task count) are scaled ~40x down from the paper's, so the
#: allocation pressure that makes untrimmed executors collapse occupancy is
#: reproduced by scaling the budget with the workload (see EXPERIMENTS.md).
def bench_calibration():
    from ..gpusim.calibration import Calibration

    return Calibration(modeled_memory_bytes=16e6)

_MEMORY_CACHE: dict[str, "WorkloadProfile"] = {}


def bench_config() -> LastzConfig:
    """The standard configuration all benchmarks run under.

    ``ydrop``/``gap_extend`` are scaled from the LASTZ defaults (9400/30)
    to 2400/60: the search space stays much larger than the typical
    alignment — the property FastZ's inspector exploits — while per-task
    DP cell counts stay tractable for pure-Python engines (EXPERIMENTS.md
    discusses this scaling).  ``hsp_threshold`` keeps the ungapped
    filter's selectivity equivalent to LASTZ's: LASTZ's 3000 sits ~2-2.7x
    above its 12-of-19 spaced-seed word score, and our contiguous 19-mer
    word scores 19 x 91 = 1729, so the matching multiple is ~4500.
    ``diag_band`` merges indel-shifted seeds of one homology into a single
    anchor, as LASTZ's chaining stage does.
    """
    return LastzConfig(
        scheme=default_scheme(gap_extend=60, ydrop=2400, hsp_threshold=4500),
        collapse_window=3000,
        diag_band=150,
        traceback=False,
    )


@dataclass
class WorkloadProfile:
    """Everything the evaluation needs about one benchmark run."""

    name: str
    pair_name: str
    lastz: LastzResult
    fastz: FastzResult
    #: Host<->device transfer volume for the 'other' component (sequences
    #: in, anchors in, alignments out).
    transfer_bytes: int
    scale: float

    @property
    def arrays(self) -> TaskArrays:
        return self.fastz.arrays

    @property
    def cpu_cells(self) -> np.ndarray:
        return self.lastz.cells_per_task

    @property
    def n_anchors(self) -> int:
        return len(self.fastz.tasks)


#: Glob patterns of every cached-object family under the cache dir.
_CACHE_PATTERNS = ("profile-*.pkl", "sens-*.pkl")

#: Name of the version stamp file inside the cache directory.
_STAMP_NAME = "CACHE_VERSION"

#: Cache directories already stale-checked this process.
_STALE_CHECKED: set[Path] = set()


def _expected_stamp() -> str:
    return f"{_CACHE_VERSION}.{_CACHE_FORMAT}"


def _cache_files(directory: Path) -> list[Path]:
    return [p for pattern in _CACHE_PATTERNS for p in directory.glob(pattern)]


def _evict_stale(directory: Path) -> None:
    """Purge cache files written under an older version stamp.

    A missing stamp is treated as current (pre-stamp caches shipped with
    the repo are valid); it is then written so the *next* version bump
    purges eagerly rather than leaving unreachable pickles behind.
    """
    stamp = directory / _STAMP_NAME
    try:
        recorded = stamp.read_text().strip()
    except OSError:
        recorded = None
    if recorded == _expected_stamp():
        return
    if recorded is not None:
        for path in _cache_files(directory):
            try:
                path.unlink()
            except OSError:
                pass
    try:
        stamp.write_text(_expected_stamp() + "\n")
    except OSError:
        pass


def _cache_max_bytes() -> int | None:
    """The ``REPRO_CACHE_MAX_MB`` budget in bytes (None = unlimited)."""
    raw = os.environ.get("REPRO_CACHE_MAX_MB")
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        return None
    return int(megabytes * 2**20) if megabytes > 0 else None


def _enforce_cache_cap(directory: Path) -> None:
    """Evict oldest-first until the cache fits ``REPRO_CACHE_MAX_MB``."""
    limit = _cache_max_bytes()
    if limit is None:
        return
    entries = []
    for path in _cache_files(directory):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
    total = sum(size for _, size, _ in entries)
    for _, size, path in sorted(entries):
        if total <= limit:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size


def _write_cache(path: Path, obj) -> None:
    """Persist one cache entry, then re-apply the size cap."""
    path.parent.mkdir(parents=True, exist_ok=True)
    stamp = path.parent / _STAMP_NAME
    if not stamp.exists():
        _evict_stale(path.parent)
    with open(path, "wb") as handle:
        pickle.dump(obj, handle)
    _enforce_cache_cap(path.parent)


def _cache_dir() -> Path | None:
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    directory = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))
    if directory not in _STALE_CHECKED and directory.is_dir():
        _STALE_CHECKED.add(directory)
        _evict_stale(directory)
    return directory


def _cache_key(spec: BenchmarkSpec, scale: float) -> str:
    payload = repr(
        (_CACHE_VERSION, _CACHE_FORMAT, spec, scale, bench_config(), BENCH_OPTIONS)
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:24]


def _load_cached(path: Path):
    """Unpickle a cache file, or return ``None`` after deleting it if corrupt.

    Truncated writes, stale schemas and plain disk corruption all surface
    here (``UnpicklingError``/``EOFError``/``AttributeError``); a corrupt
    cache entry must degrade to a recompute-and-rewrite, never crash the
    caller.
    """
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        import warnings

        warnings.warn(
            f"discarding corrupt profile cache {path.name}: {exc!r}", stacklevel=2
        )
        try:
            path.unlink()
        except OSError:
            pass
        return None


def clear_cache() -> None:
    """Drop in-process and on-disk profile caches (stamp included)."""
    _MEMORY_CACHE.clear()
    directory = _cache_dir()
    if directory and directory.exists():
        for path in _cache_files(directory):
            path.unlink()
        (directory / _STAMP_NAME).unlink(missing_ok=True)
        _STALE_CHECKED.discard(directory)


def _pool_workers() -> int | None:
    """Pool size for uncached profile builds (``REPRO_POOL_WORKERS``)."""
    raw = os.environ.get("REPRO_POOL_WORKERS")
    if not raw:
        return None
    value = int(raw)
    return value if value > 1 else None


def _profile_from_pair(
    spec: BenchmarkSpec, pair: GenomePair, scale: float, workers: int | None = None
) -> WorkloadProfile:
    config = bench_config()
    lastz = run_gapped_lastz(pair.target, pair.query, config)
    fastz = run_fastz(
        pair.target,
        pair.query,
        config,
        BENCH_OPTIONS,
        anchors=lastz.anchors,
        workers=workers if workers is not None else _pool_workers(),
    )
    transfer = (
        len(pair.target)
        + len(pair.query)
        + 16 * len(fastz.tasks)
        + 64 * len(fastz.alignments)
    )
    return WorkloadProfile(
        name=spec.name,
        pair_name=pair.name,
        lastz=lastz,
        fastz=fastz,
        transfer_bytes=transfer,
        scale=scale,
    )


def build_sensitivity_run(
    spec: BenchmarkSpec,
    *,
    scale: float = 1.0,
    use_cache: bool = True,
):
    """Run gapped AND ungapped pipelines on one pair (Figure 2).

    Returns ``(gapped: LastzResult, ungapped: UngappedLastzResult)``.
    Cached like profiles.
    """
    from ..lastz.ungapped import run_ungapped_lastz

    key = _cache_key(spec, scale) + "-sens"
    if use_cache and key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    directory = _cache_dir() if use_cache else None
    path = (
        directory / f"sens-{spec.name.replace('/', '_')}-{key}.pkl"
        if directory
        else None
    )
    if path is not None and path.exists():
        pairres = _load_cached(path)
        if pairres is not None:
            _MEMORY_CACHE[key] = pairres
            return pairres

    pair = build_benchmark_pair(spec, scale)
    config = bench_config()
    gapped = run_gapped_lastz(pair.target, pair.query, config)
    ungapped = run_ungapped_lastz(
        pair.target, pair.query, config, anchors=gapped.anchors
    )
    pairres = (gapped, ungapped)
    if use_cache:
        _MEMORY_CACHE[key] = pairres
        if path is not None:
            _write_cache(path, pairres)
    return pairres


def build_profile(
    spec: BenchmarkSpec,
    *,
    scale: float = 1.0,
    use_cache: bool = True,
    workers: int | None = None,
) -> WorkloadProfile:
    """Build (or fetch) the work profile of one benchmark.

    Corrupt or stale cache entries are deleted and transparently rebuilt
    (then rewritten).  ``workers`` shards the FastZ extension pass across worker
    processes for uncached builds (default: the
    ``REPRO_POOL_WORKERS`` environment variable, else single-process).
    """
    key = _cache_key(spec, scale)
    if use_cache and key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]

    directory = _cache_dir() if use_cache else None
    path = directory / f"profile-{spec.name.replace('/', '_')}-{key}.pkl" if directory else None
    if path is not None and path.exists():
        profile = _load_cached(path)
        if profile is not None:
            _MEMORY_CACHE[key] = profile
            return profile

    pair = build_benchmark_pair(spec, scale)
    profile = _profile_from_pair(spec, pair, scale, workers)
    if use_cache:
        _MEMORY_CACHE[key] = profile
        if path is not None:
            _write_cache(path, profile)
    return profile
