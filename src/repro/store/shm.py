"""Cross-process reference sharing via ``multiprocessing.shared_memory``.

The worker-pool dispatch path used to pickle every shard's sequence
suffixes into the work queue — megabytes per shard for whole-genome
inputs.  With the store, the parent's :class:`~repro.core.pool.WorkerPool`
publishes each digest-named sequence's codes into one named
shared-memory segment and dispatch messages carry
only ``(digest-derived name, length)``; each worker attaches once and
caches the mapping for the life of the process.

Lifecycle: the parent (publisher) owns every segment and unlinks them all
at pool close.  Workers only ever attach.  On POSIX under Python 3.11,
``SharedMemory(name=..., create=False)`` *also* registers the segment
with the ``resource_tracker``, which would unlink it when the first
worker exits — so the attach helper immediately unregisters it again
(``track=False`` exists only from 3.13).  Without this, one worker death
would tear the segment out from under its siblings.
"""

from __future__ import annotations

import os
import warnings
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["ShmPublisher", "attach_codes", "release_attachments"]

# One warning per process; every failed unregister is still counted.
_unregister_warned = False


def _note_unregister_failed(name: str, exc: BaseException) -> None:
    """Count a failed resource-tracker unregister instead of hiding it.

    Attachment still succeeds — the view is valid either way — but a
    tracked attach means this worker's exit may unlink the segment out
    from under its siblings, which then crash on the next dispatch.  The
    counter (``repro_shm_attach_errors_total``) makes that failure mode
    diagnosable; the first occurrence per process also warns.
    """
    global _unregister_warned
    from .. import obs

    obs.counter(
        "repro_shm_attach_errors_total",
        "Shared-memory attaches whose resource-tracker unregister failed.",
    ).inc()
    if not _unregister_warned:
        _unregister_warned = True
        warnings.warn(
            f"could not unregister shared-memory segment {name!r} from the "
            f"resource tracker ({type(exc).__name__}: {exc}); this worker's "
            "exit may unlink the segment under sibling workers (counted in "
            "repro_shm_attach_errors_total)",
            RuntimeWarning,
            stacklevel=3,
        )

#: Soft cap on total published bytes per publisher; past it, publish()
#: declines (returns None) and dispatch falls back to inline codes.
DEFAULT_BYTE_CAP = 1 << 30

#: The tmpfs Linux backs POSIX shared memory with.  A segment larger than
#: its free space is created without error and raises SIGBUS in the
#: process that first writes past the space, so publish() checks first.
_SHM_DIR = "/dev/shm"


def _has_room(size: int) -> bool:
    """Whether :data:`_SHM_DIR` has ``size`` bytes free (True if unknown)."""
    try:
        st = os.statvfs(_SHM_DIR)
    except OSError:
        return True
    return st.f_bavail * st.f_frsize >= size


class ShmPublisher:
    """Parent-side registry of published reference segments.

    ``publish`` is idempotent per key and returns the ``(name, length)``
    handle a worker needs to attach, or ``None`` when the byte cap would
    be exceeded or the shared-memory filesystem lacks the room (callers
    then ship codes inline — slower, never wrong).
    """

    def __init__(self, *, byte_cap: int = DEFAULT_BYTE_CAP) -> None:
        self._byte_cap = int(byte_cap)
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._lengths: dict[str, int] = {}
        self._bytes = 0

    def publish(self, key: str, codes: np.ndarray) -> tuple[str, int] | None:
        """Copy ``codes`` into a named segment; returns ``(name, length)``."""
        if key in self._segments:
            return self._segments[key].name, self._lengths[key]
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if codes.size == 0 or self._bytes + codes.size > self._byte_cap:
            return None
        if not _has_room(codes.size):
            return None
        try:
            seg = shared_memory.SharedMemory(create=True, size=codes.size)
        except OSError:
            return None
        view = np.ndarray((codes.size,), dtype=np.uint8, buffer=seg.buf)
        view[:] = codes
        del view
        self._segments[key] = seg
        self._lengths[key] = int(codes.size)
        self._bytes += int(codes.size)
        return seg.name, int(codes.size)

    def close(self) -> None:
        """Unlink every published segment (parent-only teardown)."""
        for seg in self._segments.values():
            try:
                seg.close()
                seg.unlink()
            except OSError:
                pass
        self._segments.clear()
        self._lengths.clear()
        self._bytes = 0


# Worker-side attachment cache: one mapping per (name) per process.  The
# SharedMemory objects must stay referenced for as long as any ndarray
# view into them is alive, so the cache holds both.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}


def attach_codes(name: str, length: int) -> np.ndarray:
    """Attach to a published segment; returns a read-only codes view.

    Cached per process: repeated shards referencing the same reference
    reuse the first mapping.
    """
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    seg = shared_memory.SharedMemory(name=name, create=False)
    try:
        # Python 3.11 registers attaches with the resource tracker on
        # POSIX, which would unlink the segment when this process exits.
        # Ownership stays with the publisher; undo the registration.
        resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception as exc:
        _note_unregister_failed(name, exc)
    view = np.ndarray((int(length),), dtype=np.uint8, buffer=seg.buf)
    view.setflags(write=False)
    _ATTACHED[name] = (seg, view)
    return view


def release_attachments() -> None:
    """Drop this process's attachment cache (worker exit path)."""
    for seg, _view in _ATTACHED.values():
        try:
            seg.close()
        except OSError:
            pass
    _ATTACHED.clear()
