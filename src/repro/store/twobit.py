"""2-bit packed sequence files: the on-disk format of the reference store.

The packing mirrors what faToTwoBit does for KegAlign-style pipelines: four
bases per byte (2 bits each, ``A=0 C=1 G=2 T=3``), with N positions packed
as ``A`` and recorded separately as ``[start, stop)`` interval runs in the
sidecar metadata — the payload itself never needs a fifth symbol, so it
stays exactly ``ceil(len / 4)`` bytes and can be ``np.memmap``-ed read-only.

File layout (all integers little-endian)::

    offset 0   magic   b"R2BT"
    offset 4   uint32  format version (:data:`STORE_VERSION`)
    offset 8   uint64  sequence length in bases
    offset 16  payload ceil(length / 4) bytes, base ``i`` in bits
               ``2*(i % 4)`` of byte ``i // 4`` (low bits first)

Corruption is detectable without reading the payload: the file size must
equal ``HEADER_SIZE + ceil(length / 4)`` exactly, and the magic/version
must match.  :func:`read_header` raises :class:`TwoBitError` otherwise —
a truncated or overwritten file is a clean error, never wrong codes.
"""

from __future__ import annotations

import os
import struct
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..genome.alphabet import N_CODE

__all__ = [
    "HEADER_SIZE",
    "MAGIC",
    "STORE_VERSION",
    "TwoBitError",
    "atomic_write",
    "open_packed",
    "pack_codes",
    "read_header",
    "runs_from_mask",
    "mask_from_runs",
    "unpack_codes",
    "write_twobit",
]

#: File magic of the packed-reference format.
MAGIC = b"R2BT"

#: Bump when the packed layout or digest recipe changes; part of the
#: header and of every seed-cache key, so stale files are rejected (or
#: rebuilt) instead of being misread.
STORE_VERSION = 1

#: Fixed header: magic + uint32 version + uint64 length.
HEADER_SIZE = 16

_HEADER = struct.Struct("<4sIQ")


class TwoBitError(ValueError):
    """A 2-bit file is missing, truncated or not in this format."""


def payload_size(length: int) -> int:
    """Packed payload bytes for a sequence of ``length`` bases."""
    return (int(length) + 3) // 4


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack 2-bit codes (N packed as A) into a ``uint8`` payload array."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 1:
        raise ValueError("codes must be one-dimensional")
    if codes.size and codes.max() > N_CODE:
        raise ValueError("codes contain values outside [0, 4]")
    safe = np.where(codes >= 4, 0, codes).astype(np.uint8)
    n_bytes = payload_size(safe.size)
    padded = np.zeros(n_bytes * 4, dtype=np.uint8)
    padded[: safe.size] = safe
    packed = (
        padded[0::4]
        | (padded[1::4] << np.uint8(2))
        | (padded[2::4] << np.uint8(4))
        | (padded[3::4] << np.uint8(6))
    )
    return packed.astype(np.uint8)


def unpack_codes(
    packed: np.ndarray, length: int, *, n_runs=()
) -> np.ndarray:
    """Unpack a payload array back into codes, restoring N runs.

    ``packed`` may be a zero-copy :func:`numpy.memmap` view straight off a
    store file; only the output array is materialised.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    length = int(length)
    if packed.size < payload_size(length):
        raise TwoBitError(
            f"payload holds {packed.size * 4} bases, {length} expected"
        )
    out = np.empty(packed.size * 4, dtype=np.uint8)
    out[0::4] = packed & np.uint8(3)
    out[1::4] = (packed >> np.uint8(2)) & np.uint8(3)
    out[2::4] = (packed >> np.uint8(4)) & np.uint8(3)
    out[3::4] = (packed >> np.uint8(6)) & np.uint8(3)
    out = out[:length]
    for start, stop in n_runs:
        out[int(start) : int(stop)] = N_CODE
    return out


def runs_from_mask(flags: np.ndarray) -> list[tuple[int, int]]:
    """Collapse a boolean per-base array into ``[start, stop)`` runs."""
    flags = np.asarray(flags, dtype=bool)
    if flags.ndim != 1:
        raise ValueError("flags must be one-dimensional")
    if not flags.any():
        return []
    edges = np.diff(flags.astype(np.int8))
    starts = (np.flatnonzero(edges == 1) + 1).tolist()
    stops = (np.flatnonzero(edges == -1) + 1).tolist()
    if flags[0]:
        starts.insert(0, 0)
    if flags[-1]:
        stops.append(int(flags.size))
    return [(int(s), int(e)) for s, e in zip(starts, stops)]


def mask_from_runs(runs, length: int) -> np.ndarray:
    """Expand ``[start, stop)`` runs back into a boolean per-base array."""
    flags = np.zeros(int(length), dtype=bool)
    for start, stop in runs:
        flags[int(start) : int(stop)] = True
    return flags


@contextmanager
def atomic_write(path: str | Path):
    """Write ``path`` atomically: yield a binary handle, then rename over it.

    The temporary file beside ``path`` is named for this process and
    thread, so writers of the same file (two processes persisting one
    seed table, say) never share one; each rename is atomic, and the last
    one wins.  On an error the temporary file is removed and ``path`` is
    left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident():x}.tmp")
    try:
        with open(tmp, "wb") as handle:
            yield handle
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def write_twobit(path: str | Path, codes: np.ndarray) -> None:
    """Write a packed file atomically (:func:`atomic_write`)."""
    codes = np.asarray(codes, dtype=np.uint8)
    with atomic_write(path) as handle:
        handle.write(_HEADER.pack(MAGIC, STORE_VERSION, codes.size))
        handle.write(pack_codes(codes).tobytes())


def read_header(path: str | Path) -> int:
    """Validate a packed file's header and size; returns the length.

    Raises :class:`TwoBitError` on any mismatch — wrong magic, unknown
    version, or a file size that disagrees with the recorded length
    (truncation or trailing garbage).
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise TwoBitError(f"cannot read {path}: {exc}") from exc
    if len(raw) < HEADER_SIZE:
        raise TwoBitError(f"{path} is truncated ({size} bytes, no header)")
    magic, version, length = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TwoBitError(f"{path} is not a repro 2-bit file (magic {magic!r})")
    if version != STORE_VERSION:
        raise TwoBitError(
            f"{path} has store format v{version}, this build reads "
            f"v{STORE_VERSION}; re-register the reference"
        )
    expected = HEADER_SIZE + payload_size(length)
    if size != expected:
        raise TwoBitError(
            f"{path} is corrupt: {size} bytes on disk, {expected} expected "
            f"for {length} bases; re-register the reference"
        )
    return int(length)


def open_packed(path: str | Path, length: int) -> np.ndarray:
    """Zero-copy read-only ``np.memmap`` over a packed file's payload."""
    return np.memmap(
        Path(path),
        dtype=np.uint8,
        mode="r",
        offset=HEADER_SIZE,
        shape=(payload_size(length),),
    )
