"""Content-addressed reference store: register once, align by digest.

Every registered sequence lives under its content digest::

    <root>/<digest[:2]>/<digest>.2bit          packed codes (mmap-able)
    <root>/<digest[:2]>/<digest>.meta.json     name, length, N/mask runs
    <root>/<digest[:2]>/<digest>.seeds-<key>.npz  cached seed tables

The digest (:func:`reference_digest`) covers the codes and the soft-mask
runs under a versioned prefix — the same bytes always map to the same
key, so registration is idempotent and clients can align against
``ref:<digest>`` without ever re-uploading the sequence.  Golden digest
values are pinned in ``tests/store/test_digest.py``; changing the recipe
orphans every registered reference and seed cache, so it requires a
:data:`~repro.store.twobit.STORE_VERSION` bump and a deliberate test
update.

Reads are lazy and zero-copy where possible: :class:`StoredReference`
mmaps the packed payload and decodes windows (or the whole sequence) on
demand; nothing is materialised at ``get`` time.  Corrupt files — a
truncated 2-bit, an unreadable sidecar — surface as :class:`StoreCorrupt`
and never as silently wrong codes; re-registering the same sequence
repairs the entry in place.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

import numpy as np

from .. import obs
from ..genome.sequence import Sequence
from ..seeding import SeedTable, build_seed_table
from . import seedcache, twobit
from .twobit import STORE_VERSION, TwoBitError

__all__ = [
    "ReferenceStore",
    "StoreCorrupt",
    "StoreError",
    "StoredReference",
    "UnknownReference",
    "reference_digest",
]

#: Versioned domain prefix folded into every reference digest.  Part of
#: the pinned digest recipe — see the golden tests before touching it.
_DIGEST_DOMAIN = b"repro-ref-v1\x00"

#: In-memory LRU sizes: decoded references and seed tables are large, so
#: the store keeps only a handful hot; everything else re-reads the mmap.
_REF_CACHE_ENTRIES = 8
_TABLE_CACHE_ENTRIES = 8


class StoreError(RuntimeError):
    """Base class for reference-store failures."""


class UnknownReference(StoreError, KeyError):
    """No reference registered under this digest."""

    def __init__(self, digest: str) -> None:
        super().__init__(f"no reference registered under digest {digest!r}")
        self.digest = digest

    def __str__(self) -> str:
        # KeyError.__str__ reprs the message; keep it human-readable.
        return self.args[0]


class StoreCorrupt(StoreError):
    """A store file exists but cannot be trusted; re-register to repair."""


def reference_digest(codes: np.ndarray, mask_runs=()) -> str:
    """SHA-256 content digest of a reference (hex).

    Covers, in order: the versioned domain prefix, the sequence length,
    the raw code bytes, and each soft-mask ``[start, stop)`` run.  The
    name is deliberately excluded — the same bases registered under two
    names are the same reference.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    h = hashlib.sha256()
    h.update(_DIGEST_DOMAIN)
    h.update(codes.size.to_bytes(8, "little"))
    h.update(codes.tobytes())
    for start, stop in mask_runs:
        h.update(int(start).to_bytes(8, "little"))
        h.update(int(stop).to_bytes(8, "little"))
    return h.hexdigest()


class StoredReference:
    """Lazy handle over one registered reference.

    Goes wherever a :class:`~repro.genome.sequence.Sequence` goes: it has
    ``name``, ``codes`` and ``__len__``, so every pipeline, the service,
    the job runner and the CLI take it as given.  The codes decode from
    the mmap on first touch and stay cached on the handle, and as a
    target it seeds from the store's persisted table
    (:func:`~repro.lastz.pipeline.select_anchors`).
    """

    def __init__(
        self,
        store: "ReferenceStore",
        digest: str,
        *,
        name: str,
        length: int,
        n_runs,
        mask_runs,
    ) -> None:
        self.store = store
        self.digest = digest
        self.name = name
        self.length = int(length)
        self.n_runs = [(int(a), int(b)) for a, b in n_runs]
        self.mask_runs = [(int(a), int(b)) for a, b in mask_runs]
        self._packed: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._mask: np.ndarray | None = None

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"StoredReference({self.digest[:12]}…, name={self.name!r}, "
            f"length={self.length})"
        )

    @property
    def packed(self) -> np.ndarray:
        """Zero-copy memmap over the 2-bit payload."""
        if self._packed is None:
            path = self.store._twobit_path(self.digest)
            try:
                twobit.read_header(path)
                self._packed = twobit.open_packed(path, self.length)
            except (TwoBitError, OSError) as exc:
                raise StoreCorrupt(str(exc)) from exc
            obs.gauge(
                "repro_store_bytes_mmap",
                "Bytes of packed reference payload currently memory-mapped",
            ).inc(self._packed.nbytes)
        return self._packed

    @property
    def codes(self) -> np.ndarray:
        """Decoded 2-bit codes (N runs restored); cached after first use."""
        if self._codes is None:
            codes = twobit.unpack_codes(self.packed, self.length, n_runs=self.n_runs)
            codes.setflags(write=False)
            self._codes = codes
        return self._codes

    @property
    def mask(self) -> np.ndarray | None:
        """Soft-mask boolean array, or ``None`` when nothing is masked."""
        if not self.mask_runs:
            return None
        if self._mask is None:
            mask = twobit.mask_from_runs(self.mask_runs, self.length)
            mask.setflags(write=False)
            self._mask = mask
        return self._mask

    def codes_window(self, start: int, stop: int) -> np.ndarray:
        """Decode just ``[start, stop)`` — touches only the needed pages."""
        start, stop = int(start), int(stop)
        if not (0 <= start <= stop <= self.length):
            raise IndexError(
                f"window [{start}, {stop}) out of range for length {self.length}"
            )
        if self._codes is not None:
            return self._codes[start:stop]
        lo_byte = start // 4
        hi_byte = (stop + 3) // 4
        chunk = twobit.unpack_codes(
            self.packed[lo_byte:hi_byte], min(hi_byte * 4, self.length) - lo_byte * 4
        )
        window = chunk[start - lo_byte * 4 : stop - lo_byte * 4]
        for run_start, run_stop in self.n_runs:
            lo = max(run_start, start) - start
            hi = min(run_stop, stop) - start
            if lo < hi:
                window[lo:hi] = 4
        return window

    def sequence(self) -> Sequence:
        """Materialise as a plain :class:`Sequence`."""
        return Sequence(self.name, self.codes)


class ReferenceStore:
    """Digest-keyed registry of 2-bit packed references + seed caches."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # One lock guards both LRU caches, which the event loop, stream
        # threads, the service dispatcher and inline job seeding share.
        # It is never held across file I/O or a build.
        self._lock = threading.Lock()
        self._refs: dict[str, StoredReference] = {}
        self._tables: dict[tuple[str, str], SeedTable] = {}

    def __reduce__(self):
        # A copy in another process reopens the root, without the lock or caches.
        return ReferenceStore, (self.root,)

    def _remember(self, cache: dict, key, value, entries: int) -> None:
        """Make ``value`` the most recent entry of ``cache``; evict past ``entries``."""
        with self._lock:
            cache.pop(key, None)
            cache[key] = value
            while len(cache) > entries:
                cache.pop(next(iter(cache)))

    # -- paths -------------------------------------------------------------
    def _shard_dir(self, digest: str) -> Path:
        return self.root / digest[:2]

    def _twobit_path(self, digest: str) -> Path:
        return self._shard_dir(digest) / f"{digest}.2bit"

    def _meta_path(self, digest: str) -> Path:
        return self._shard_dir(digest) / f"{digest}.meta.json"

    def _seeds_path(self, digest: str, key: str) -> Path:
        return self._shard_dir(digest) / f"{digest}.seeds-{key}.npz"

    # -- registration ------------------------------------------------------
    def add(
        self,
        sequence: Sequence | np.ndarray,
        *,
        name: str | None = None,
        mask: np.ndarray | None = None,
    ) -> str:
        """Register a sequence; returns its digest.  Idempotent by content.

        Re-adding an existing digest rewrites the files only when they
        fail validation — registration doubles as the repair path for a
        corrupt entry.
        """
        if isinstance(sequence, Sequence):
            codes = sequence.codes
            name = name if name is not None else sequence.name
        else:
            codes = np.ascontiguousarray(sequence, dtype=np.uint8)
            name = name if name is not None else "reference"
        mask_runs = twobit.runs_from_mask(mask) if mask is not None else []
        digest = reference_digest(codes, mask_runs)
        if self.contains(digest):
            return digest
        n_runs = twobit.runs_from_mask(np.asarray(codes) >= 4)
        shard = self._shard_dir(digest)
        shard.mkdir(parents=True, exist_ok=True)
        twobit.write_twobit(self._twobit_path(digest), codes)
        meta = {
            "digest": digest,
            "name": name,
            "length": int(np.asarray(codes).shape[0]),
            "store_version": STORE_VERSION,
            "n_runs": [[int(a), int(b)] for a, b in n_runs],
            "mask_runs": [[int(a), int(b)] for a, b in mask_runs],
        }
        with twobit.atomic_write(self._meta_path(digest)) as handle:
            handle.write((json.dumps(meta, indent=1) + "\n").encode("ascii"))
        with self._lock:
            self._refs.pop(digest, None)
        return digest

    # -- lookup ------------------------------------------------------------
    def contains(self, digest: str) -> bool:
        """True when a *valid* entry exists (corrupt entries read as absent)."""
        try:
            meta = self._read_meta(digest)
            length = twobit.read_header(self._twobit_path(digest))
        except (StoreError, TwoBitError):
            return False
        return length == meta["length"]

    def get(self, digest: str) -> StoredReference:
        """Open a registered reference (lazy; nothing is decoded yet)."""
        with self._lock:
            cached = self._refs.get(digest)
        if cached is not None:
            self._remember(self._refs, digest, cached, _REF_CACHE_ENTRIES)
            obs.counter(
                "repro_store_hits_total", "Reference store lookups served"
            ).inc()
            return cached
        meta_path = self._meta_path(digest)
        if not meta_path.exists() and not self._twobit_path(digest).exists():
            obs.counter(
                "repro_store_misses_total", "Reference store lookups that failed"
            ).inc()
            raise UnknownReference(digest)
        meta = self._read_meta(digest)
        try:
            length = twobit.read_header(self._twobit_path(digest))
        except TwoBitError as exc:
            raise StoreCorrupt(str(exc)) from exc
        if length != meta["length"]:
            raise StoreCorrupt(
                f"{digest}: metadata says {meta['length']} bases, 2-bit file "
                f"holds {length}; re-register the reference"
            )
        ref = StoredReference(
            self,
            digest,
            name=meta["name"],
            length=meta["length"],
            n_runs=meta["n_runs"],
            mask_runs=meta["mask_runs"],
        )
        self._remember(self._refs, digest, ref, _REF_CACHE_ENTRIES)
        obs.counter("repro_store_hits_total", "Reference store lookups served").inc()
        return ref

    def _read_meta(self, digest: str) -> dict:
        meta_path = self._meta_path(digest)
        if not meta_path.exists():
            raise UnknownReference(digest)
        try:
            meta = json.loads(meta_path.read_text(encoding="ascii"))
            return {
                "digest": str(meta["digest"]),
                "name": str(meta["name"]),
                "length": int(meta["length"]),
                "n_runs": [(int(a), int(b)) for a, b in meta["n_runs"]],
                "mask_runs": [(int(a), int(b)) for a, b in meta["mask_runs"]],
            }
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreCorrupt(
                f"{digest}: unreadable metadata sidecar ({exc}); "
                "re-register the reference"
            ) from exc

    def list(self) -> list[dict]:
        """All registered references: ``{digest, name, length, valid}``."""
        entries = []
        for meta_path in sorted(self.root.glob("??/*.meta.json")):
            digest = meta_path.name.removesuffix(".meta.json")
            try:
                meta = self._read_meta(digest)
                twobit.read_header(self._twobit_path(digest))
                valid = True
                name, length = meta["name"], meta["length"]
            except StoreError:
                valid, name, length = False, "?", 0
            except TwoBitError:
                meta = self._read_meta(digest)
                valid, name, length = False, meta["name"], meta["length"]
            entries.append(
                {"digest": digest, "name": name, "length": length, "valid": valid}
            )
        return entries

    def remove(self, digest: str) -> None:
        """Delete a reference and all of its cached seed tables."""
        if not self._meta_path(digest).exists() and not self._twobit_path(
            digest
        ).exists():
            raise UnknownReference(digest)
        with self._lock:
            self._refs.pop(digest, None)
            for key in [k for k in self._tables if k[0] == digest]:
                self._tables.pop(key)
        shard = self._shard_dir(digest)
        for path in shard.glob(f"{digest}.*"):
            path.unlink(missing_ok=True)
        if shard.exists() and not any(shard.iterdir()):
            shard.rmdir()

    def resolve(self, prefix: str) -> str:
        """Expand a unique digest prefix to the full digest."""
        prefix = prefix.lower()
        matches = sorted(
            {
                path.name.removesuffix(".meta.json")
                for path in self.root.glob(f"{prefix[:2]}*/{prefix}*.meta.json")
            }
        )
        if not matches:
            raise UnknownReference(prefix)
        if len(matches) > 1:
            raise StoreError(
                f"digest prefix {prefix!r} is ambiguous: "
                + ", ".join(m[:12] for m in matches)
            )
        return matches[0]

    # -- seed-table cache --------------------------------------------------
    def seed_table(
        self,
        digest: str,
        *,
        k: int = 19,
        spaced_pattern: str | None = None,
    ) -> SeedTable:
        """The reference's sorted seed table, building + persisting on miss.

        Cache key = store format version + seeding parameters.  The table
        is built *without* the reference's soft-mask — exactly what the
        inline pipeline computes, preserving by-ref / by-bytes
        bit-identity.  Every seeding of a stored target reads its table
        here (:func:`~repro.lastz.pipeline.select_anchors`).
        """
        key = seedcache.seed_params_key(k=k, spaced_pattern=spaced_pattern)
        table = self.load_seed_table(digest, k=k, spaced_pattern=spaced_pattern)
        if table is None:
            obs.counter(
                "repro_store_seed_cache_misses_total",
                "Seed-table lookups that had to build",
            ).inc()
            table = build_seed_table(
                self.get(digest).codes, k=k, spaced_pattern=spaced_pattern
            )
            seedcache.save_table(self._seeds_path(digest, key), table)
        else:
            obs.counter(
                "repro_store_seed_cache_hits_total",
                "Seed-table lookups served from cache",
            ).inc()
        self._remember(self._tables, (digest, key), table, _TABLE_CACHE_ENTRIES)
        return table

    def load_seed_table(
        self,
        digest: str,
        *,
        k: int = 19,
        spaced_pattern: str | None = None,
    ) -> SeedTable | None:
        """Pure cache read: the persisted table or ``None``, never a build."""
        key = seedcache.seed_params_key(k=k, spaced_pattern=spaced_pattern)
        with self._lock:
            cached = self._tables.get((digest, key))
        if cached is not None:
            return cached
        return seedcache.load_table(
            self._seeds_path(digest, key),
            expect_span=seedcache.table_span(k=k, spaced_pattern=spaced_pattern),
        )
