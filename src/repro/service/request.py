"""Alignment requests: normalisation, digests and cache/fusion keys.

A request is everything one caller hands the service: a (target, query)
pair plus the LASTZ configuration and FastZ options to align them under,
optionally with pre-selected anchors.  Two derived keys drive the service:

* :attr:`AlignmentRequest.cache_key` — a SHA-256 digest over the sequence
  codes, the anchors (if given), the full scoring configuration and the
  options.  Two requests with equal keys produce bit-identical
  :class:`~repro.core.pipeline.FastzResult`\\ s, so the key indexes the
  LRU result cache.
* :attr:`AlignmentRequest.fuse_key` — the subset that must match for two
  requests' extension tasks to share one lockstep batch: the scoring
  scheme and the :class:`~repro.core.options.FastzOptions`.  Requests in
  one micro-batch are grouped by this key before their suffixes are
  concatenated into :func:`~repro.core.pipeline.extend_suffixes_shard`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import cached_property

import numpy as np

from ..core.options import FastzOptions
from ..genome.sequence import as_codes
from ..lastz.config import LastzConfig
from ..scoring import ScoringScheme
from ..seeding import Anchors
from ..store import StoredReference

__all__ = ["AlignmentRequest", "scheme_digest"]


def _digest_update(h, value) -> None:
    """Feed one config field into a hash, ndarray-aware.

    ``repr`` alone is not enough: :class:`ScoringScheme` marks its
    substitution matrix ``repr=False``, so two schemes differing only in
    the matrix would collide.
    """
    if isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
        h.update(str(value.dtype).encode())
    else:
        h.update(repr(value).encode())
    h.update(b"\x00")


def scheme_digest(scheme: ScoringScheme) -> str:
    """Stable hex digest of every field of a scoring scheme."""
    h = hashlib.sha256()
    for f in dataclass_fields(scheme):
        _digest_update(h, getattr(scheme, f.name))
    return h.hexdigest()


def _config_digest(config: LastzConfig) -> str:
    h = hashlib.sha256()
    for f in dataclass_fields(config):
        value = getattr(config, f.name)
        if isinstance(value, ScoringScheme):
            h.update(scheme_digest(value).encode())
        else:
            _digest_update(h, value)
    return h.hexdigest()


def _side(sequence):
    """A stored reference as given; anything else as one-dimensional codes."""
    if isinstance(sequence, StoredReference):
        return sequence
    codes = as_codes(sequence)
    if codes.ndim != 1:
        raise ValueError("sequence codes must be one-dimensional")
    return codes


@dataclass
class AlignmentRequest:
    """One caller's alignment job: each side codes or a stored reference.

    A :class:`~repro.store.StoredReference` side stays a lazy handle: it
    decodes, and as a target seeds from its store's persisted table, when
    the request is prepared (on the service's dispatcher thread), not
    when it is built.  Its content digest keys the cache cheaply and
    names the sequence for shared-memory pool dispatch.
    """

    target: np.ndarray | StoredReference
    query: np.ndarray | StoredReference
    config: LastzConfig
    options: FastzOptions
    anchors: Anchors | None = field(default=None)

    def __post_init__(self) -> None:
        self.target = _side(self.target)
        self.query = _side(self.query)

    @property
    def nbytes(self) -> int:
        """Sequence payload size, a byte per base — the admission-control cost."""
        return len(self.target) + len(self.query)

    @cached_property
    def cache_key(self) -> str:
        """Digest of everything that determines the alignment result.

        Stored sides hash the store digest instead of the codes — same
        discriminating power (the digest *is* a content hash) without
        decoding or touching megabytes of sequence per lookup.
        """
        h = hashlib.sha256()
        for side in (self.target, self.query):
            if isinstance(side, StoredReference):
                h.update(b"ref:" + side.digest.encode() + b"\x00")
            else:
                _digest_update(h, side)
        if self.anchors is None:
            h.update(b"anchors:none\x00")
        else:
            _digest_update(h, np.asarray(self.anchors.target_pos))
            _digest_update(h, np.asarray(self.anchors.query_pos))
        h.update(_config_digest(self.config).encode())
        _digest_update(h, self.options)
        return h.hexdigest()

    @cached_property
    def fuse_key(self) -> tuple[str, FastzOptions]:
        """Compatibility key: requests sharing it can batch together."""
        return (scheme_digest(self.config.scheme), self.options)
