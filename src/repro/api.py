"""repro.api — the stable v1 facade over the alignment pipelines.

One front door for every way of running an alignment, so callers (the
CLI, the job runner, tests, downstream scripts) stop reaching into
pipeline internals:

* :func:`align` — one in-process alignment
  (:func:`repro.core.pipeline.run_fastz`).
* :func:`align_window` — extend pre-selected anchors inside a sequence
  window, one chunk-pair task of the whole-genome runner (the one-task
  case of :func:`repro.core.pipeline.run_fastz_chunks`).
* :func:`align_chunked` — a segmented, checkpointed, fault-tolerant
  whole-genome job (:func:`repro.jobs.run_wga`).
* :class:`Client` — a stdlib HTTP client for a running ``repro serve``
  endpoint, speaking the versioned ``/v1`` surface.

Every entry point accepts ``options`` as a :class:`FastzOptions`, a
plain mapping (validated through
:meth:`~repro.core.options.FastzOptions.from_mapping`, so typos are
errors, not silent defaults), or ``None`` for the full pipeline — the
same validation path the HTTP body and the CLI flags go through.
"""

from __future__ import annotations

import http.client
import json
import threading
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Callable
from urllib.parse import urlsplit

import numpy as np

from .core.options import FASTZ_FULL, FastzOptions
from .core.pipeline import ChunkResult, FastzResult, run_fastz, run_fastz_chunk
from .genome.sequence import Sequence
from .lastz.config import LastzConfig
from .seeding import Anchors

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .jobs.runner import JobOptions, WgaReport
    from .store import ReferenceStore, StoredReference

__all__ = [
    "ApiError",
    "Client",
    "align",
    "align_chunked",
    "align_window",
    "register_reference",
    "resolve_options",
]


def resolve_options(
    options: FastzOptions | Mapping | None,
) -> FastzOptions:
    """Normalise the ``options`` argument every facade call accepts.

    ``None`` means the full pipeline (:data:`FASTZ_FULL`); a mapping is
    validated field-by-field with unknown keys rejected.
    """
    if options is None:
        return FASTZ_FULL
    if isinstance(options, FastzOptions):
        return options
    return FastzOptions.from_mapping(options)


def _as_alignable(value):
    """Accept a :class:`~repro.store.StoredReference` anywhere a sequence goes.

    A stored reference decodes lazily into a :class:`Sequence`; anything
    else passes through untouched so array/Sequence callers pay nothing.
    """
    from .store.store import StoredReference

    if isinstance(value, StoredReference):
        return value.sequence()
    return value


def register_reference(
    sequence: Sequence | str,
    *,
    store: "ReferenceStore | str | Path",
    name: str | None = None,
) -> "StoredReference":
    """Register a reference in a store once; returns the stored handle.

    Idempotent: registering the same bases (mask included) returns the
    same digest.  ``sequence`` may be raw DNA text — soft-mask lowercase
    is preserved through the sidecar, exactly as ``repro refs add`` does.
    """
    from .genome.alphabet import encode_with_mask
    from .store import ReferenceStore

    if not isinstance(store, ReferenceStore):
        store = ReferenceStore(store)
    if isinstance(sequence, str):
        codes, mask = encode_with_mask(sequence)
    else:
        codes, mask = sequence.codes, None
        if name is None:
            name = sequence.name
    digest = store.add(codes, name=name, mask=mask)
    return store.get(digest)


def align(
    target: "Sequence | np.ndarray | StoredReference",
    query: "Sequence | np.ndarray | StoredReference",
    config: LastzConfig | None = None,
    options: FastzOptions | Mapping | None = None,
    *,
    anchors: Anchors | None = None,
    workers: int | None = None,
    keep_extensions: bool = False,
    streaming: bool = False,
    on_partial: "Callable | None" = None,
    stream_chunk_bp: int | None = None,
) -> FastzResult:
    """Align one (target, query) pair in-process.

    Thin, stable wrapper over :func:`repro.core.pipeline.run_fastz`;
    ``workers`` shards anchors across a multiprocessing pool with
    bit-identical results.  Either side may be a
    :class:`~repro.store.StoredReference` (decoded lazily from the
    store's 2-bit file).

    ``streaming=True`` overlaps seeding with extension
    (:func:`repro.core.streaming.run_fastz_streaming`): same result, and
    ``on_partial`` receives a
    :class:`~repro.core.streaming.StreamPartial` after each extension
    batch.  ``stream_chunk_bp`` tunes the seeding-chunk granularity.
    """
    return run_fastz(
        _as_alignable(target),
        _as_alignable(query),
        config,
        resolve_options(options),
        anchors=anchors,
        workers=workers,
        keep_extensions=keep_extensions,
        streaming=streaming,
        on_partial=on_partial,
        stream_chunk_bp=stream_chunk_bp,
    )


def align_window(
    target: Sequence | np.ndarray,
    query: Sequence | np.ndarray,
    config: LastzConfig | None = None,
    options: FastzOptions | Mapping | None = None,
    *,
    anchors: Anchors,
    t_window: tuple[int, int] | None = None,
    q_window: tuple[int, int] | None = None,
) -> ChunkResult:
    """Extend pre-selected anchors inside target/query windows.

    One chunk-pair task of the whole-genome runner, whose workers fuse
    several of them per engine call (:func:`~repro.core.pipeline.run_fastz_chunks`)
    — seam-guarded, so windowing never changes an alignment.
    """
    return run_fastz_chunk(
        target,
        query,
        config,
        resolve_options(options),
        anchors=anchors,
        t_window=t_window,
        q_window=q_window,
    )


def align_chunked(
    target: "Sequence | StoredReference",
    query: "Sequence | StoredReference",
    config: LastzConfig | None = None,
    options: FastzOptions | Mapping | None = None,
    *,
    job: "JobOptions | None" = None,
    job_dir: str | Path | None = None,
    fresh: bool = False,
    log: Callable[[str], None] | None = None,
    on_alignment: Callable | None = None,
) -> "WgaReport":
    """Run (or resume) a segmented, checkpointed whole-genome job.

    Wraps :func:`repro.jobs.run_wga` (imported lazily — the jobs
    subsystem is heavier than one alignment needs).  ``job_dir`` is the
    durable state directory; when ``None`` a throwaway temporary
    directory is used, which forfeits resumability but keeps one-shot
    calls ergonomic.

    ``on_alignment`` streams finalized alignments as the incremental
    merge's watermark passes them — called mid-run, in ascending anchor
    order, long before the report is assembled (``repro wga --follow``).
    """
    from .jobs import JobOptions, run_wga

    if job is None:
        job = JobOptions()
    kwargs = dict(fresh=fresh, log=log, on_alignment=on_alignment)
    if job_dir is None:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-wga-") as tmp:
            return run_wga(
                target, query, config, resolve_options(options),
                job=job, job_dir=tmp, **kwargs,
            )
    return run_wga(
        target, query, config, resolve_options(options),
        job=job, job_dir=job_dir, **kwargs,
    )


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------


class ApiError(RuntimeError):
    """A ``/v1`` endpoint answered with an error envelope.

    ``status`` is the HTTP status; ``code`` the stable machine-readable
    error code (``bad_request``, ``overloaded``, ...); ``retry_after_s``
    the server's suggested backoff when it sent one.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.retry_after_s = retry_after_s


def _parse_retry_after(value: str | None) -> float | None:
    """Parse a ``Retry-After`` header into seconds, or ``None``.

    RFC 9110 allows two forms: non-negative delta-seconds and an
    HTTP-date.  Dates are converted to a delay relative to now and
    clamped at zero (a date in the past means "retry immediately", not a
    negative backoff).  Unparseable values yield ``None`` rather than an
    exception — a proxy's malformed header must not mask the real error.
    """
    if value is None:
        return None
    value = value.strip()
    try:
        delta = float(value)
    except ValueError:
        pass
    else:
        return max(0.0, delta)
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when is None:
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


def _as_dna_text(sequence: Sequence | np.ndarray | str) -> str:
    if isinstance(sequence, str):
        return sequence
    from .genome.alphabet import decode

    codes = sequence.codes if isinstance(sequence, Sequence) else sequence
    return decode(np.asarray(codes))


class Client:
    """Minimal stdlib client for a running ``repro serve`` endpoint.

    Speaks the versioned JSON surface (``POST /v1/align``,
    ``GET /v1/stats``, ``GET /v1/metrics``, ``GET /v1/healthz``) and
    turns error envelopes into :class:`ApiError`.

    The client holds **one persistent connection** per server: both
    ``repro serve`` front ends speak HTTP/1.1 keep-alive, so consecutive
    calls reuse the socket instead of paying a TCP handshake each —
    exactly what a submit loop against the service wants.  The
    connection is re-established transparently when the server closed it
    (drain, idle timeout, an error that forced a close); thread safety
    comes from one lock around the request/response exchange.  Streaming
    calls (:meth:`align_stream`) use a dedicated connection so a
    long-lived stream never blocks the client's other calls.

    ``api_key`` (sent as ``X-API-Key``) names the tenant for the
    front door's quota accounting (ignored when no quotas are set).

    >>> client = Client("http://127.0.0.1:8642")
    >>> client.healthz()
    {'status': 'ok'}
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout_s: float = 60.0,
        api_key: str | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.api_key = api_key
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme {parts.scheme!r}")
        self._https = parts.scheme == "https"
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or (443 if self._https else 80)
        self._conn: http.client.HTTPConnection | None = None
        self._lock = threading.Lock()

    # -- plumbing ------------------------------------------------------------

    def _new_connection(self) -> http.client.HTTPConnection:
        cls = (
            http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        )
        return cls(self._host, self._port, timeout=self.timeout_s)

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def close(self) -> None:
        """Drop the persistent connection (idempotent)."""
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _headers(self, extra: dict | None = None, *, has_body: bool) -> dict:
        headers: dict = {}
        if has_body:
            headers["Content-Type"] = "application/json"
        if self.api_key is not None:
            headers["X-API-Key"] = self.api_key
        if extra:
            headers.update({k: v for k, v in extra.items() if v is not None})
        return headers

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        extra_headers: dict | None = None,
    ):
        data = None if body is None else json.dumps(body).encode()
        headers = self._headers(extra_headers, has_body=data is not None)
        with self._lock:
            # One retry: a keep-alive socket the server closed between
            # calls fails on write (or with an empty response); that is
            # staleness, not an error, so reconnect once and repeat.
            for attempt in (0, 1):
                was_fresh = self._conn is None
                if self._conn is None:
                    self._conn = self._new_connection()
                try:
                    self._conn.request(method, f"/v1{path}", body=data, headers=headers)
                    resp = self._conn.getresponse()
                    raw = resp.read()
                except TimeoutError:
                    # A timeout is not staleness — the server may have
                    # accepted the request; re-sending could run it twice.
                    self._drop_connection()
                    raise
                except (http.client.HTTPException, ConnectionError, OSError):
                    self._drop_connection()
                    if attempt or was_fresh:
                        raise
                    continue
                if resp.will_close:
                    self._drop_connection()
                break
        if resp.status >= 400:
            try:
                envelope = json.loads(raw)["error"]
                code = str(envelope["code"])
                message = str(envelope["message"])
            except Exception:
                code, message = "internal", raw.decode(errors="replace")
            raise ApiError(
                resp.status,
                code,
                message,
                retry_after_s=_parse_retry_after(resp.getheader("Retry-After")),
            )
        return raw, resp.headers

    def _get_json(self, path: str) -> dict:
        raw, _ = self._request("GET", path)
        return json.loads(raw)

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> dict:
        return self._get_json("/healthz")

    def stats(self) -> dict:
        return self._get_json("/stats")

    def metrics(self) -> str:
        raw, _ = self._request("GET", "/metrics")
        return raw.decode()

    def register_reference(
        self,
        sequence: Sequence | np.ndarray | str,
        *,
        name: str | None = None,
    ) -> dict:
        """POST a reference to ``/v1/references``; returns the envelope.

        The response carries the content digest (``digest``) to pass as
        ``target_ref``/``query_ref`` in later :meth:`align` calls, plus
        ``registered`` (False when the store already had these bytes).
        """
        body: dict = {"sequence": _as_dna_text(sequence)}
        if name is not None:
            body["name"] = name
        raw, _ = self._request("POST", "/references", body)
        return json.loads(raw)

    def references(self) -> dict:
        """GET the server's reference listing (``/v1/references``)."""
        return self._get_json("/references")

    def align(
        self,
        target: Sequence | np.ndarray | str | None = None,
        query: Sequence | np.ndarray | str | None = None,
        *,
        target_ref: str | None = None,
        query_ref: str | None = None,
        options: FastzOptions | Mapping | None = None,
        timeout_s: float | None = None,
        priority: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """POST one alignment; returns the response payload as a dict.

        Each side is either raw sequence (``target``/``query``) or a
        registered reference digest (``target_ref``/``query_ref``) —
        exactly one per side.  ``options`` overrides the server's
        defaults field-by-field; a :class:`FastzOptions` is serialised
        whole, a mapping is sent as-is (the server validates it).

        ``priority`` (``"interactive"`` or ``"batch"``) and
        ``deadline_ms`` map to the front door's ``X-Priority`` /
        ``X-Deadline-Ms`` headers — dispatch class and deadline-aware
        admission.
        """
        body = self._align_body(
            target, query, target_ref, query_ref, options, timeout_s
        )
        raw, _ = self._request(
            "POST",
            "/align",
            body,
            extra_headers={
                "X-Priority": priority,
                "X-Deadline-Ms": (
                    None if deadline_ms is None else repr(float(deadline_ms))
                ),
            },
        )
        return json.loads(raw)

    def align_stream(
        self,
        target: Sequence | np.ndarray | str | None = None,
        query: Sequence | np.ndarray | str | None = None,
        *,
        target_ref: str | None = None,
        query_ref: str | None = None,
        options: FastzOptions | Mapping | None = None,
        priority: str | None = None,
    ):
        """POST one alignment to ``/v1/align?stream=1``; yields NDJSON records.

        The server runs the streaming pipeline and chunk-encodes one JSON
        record per line as work completes: ``{"type": "partial", ...}``
        after each extension batch, then a terminal ``{"type": "summary",
        ...}`` whose payload is identical to the non-streaming
        :meth:`align` response (streamed and barrier results are
        bit-identical).  A terminal ``{"type": "error", ...}`` record —
        e.g. the server draining mid-stream — raises :class:`ApiError`.

        Streams get their own connection (both servers close it when the
        stream ends), so the client's persistent connection stays free
        for other calls while the stream is being consumed.
        """
        body = self._align_body(
            target, query, target_ref, query_ref, options, None
        )
        conn = self._new_connection()
        try:
            conn.request(
                "POST",
                "/v1/align?stream=1",
                body=json.dumps(body).encode(),
                headers=self._headers({"X-Priority": priority}, has_body=True),
            )
            resp = conn.getresponse()
            if resp.status >= 400:
                raw = resp.read()
                try:
                    envelope = json.loads(raw)["error"]
                    code = str(envelope["code"])
                    message = str(envelope["message"])
                except Exception:
                    code, message = "internal", raw.decode(errors="replace")
                raise ApiError(
                    resp.status,
                    code,
                    message,
                    retry_after_s=_parse_retry_after(resp.getheader("Retry-After")),
                )
            for line in resp:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("type") == "error":
                    envelope = record.get("error", {})
                    raise ApiError(
                        200,
                        str(envelope.get("code", "internal")),
                        str(envelope.get("message", "stream failed")),
                    )
                yield record
        finally:
            conn.close()

    @staticmethod
    def _align_body(
        target,
        query,
        target_ref,
        query_ref,
        options,
        timeout_s,
    ) -> dict:
        body: dict = {}
        for side, value, ref in (
            ("target", target, target_ref),
            ("query", query, query_ref),
        ):
            if (value is None) == (ref is None):
                raise ValueError(
                    f"exactly one of {side!r} or {side}_ref is required"
                )
            if ref is not None:
                body[f"{side}_ref"] = ref
            else:
                body[side] = _as_dna_text(value)
        if options is not None:
            body["options"] = (
                options.to_mapping()
                if isinstance(options, FastzOptions)
                else dict(options)
            )
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return body
