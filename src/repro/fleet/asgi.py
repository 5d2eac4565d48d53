"""The ``/v1`` HTTP contract and its application layer (ASGI-shaped).

:class:`FleetApp` is an ASGI-style callable — ``await app(scope, receive,
send)`` — served by :class:`~repro.fleet.server.FleetHTTPServer`, the one
HTTP front door of ``repro serve``.  This module is also the contract's
single source of truth, independent of the transport: the routes, the
request-body validation (:func:`parse_align_request`,
:func:`register_reference_payload`), the error mapping
(:func:`classify_align_error`) and the response payloads.

The surface is versioned under ``/v1``:

* ``POST /v1/align`` — body ``{"target": "ACGT...", "query": "ACGT...",
  "timeout_s": 5.0?, "options": {...}?}``; responds with the scored
  alignments.  Either side may instead be a registered reference:
  ``{"target_ref": "<digest>"}`` (needs a server configured with a
  reference store) — exactly one of value/ref per side.  ``options``
  overrides the server's default
  :class:`~repro.core.options.FastzOptions` field-by-field and is
  validated with :meth:`~repro.core.options.FastzOptions.from_mapping`
  (unknown keys are a 400, not silently ignored).
* ``POST /v1/align?stream=1`` — same body, streamed response: the
  pipeline runs on an executor thread, extending anchors in slices, and
  the reply is chunk-encoded NDJSON, one JSON record per line —
  ``{"type": "partial", ...}`` after each slice (threshold-clearing
  alignments included as they are discovered), then a terminal
  ``{"type": "summary", ...}`` identical to the non-streaming payload
  (streamed and barrier results are bit-identical), or ``{"type":
  "error", ...}`` if the run fails after streaming began.
* ``POST /v1/references`` — register a reference: ``{"sequence":
  "ACGTacgt...", "name": "chr1"?}``; idempotent by content digest, the
  response carries ``{"digest", "length", "registered"}``.  Lowercase
  input is recorded as the soft-mask sidecar.
* ``GET /v1/references`` — list registered references.
* ``GET /v1/stats`` — the :class:`~repro.service.stats.ServiceStats`
  snapshot as JSON.
* ``GET /v1/metrics`` — the same counters (plus queue-wait/latency
  histograms) in Prometheus text exposition format.
* ``GET /v1/healthz`` — liveness probe (``draining`` once shutdown began).

Errors use one envelope everywhere: ``{"error": {"code": "...",
"message": "..."}}`` with a stable machine-readable ``code``
(``bad_request``, ``not_found``, ``payload_too_large``, ``overloaded``,
``quota_exceeded``, ``shutting_down``, ``deadline_exceeded``,
``cancelled``, ``store_corrupt``, ``internal``).  Load-shedding 503s and
quota 429s carry a ``Retry-After`` header.  Raw-sequence ``/v1/align``
bodies over ``max_align_body`` get **413** ``payload_too_large``
*before* the body is read — the message points at ``POST
/v1/references``, the intended path for large sequences.  The original
unversioned paths (``/align``, ``/stats``, ``/metrics``, ``/healthz``)
answer with a **307** redirect to their ``/v1`` twin plus a
``Deprecation: true`` header.

Admission, on top of the contract:

* **tenancy** — per-tenant token-bucket quotas keyed on ``X-API-Key``
  (:mod:`repro.fleet.quota`); an empty bucket answers ``429
  quota_exceeded`` with ``Retry-After``.  No quotas configured means
  no checks.
* **priority classes** — ``X-Priority: interactive|batch`` maps to the
  fleet scheduler's dispatch classes; interactive requests overtake
  batch work at every queue.  Unknown values are a 400.
* **deadline-aware admission** — ``X-Deadline-Ms`` is compared against
  the fleet's modelled completion estimate
  (:meth:`~repro.fleet.scheduler.FleetScheduler.estimated_wait_s`); a
  request that cannot make its deadline is refused up front with ``504
  deadline_exceeded`` instead of burning a backend on a result nobody
  will read.  The deadline also bounds queue time like ``timeout_s``.

An ``/v1/align`` awaits the service future (``asyncio.wrap_future``)
instead of parking a thread, and CPU-bearing request work (JSON parse +
DNA validation, reference-store writes, streamed pipeline runs) runs on
the default executor so the loop never stalls behind one request.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from concurrent.futures import CancelledError

from ..core.options import FastzOptions
from ..core.pipeline import StreamAborted
from ..genome.alphabet import encode, encode_with_mask
from ..service.batcher import DeadlineExceeded
from ..service.service import AlignmentService, ServiceClosed, ServiceOverloaded
from ..store import StoreCorrupt, UnknownReference, reference_digest
from ..store.twobit import runs_from_mask
from .quota import QuotaExceeded, TenantQuotas
from .scheduler import PRIORITY_INTERACTIVE, PRIORITY_NAMES

__all__ = [
    "API_PREFIX",
    "DEFAULT_MAX_ALIGN_BODY",
    "FleetApp",
    "LEGACY_PATHS",
    "RequestError",
    "classify_align_error",
    "parse_align_request",
    "register_reference_payload",
]

#: Version prefix of the current HTTP surface.
API_PREFIX = "/v1"

#: Pre-versioning paths still honoured via 307 + ``Deprecation: true``.
LEGACY_PATHS = ("/align", "/healthz", "/metrics", "/stats")

#: Default cap on raw-sequence ``/v1/align`` bodies (a chromosome pair in
#: text is fine, an accidental multi-GB POST is not); :class:`FleetApp`'s
#: ``max_align_body`` overrides it.  Oversize bodies 413 with a pointer
#: at ``POST /v1/references``.
DEFAULT_MAX_ALIGN_BODY = 64 * 1024 * 1024

#: Registration bodies may legitimately carry whole chromosomes; this is
#: an absolute backstop, not a tuning knob.
_MAX_REGISTER_BODY = 1024 * 1024 * 1024


class RequestError(Exception):
    """A request failed validation; carries the full error-envelope triple."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = headers or {}


def parse_align_request(payload: dict, service: AlignmentService) -> dict:
    """Validate a ``/v1/align`` body into submit-ready fields.

    Returns ``{"target_codes", "query_codes", "options", "timeout_s",
    "target_ref", "query_ref"}`` (codes/refs are ``None`` for the unused
    form of each side).  Raises :class:`RequestError` on any violation —
    the single source of truth for the align-body contract.
    """
    target = payload.get("target")
    query = payload.get("query")
    target_ref = payload.get("target_ref")
    query_ref = payload.get("query_ref")
    for field, value in (("target_ref", target_ref), ("query_ref", query_ref)):
        if value is not None and not isinstance(value, str):
            raise RequestError(
                400, "bad_request", f"'{field}' must be a digest string"
            )
    if (target is None) == (target_ref is None):
        raise RequestError(
            400,
            "bad_request",
            "give exactly one of 'target' (DNA string) or 'target_ref' (digest)",
        )
    if (query is None) == (query_ref is None):
        raise RequestError(
            400,
            "bad_request",
            "give exactly one of 'query' (DNA string) or 'query_ref' (digest)",
        )
    if target is not None and not isinstance(target, str):
        raise RequestError(400, "bad_request", "'target' must be a DNA string")
    if query is not None and not isinstance(query, str):
        raise RequestError(400, "bad_request", "'query' must be a DNA string")
    timeout_s = payload.get("timeout_s")
    # bool is a subclass of int, so isinstance alone would accept
    # ``"timeout_s": true`` and treat it as a 1-second deadline.
    if timeout_s is not None and (
        isinstance(timeout_s, bool) or not isinstance(timeout_s, (int, float))
    ):
        raise RequestError(400, "bad_request", "'timeout_s' must be a number")

    options = None
    raw_options = payload.get("options")
    if raw_options is not None:
        if not isinstance(raw_options, dict):
            raise RequestError(400, "bad_request", "'options' must be a JSON object")
        try:
            options = FastzOptions.from_mapping(
                {**service.default_options.to_mapping(), **raw_options}
            )
        except (TypeError, ValueError) as exc:
            raise RequestError(400, "bad_request", f"bad 'options': {exc}") from None

    # Validate before dispatch: the encoding LUT maps junk to N, so a
    # malformed body would otherwise be aligned-as-N (or, for other
    # input bugs, surface as a 500 from deep inside the pipeline).
    target_codes = query_codes = None
    if target is not None:
        try:
            target_codes = encode(target, strict=True)
        except ValueError as exc:
            raise RequestError(
                400, "bad_request", f"'target' is not a DNA sequence: {exc}"
            ) from None
    if query is not None:
        try:
            query_codes = encode(query, strict=True)
        except ValueError as exc:
            raise RequestError(
                400, "bad_request", f"'query' is not a DNA sequence: {exc}"
            ) from None
    return {
        "target_codes": target_codes,
        "query_codes": query_codes,
        "options": options,
        "timeout_s": timeout_s,
        "target_ref": target_ref,
        "query_ref": query_ref,
    }


def register_reference_payload(store, payload: dict) -> dict:
    """Validate + apply a ``POST /v1/references`` body; returns the reply.

    Raises :class:`RequestError` on bad input or store write failure.
    """
    sequence = payload.get("sequence")
    if not isinstance(sequence, str):
        raise RequestError(400, "bad_request", "'sequence' must be a DNA string")
    name = payload.get("name", "reference")
    if not isinstance(name, str) or not name:
        raise RequestError(400, "bad_request", "'name' must be a non-empty string")
    try:
        encode(sequence, strict=True)
    except ValueError as exc:
        raise RequestError(
            400, "bad_request", f"'sequence' is not a DNA sequence: {exc}"
        ) from None
    # Lowercase input is FASTA soft-masking; keep it in the sidecar.
    codes, mask = encode_with_mask(sequence)
    digest = reference_digest(codes, runs_from_mask(mask))
    existed = store.contains(digest)
    try:
        store.add(codes, name=name, mask=mask)
    except OSError as exc:
        raise RequestError(
            500, "internal", f"cannot write store files: {exc}"
        ) from None
    return {
        "digest": digest,
        "name": name,
        "length": len(codes),
        "registered": not existed,
    }


def classify_align_error(exc: BaseException) -> tuple[int, str, str, dict]:
    """(status, code, message, headers) for a failed align submission.

    The one mapping from service-level exceptions to the error envelope,
    applied to both the synchronous submit path and the future's result.
    """
    if isinstance(exc, UnknownReference):
        return 404, "not_found", str(exc), {}
    if isinstance(exc, StoreCorrupt):
        return 500, "store_corrupt", str(exc), {}
    if isinstance(exc, ValueError):
        # e.g. align-by-ref against a server without a store.
        return 400, "bad_request", str(exc), {}
    if isinstance(exc, ServiceOverloaded):
        retry = str(max(1, round(getattr(exc, "retry_after_s", 1.0))))
        return 503, "overloaded", str(exc), {"Retry-After": retry}
    if isinstance(exc, ServiceClosed):
        return 503, "shutting_down", str(exc), {}
    if isinstance(exc, (DeadlineExceeded, TimeoutError)):
        return (
            504,
            "deadline_exceeded",
            str(exc) or "request deadline exceeded",
            {},
        )
    if isinstance(exc, CancelledError):
        return 503, "cancelled", "request cancelled during shutdown", {}
    return 500, "internal", f"{type(exc).__name__}: {exc}", {}


def _alignment_rows(alignments) -> list[dict]:
    return [
        {
            "score": a.score,
            "target_start": a.target_start,
            "target_end": a.target_end,
            "query_start": a.query_start,
            "query_end": a.query_end,
            "cigar": a.cigar(),
        }
        for a in alignments
    ]


def _alignment_payload(result) -> dict:
    return {
        "count": len(result.alignments),
        "anchors": len(result.tasks),
        "eager_fraction": round(result.eager_fraction, 4),
        "alignments": _alignment_rows(result.unique_alignments()),
    }


def _classify_stream_error(exc: Exception) -> tuple[int, str, str]:
    """(status, code, message) for a streaming failure, pre- or mid-stream."""
    if isinstance(exc, StreamAborted):
        return 503, "shutting_down", "server is draining; stream aborted"
    if isinstance(exc, ServiceClosed):
        return 503, "shutting_down", str(exc)
    if isinstance(exc, UnknownReference):
        return 404, "not_found", str(exc)
    if isinstance(exc, StoreCorrupt):
        return 500, "store_corrupt", str(exc)
    if isinstance(exc, ValueError):
        return 400, "bad_request", str(exc)
    return 500, "internal", f"{type(exc).__name__}: {exc}"


#: Queue marker: the streaming worker finished; payload is the outcome.
_STREAM_END = object()


def _partial_record(partial) -> dict:
    return {
        "type": "partial",
        "seq": partial.seq,
        "anchors": partial.n_anchors,
        "done_anchors": partial.done_anchors,
        "eager": partial.eager,
        "wall_s": partial.wall_s,
        "alignments": _alignment_rows(partial.alignments),
    }


def _parse_body(body: bytes) -> dict:
    """JSON-object body or :class:`RequestError` (400 semantics)."""
    if not body:
        raise RequestError(400, "bad_request", "body must not be empty")
    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise RequestError(400, "bad_request", "body is not valid JSON") from None
    if not isinstance(payload, dict):
        raise RequestError(400, "bad_request", "body must be a JSON object")
    return payload


class FleetApp:
    """The ``/v1`` surface as one ASGI-style callable.

    Parameters
    ----------
    service:
        The :class:`~repro.service.AlignmentService` behind the surface;
        deadline admission reads its fleet scheduler's estimate.
    draining:
        Shared shutdown flag: once set, new POSTs get 503
        ``shutting_down`` and in-flight streams abort with a terminal
        error record.  The server owns (and sets) it.
    quotas:
        Per-tenant admission policy; ``None`` (or an empty policy)
        disables quota checks.
    max_align_body:
        Cap on raw-sequence align bodies, refused 413 *before* the body
        is read off the socket.
    """

    def __init__(
        self,
        service: AlignmentService,
        *,
        draining: threading.Event | None = None,
        quotas: TenantQuotas | None = None,
        max_align_body: int | None = None,
    ) -> None:
        self.service = service
        self.draining = draining if draining is not None else threading.Event()
        self.quotas = quotas if quotas is not None else TenantQuotas()
        self.max_align_body = (
            DEFAULT_MAX_ALIGN_BODY if max_align_body is None else int(max_align_body)
        )
        if self.max_align_body < 1:
            raise ValueError("max_align_body must be positive")

    # -- replies -------------------------------------------------------------

    @staticmethod
    async def _reply_raw(
        send, status: int, body: bytes, content_type: str, headers=None
    ) -> None:
        out = [("Content-Type", content_type), ("Content-Length", str(len(body)))]
        for name, value in (headers or {}).items():
            out.append((name, value))
        await send({"type": "http.response.start", "status": status, "headers": out})
        await send({"type": "http.response.body", "body": body})

    async def _reply(self, send, status: int, payload: dict, headers=None) -> None:
        await self._reply_raw(
            send, status, json.dumps(payload).encode(), "application/json", headers
        )

    async def _error(
        self, send, status: int, code: str, message: str, headers=None
    ) -> None:
        body = json.dumps({"error": {"code": code, "message": message}}).encode()
        await self._reply_raw(send, status, body, "application/json", headers)

    # -- routing -------------------------------------------------------------

    async def __call__(self, scope: dict, receive, send) -> None:
        method = scope["method"]
        path = scope["path"]
        if path in LEGACY_PATHS:
            target = API_PREFIX + path
            query = scope.get("raw_query", "")
            if query:
                target += "?" + query
            await send(
                {
                    "type": "http.response.start",
                    "status": 307,
                    "headers": [
                        ("Location", target),
                        ("Deprecation", "true"),
                        ("Content-Length", "0"),
                    ],
                }
            )
            await send({"type": "http.response.body", "body": b""})
            return
        if method in ("GET", "HEAD"):
            await self._get(scope, send, head=method == "HEAD")
        elif method == "POST":
            await self._post(scope, receive, send)
        else:
            await self._error(
                send, 405, "bad_request", f"method {method} not supported"
            )

    async def _get(self, scope: dict, send, *, head: bool = False) -> None:
        path = scope["path"]
        if head:
            known = {API_PREFIX + p for p in ("/healthz", "/stats", "/metrics")}
            status = 200 if path in known else 404
            await send(
                {
                    "type": "http.response.start",
                    "status": status,
                    "headers": [("Content-Length", "0")],
                }
            )
            await send({"type": "http.response.body", "body": b""})
            return
        if path == API_PREFIX + "/healthz":
            status = "draining" if self.draining.is_set() else "ok"
            await self._reply(send, 200, {"status": status})
        elif path == API_PREFIX + "/stats":
            await self._reply(send, 200, self.service.stats().as_dict())
        elif path == API_PREFIX + "/metrics":
            await self._reply_raw(
                send,
                200,
                self.service.metrics_text().encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == API_PREFIX + "/references":
            store = self.service.store
            if store is None:
                await self._error(
                    send,
                    400,
                    "bad_request",
                    "this server has no reference store (serve --store)",
                )
                return
            await self._reply(send, 200, {"references": store.list()})
        else:
            await self._error(send, 404, "not_found", f"unknown path {path!r}")

    async def _post(self, scope: dict, receive, send) -> None:
        path = scope["path"]
        if self.draining.is_set():
            await self._error(
                send, 503, "shutting_down", "server is draining; no new requests"
            )
            return
        if path == API_PREFIX + "/align":
            raw = scope.get("query", {}).get("stream", ["0"])[-1]
            await self._post_align(
                scope, receive, send, stream=raw not in ("", "0", "false")
            )
        elif path == API_PREFIX + "/references":
            await self._post_references(scope, receive, send)
        else:
            await self._error(send, 404, "not_found", f"unknown path {path!r}")

    # -- request plumbing ----------------------------------------------------

    async def _read_payload(
        self, scope: dict, receive, send, limit: int, over_limit_message: str
    ) -> dict | None:
        """Body → JSON object, or a reply + ``None``.

        The size check runs on the scope's Content-Length before the body
        is pulled off the socket, so oversize uploads are refused unread
        (the server then drops the connection rather than skip the bytes).
        """
        length = scope.get("content_length", 0)
        if length <= 0:
            await self._error(send, 400, "bad_request", "body must not be empty")
            return None
        if length > limit:
            await self._error(
                send,
                413,
                "payload_too_large",
                f"body is {length} bytes (limit {limit}); " + over_limit_message,
            )
            return None
        body = await receive()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, _parse_body, body)
        except RequestError as exc:
            await self._error(send, exc.status, exc.code, exc.message)
            return None

    def _admission_headers(self, scope: dict):
        """(priority, deadline_ms) from headers; :class:`RequestError` on junk."""
        headers = scope.get("headers", {})
        priority = PRIORITY_INTERACTIVE
        raw_priority = headers.get("x-priority")
        if raw_priority is not None:
            try:
                priority = PRIORITY_NAMES[raw_priority.strip().lower()]
            except KeyError:
                raise RequestError(
                    400,
                    "bad_request",
                    f"unknown X-Priority {raw_priority!r} "
                    f"(want one of {sorted(PRIORITY_NAMES)})",
                ) from None
        deadline_ms = None
        raw_deadline = headers.get("x-deadline-ms")
        if raw_deadline is not None:
            try:
                deadline_ms = float(raw_deadline)
            except ValueError:
                raise RequestError(
                    400, "bad_request", "X-Deadline-Ms must be a number"
                ) from None
            if deadline_ms <= 0:
                raise RequestError(
                    400, "bad_request", "X-Deadline-Ms must be positive"
                )
        return priority, deadline_ms

    def _check_quota(self, scope: dict) -> None:
        if not self.quotas.enabled:
            return
        self.quotas.check(scope.get("headers", {}).get("x-api-key"))

    def _check_deadline(self, fields: dict, deadline_ms: float | None) -> None:
        """Refuse requests the fleet's cost model says cannot make it."""
        if deadline_ms is None:
            return
        sides = [
            len(codes)
            for codes in (fields["target_codes"], fields["query_codes"])
            if codes is not None
        ]
        # By-ref sides have unknown length here; admission then only
        # charges the backlog, which still catches a saturated fleet.
        weight = float(min(sides)) if len(sides) == 2 else 0.0
        estimate_s = self.service.fleet.estimated_wait_s(weight)
        if estimate_s * 1e3 > deadline_ms:
            raise RequestError(
                504,
                "deadline_exceeded",
                f"estimated completion in {estimate_s * 1e3:.0f}ms exceeds "
                f"the {deadline_ms:.0f}ms deadline; not admitted",
            )

    # -- /v1/align -----------------------------------------------------------

    async def _post_align(self, scope, receive, send, *, stream: bool) -> None:
        try:
            self._check_quota(scope)
        except QuotaExceeded as exc:
            await self._error(
                send,
                429,
                "quota_exceeded",
                str(exc),
                headers={"Retry-After": str(max(1, math.ceil(exc.retry_after_s)))},
            )
            return
        try:
            priority, deadline_ms = self._admission_headers(scope)
        except RequestError as exc:
            await self._error(send, exc.status, exc.code, exc.message)
            return
        payload = await self._read_payload(
            scope,
            receive,
            send,
            self.max_align_body,
            "register large sequences once via POST /v1/references and "
            "align by digest ('target_ref'/'query_ref') instead",
        )
        if payload is None:
            return
        loop = asyncio.get_running_loop()
        try:
            fields = await loop.run_in_executor(
                None, parse_align_request, payload, self.service
            )
            self._check_deadline(fields, deadline_ms)
        except RequestError as exc:
            await self._error(
                send, exc.status, exc.code, exc.message, exc.headers or None
            )
            return

        if stream:
            if fields["timeout_s"] is not None:
                await self._error(
                    send,
                    400,
                    "bad_request",
                    "'timeout_s' is not supported with stream=1",
                )
                return
            await self._stream_align(send, fields)
            return

        timeout_s = fields["timeout_s"]
        if deadline_ms is not None:
            deadline_s = deadline_ms / 1e3
            timeout_s = deadline_s if timeout_s is None else min(timeout_s, deadline_s)
        try:
            future = self.service.submit(
                fields["target_codes"],
                fields["query_codes"],
                options=fields["options"],
                timeout_s=timeout_s,
                target_ref=fields["target_ref"],
                query_ref=fields["query_ref"],
                priority=priority,
            )
            result = await asyncio.wrap_future(future)
        except Exception as exc:
            status, code, message, headers = classify_align_error(exc)
            await self._error(send, status, code, message, headers or None)
        else:
            await self._reply(send, 200, _alignment_payload(result))

    # -- streaming -----------------------------------------------------------

    async def _stream_align(self, send, fields: dict) -> None:
        """Chunk-encode NDJSON records as the streamed run produces them.

        The pipeline runs on an executor thread; ``on_partial`` trampolines
        each record onto the loop through an :class:`asyncio.Queue`.
        Errors before the first record use the plain envelope + status,
        errors after streaming began become a terminal ``{"type":
        "error"}`` record, and the terminal ``summary`` equals the
        non-streaming payload.
        """
        loop = asyncio.get_running_loop()
        records: asyncio.Queue = asyncio.Queue()
        client_gone = threading.Event()

        def push(item) -> None:
            loop.call_soon_threadsafe(records.put_nowait, item)

        def should_abort() -> bool:
            return self.draining.is_set() or client_gone.is_set()

        def worker() -> None:
            try:
                result = self.service.align_stream(
                    fields["target_codes"],
                    fields["query_codes"],
                    options=fields["options"],
                    target_ref=fields["target_ref"],
                    query_ref=fields["query_ref"],
                    on_partial=lambda p: push(_partial_record(p)),
                    should_abort=should_abort,
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded to loop
                push((_STREAM_END, exc))
            else:
                push((_STREAM_END, result))

        loop.run_in_executor(None, worker)
        started = False

        async def send_record(record: dict) -> None:
            nonlocal started
            if not started:
                await send(
                    {
                        "type": "http.response.start",
                        "status": 200,
                        "headers": [("Content-Type", "application/x-ndjson")],
                    }
                )
                started = True
            await send(
                {
                    "type": "http.response.body",
                    "body": json.dumps(record).encode() + b"\n",
                    "more_body": True,
                }
            )

        try:
            while True:
                item = await records.get()
                if isinstance(item, tuple) and item[0] is _STREAM_END:
                    outcome = item[1]
                    if isinstance(outcome, BaseException):
                        status, code, message = _classify_stream_error(outcome)
                        if not started:
                            await self._error(send, status, code, message)
                        else:
                            await send_record(
                                {
                                    "type": "error",
                                    "error": {"code": code, "message": message},
                                }
                            )
                            await send({"type": "http.response.body", "body": b""})
                    else:
                        await send_record(
                            {"type": "summary", **_alignment_payload(outcome)}
                        )
                        await send({"type": "http.response.body", "body": b""})
                    return
                await send_record(item)
        except (ConnectionError, asyncio.CancelledError):
            # Client went away (or the server is tearing down): flag the
            # run to stop before its next slice.  Its pushes go
            # through call_soon_threadsafe, so it can never block on this
            # abandoned consumer; no need to await it here.
            client_gone.set()
            raise
        finally:
            client_gone.set()

    # -- /v1/references ------------------------------------------------------

    async def _post_references(self, scope, receive, send) -> None:
        store = self.service.store
        if store is None:
            await self._error(
                send,
                400,
                "bad_request",
                "this server has no reference store (serve --store)",
            )
            return
        payload = await self._read_payload(
            scope,
            receive,
            send,
            _MAX_REGISTER_BODY,
            "split the FASTA and register per chromosome",
        )
        if payload is None:
            return
        loop = asyncio.get_running_loop()
        try:
            reply = await loop.run_in_executor(
                None, register_reference_payload, store, payload
            )
        except RequestError as exc:
            await self._error(
                send, exc.status, exc.code, exc.message, exc.headers or None
            )
            return
        await self._reply(send, 200, reply)
