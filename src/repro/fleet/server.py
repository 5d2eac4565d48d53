"""Asyncio HTTP/1.1 server: one event loop, many connections (stdlib only).

The transport half of ``repro serve``'s front door.
:class:`FleetHTTPServer` parses HTTP/1.1 off :mod:`asyncio` streams and
drives an ASGI-style app (:class:`~repro.fleet.asgi.FleetApp`): requests
on one connection are handled in sequence (keep-alive), connections are
multiplexed by the loop — no thread per connection, so concurrency is
bounded by sockets, not by a thread pool.

Framing rules:

* responses that declare ``Content-Length`` keep the connection alive
  (HTTP/1.1 default) unless either side asked ``Connection: close``;
* responses without a length (the NDJSON streams) are sent
  ``Transfer-Encoding: chunked`` and close the connection afterwards;
* a request refused *before* its body was read (413 and friends) closes
  the connection — the unread bytes must not be parsed as a next request.

Shutdown is a bounded graceful drain:
:meth:`FleetHTTPServer.initiate_shutdown` (thread- and signal-safe)
flips the shared draining flag — new requests get 503
``shutting_down``, in-flight streams end with a terminal error record —
waits up to ``grace_s`` for active requests (the listener keeps
accepting so latecomers get the immediate 503 instead of hanging in the
accept backlog), then stops the listener and force-closes surviving
connections.  With ``access_log`` each request leaves one
:mod:`http.server`-format line on stderr.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from http.client import responses as _status_phrases
from urllib.parse import parse_qs, urlsplit

from ..service.service import AlignmentService
from .asgi import FleetApp
from .quota import TenantQuotas

__all__ = ["FleetHTTPServer", "serve_fleet"]

#: Largest request head (request line + headers) the parser accepts.
_MAX_HEAD_BYTES = 64 * 1024

#: Hard ceiling on request bodies the transport will buffer; the app's
#: route-specific limits (413) are checked before the body is read.
_MAX_BODY_BYTES = 2 * 1024 * 1024 * 1024


class _ConnectionState:
    """Per-request send-side bookkeeping for one connection."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.started = False
        self.chunked = False
        self.finished = False
        self.close_after = False


class FleetHTTPServer:
    """The asyncio front door: HTTP/1.1 transport over an ASGI-style app."""

    def __init__(
        self,
        app,
        host: str = "127.0.0.1",
        port: int = 8642,
        *,
        draining: threading.Event,
        grace_s: float = 5.0,
        access_log: bool = False,
    ) -> None:
        if grace_s < 0:
            raise ValueError("grace_s must be non-negative")
        self.app = app
        self.host = host
        self.port = port
        self.grace_s = float(grace_s)
        self.access_log = access_log
        self._draining = draining
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._done = asyncio.Event()
        self._shutdown_started = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — authoritative once started."""
        return self.host, self.port

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=_MAX_HEAD_BYTES
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]

    async def serve_forever(self) -> None:
        """Block until a shutdown drains the server."""
        if self._server is None:
            await self.start()
        await self._done.wait()

    def initiate_shutdown(self) -> None:
        """Begin the graceful drain; safe from signal handlers and threads.

        The draining flag flips before this returns — new requests get
        503 and in-flight streams abort before their next slice —
        and the drain itself is handed to the loop.
        """
        self._draining.set()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._begin_shutdown)

    def _begin_shutdown(self) -> None:
        if self._shutdown_started:
            return
        self._shutdown_started = True
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        # The listener stays open through the grace window: latecomers get
        # an immediate 503 from the draining app instead of hanging in the
        # kernel's accept backlog against a closed socket.
        deadline = asyncio.get_running_loop().time() + self.grace_s
        while self._active_requests > 0:
            if asyncio.get_running_loop().time() >= deadline:
                break
            await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        self._done.set()

    # -- connection handling -------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader) -> tuple[str, str, str, dict] | None:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        total = len(line)
        while True:
            hline = await reader.readline()
            total += len(hline)
            if total > _MAX_HEAD_BYTES:
                raise _BadRequest("request head too large")
            if hline in (b"\r\n", b"\n", b""):
                break
            name, sep, value = hline.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest("malformed header line")
            headers[name.strip().lower()] = value.strip()
        return method, target, version, headers

    async def _handle_one(self, reader, writer) -> bool:
        """Serve one request; returns True to keep the connection open."""
        try:
            head = await self._read_head(reader)
        except _BadRequest as exc:
            await self._transport_error(writer, 400, "bad_request", str(exc))
            return False
        if head is None:
            return False
        method, target, version, headers = head
        requestline = f"{method} {target} {version}"

        if "chunked" in headers.get("transfer-encoding", "").lower():
            await self._transport_error(
                writer, 411, "bad_request", "chunked request bodies not supported",
                requestline,
            )
            return False
        try:
            content_length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            await self._transport_error(
                writer, 400, "bad_request", "bad Content-Length", requestline
            )
            return False
        if content_length < 0 or content_length > _MAX_BODY_BYTES:
            await self._transport_error(
                writer, 413, "payload_too_large", "request body too large",
                requestline,
            )
            return False
        if headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()

        parts = urlsplit(target)
        scope = {
            "type": "http",
            "method": method.upper(),
            "path": parts.path,
            "query": parse_qs(parts.query),
            "raw_query": parts.query,
            "headers": headers,
            "content_length": content_length,
        }

        body_consumed = content_length == 0

        async def receive() -> bytes:
            nonlocal body_consumed
            if body_consumed:
                return b""
            body_consumed = True
            return await reader.readexactly(content_length)

        state = _ConnectionState(writer)
        client_wants_close = headers.get("connection", "").lower() == "close"
        http11 = version.upper() == "HTTP/1.1"

        async def send(event: dict) -> None:
            if event["type"] == "http.response.start":
                self._log_access(writer, requestline, event["status"])
                if not body_consumed:
                    # Refused before the body was read: the connection must
                    # close (the unread bytes cannot be skipped), so say so
                    # — clients then reconnect instead of reusing a dead
                    # socket.
                    headers = list(event.get("headers") or [])
                    headers.append(("Connection", "close"))
                    event = {**event, "headers": headers}
            await self._send_event(state, event)

        self._active_requests += 1
        try:
            await self.app(scope, receive, send)
            if not state.finished and state.started and state.chunked:
                # App ended a stream without the explicit final event.
                writer.write(b"0\r\n\r\n")
                await writer.drain()
                state.finished = True
            if not state.started:
                await self._transport_error(
                    writer, 500, "internal", "application produced no response",
                    requestline,
                )
                return False
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if not state.started:
                await self._transport_error(
                    writer, 500, "internal", f"{type(exc).__name__}: {exc}",
                    requestline,
                )
            return False
        finally:
            self._active_requests -= 1

        if (
            state.close_after
            or state.chunked
            or client_wants_close
            or not http11
            or not body_consumed
        ):
            return False
        return True

    # -- send side -----------------------------------------------------------

    async def _send_event(self, state: _ConnectionState, event: dict) -> None:
        writer = state.writer
        if event["type"] == "http.response.start":
            status = event["status"]
            headers = list(event.get("headers") or [])
            names = {name.lower() for name, _ in headers}
            if "content-length" not in names:
                state.chunked = True
                headers.append(("Transfer-Encoding", "chunked"))
                headers.append(("Connection", "close"))
            if any(
                name.lower() == "connection" and value.lower() == "close"
                for name, value in headers
            ):
                state.close_after = True
            phrase = _status_phrases.get(status, "Unknown")
            head = [f"HTTP/1.1 {status} {phrase}"]
            head.extend(f"{name}: {value}" for name, value in headers)
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
            state.started = True
            await writer.drain()
            return
        if event["type"] == "http.response.body":
            body = event.get("body", b"")
            more = bool(event.get("more_body", False))
            if state.chunked:
                if body:
                    writer.write(b"%x\r\n" % len(body) + body + b"\r\n")
                if not more:
                    writer.write(b"0\r\n\r\n")
                    state.finished = True
            else:
                if body:
                    writer.write(body)
                if not more:
                    state.finished = True
            await writer.drain()
            return
        raise ValueError(f"unknown send event {event['type']!r}")

    def _log_access(self, writer, requestline: str, status: int) -> None:
        """One :mod:`http.server`-format access line on stderr."""
        if not self.access_log:
            return
        peer = writer.get_extra_info("peername")
        host = peer[0] if peer else "-"
        when = time.strftime("%d/%b/%Y %H:%M:%S")
        sys.stderr.write(f'{host} - - [{when}] "{requestline}" {status} -\n')

    async def _transport_error(
        self, writer, status: int, code: str, message: str, requestline: str = "-"
    ) -> None:
        """A parse-level refusal, enveloped like every other error."""
        self._log_access(writer, requestline, status)
        body = json.dumps({"error": {"code": code, "message": message}}).encode()
        phrase = _status_phrases.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {phrase}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass


class _BadRequest(Exception):
    """The request head could not be parsed."""


def serve_fleet(
    service: AlignmentService,
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    quotas: TenantQuotas | None = None,
    max_align_body: int | None = None,
    grace_s: float = 5.0,
    install_signal_handlers: bool = True,
    on_ready=None,
    on_drain=None,
    access_log: bool = False,
) -> None:
    """Run the front door until SIGTERM/SIGINT drains it (blocking).

    Builds the :class:`~repro.fleet.asgi.FleetApp` over ``service``,
    binds, reports the bound address through ``on_ready(host, port)``,
    then serves until :meth:`FleetHTTPServer.initiate_shutdown` — wired
    to SIGTERM/SIGINT when ``install_signal_handlers``, after calling
    ``on_drain()`` — completes the drain.  The service itself is *not*
    shut down here; the caller owns its lifecycle (the CLI drains it
    after this returns).
    """

    async def _amain() -> None:
        draining = threading.Event()
        app = FleetApp(
            service,
            draining=draining,
            quotas=quotas,
            max_align_body=max_align_body,
        )
        server = FleetHTTPServer(
            app, host, port,
            draining=draining, grace_s=grace_s, access_log=access_log,
        )
        await server.start()

        def on_signal() -> None:
            if on_drain is not None:
                on_drain()
            server.initiate_shutdown()

        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, on_signal)
                except (NotImplementedError, RuntimeError):
                    pass
        if on_ready is not None:
            on_ready(*server.address)
        await server.serve_forever()

    asyncio.run(_amain())
