"""Front-door tests over a multi-backend fleet: framing, tenancy, admission.

The fixture boots the real :class:`FleetHTTPServer` (asyncio, one event
loop) over a service with two backend lanes, in a daemon thread;
requests go through raw :mod:`http.client` sockets or
:class:`repro.api.Client`, so keep-alive framing, chunked streams and
error envelopes are exercised exactly as a network client sees them.
The transport-independent ``/v1`` contract lives in
``tests/service/test_http.py``.
"""

import asyncio
import http.client
import json

import pytest

from repro.api import ApiError, Client
from repro.core import FastzOptions
from repro.fleet import InProcessBackend, SimGpuBackend, TenantQuotas
from repro.genome import SegmentClass, build_pair
from repro.lastz.config import LastzConfig
from repro.scoring import default_scheme
from repro.service import AlignmentService

from ..conftest import Door

CONFIG = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))


@pytest.fixture(scope="module")
def pair():
    p = build_pair(
        "door0",
        target_length=6_000,
        query_length=6_000,
        classes=[SegmentClass("s", 3, 80, 250, divergence=0.05)],
        rng=7,
    )
    return p.target.text(), p.query.text()


@pytest.fixture(scope="module")
def door():
    service = AlignmentService(
        max_wait_ms=1.0,
        config=CONFIG,
        fleet=[InProcessBackend("cpu0"), SimGpuBackend("gpu0")],
    )
    d = Door(service)
    yield d
    d.stop()
    service.shutdown(timeout=60)


def _request(door, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(door.host, door.port, timeout=300)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, dict(resp.getheaders()), raw
    finally:
        conn.close()


class TestRoutes:
    def test_healthz(self, door):
        status, _, raw = _request(door, "GET", "/v1/healthz")
        assert status == 200
        assert json.loads(raw) == {"status": "ok"}

    def test_head_healthz(self, door):
        status, headers, raw = _request(door, "HEAD", "/v1/healthz")
        assert status == 200
        assert raw == b""

    def test_stats_has_fleet_section(self, door):
        status, _, raw = _request(door, "GET", "/v1/stats")
        payload = json.loads(raw)
        assert status == 200
        names = {b["name"] for b in payload["fleet"]["backends"]}
        assert names == {"cpu0", "gpu0"}

    def test_metrics_exposes_fleet_families(self, door):
        status, headers, raw = _request(door, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        assert "repro_fleet_redispatched_total" in text
        assert "repro_service_queue_depth" in text

    def test_unknown_path_enveloped_404(self, door):
        status, _, raw = _request(door, "GET", "/v1/nope")
        assert status == 404
        assert json.loads(raw)["error"]["code"] == "not_found"

    def test_method_not_allowed(self, door):
        status, _, raw = _request(door, "DELETE", "/v1/align")
        assert status == 405
        assert json.loads(raw)["error"]["code"] == "bad_request"

    def test_legacy_path_redirects(self, door):
        status, headers, _ = _request(door, "GET", "/healthz")
        assert status == 307
        assert headers["Location"] == "/v1/healthz"
        assert headers["Deprecation"] == "true"

    def test_references_400_without_store(self, door):
        status, _, raw = _request(door, "GET", "/v1/references")
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "bad_request"


class TestAlignContract:
    def test_stream_summary_equals_barrier_payload(self, door, pair):
        target, query = pair
        body = {"target": target, "query": query}
        _, _, barrier_raw = _request(
            door, "POST", "/v1/align", body,
            headers={"Content-Type": "application/json"},
        )
        status, headers, raw = _request(
            door, "POST", "/v1/align?stream=1", body,
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        records = [json.loads(line) for line in raw.splitlines() if line.strip()]
        assert records, "stream produced no records"
        assert all(r["type"] == "partial" for r in records[:-1])
        summary = records[-1]
        assert summary.pop("type") == "summary"
        assert summary == json.loads(barrier_raw)

    def test_invalid_json_400(self, door):
        conn = http.client.HTTPConnection(door.host, door.port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/align", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.loads(resp.read())["error"]["code"] == "bad_request"
        finally:
            conn.close()

    def test_empty_body_400(self, door):
        status, _, raw = _request(
            door, "POST", "/v1/align", headers={"Content-Type": "application/json"}
        )
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "bad_request"

    def test_oversize_body_413_closes_connection(self, pair):
        service = AlignmentService(max_wait_ms=1.0, config=CONFIG)
        d = Door(service, max_align_body=64)
        try:
            status, headers, raw = _request(
                d, "POST", "/v1/align", {"target": "A" * 200, "query": "ACGT"},
                headers={"Content-Type": "application/json"},
            )
            assert status == 413
            assert json.loads(raw)["error"]["code"] == "payload_too_large"
            # Refused before the body was read: the server must advertise
            # the close so clients reconnect instead of reusing the socket.
            assert headers.get("Connection") == "close"
        finally:
            d.stop()
            service.shutdown(timeout=60)

    def test_keep_alive_reuses_one_socket(self, door, pair):
        target, query = pair
        conn = http.client.HTTPConnection(door.host, door.port, timeout=300)
        try:
            sock_ids = []
            for _ in range(3):
                conn.request(
                    "POST", "/v1/align",
                    body=json.dumps({"target": target, "query": query}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
                assert not resp.will_close
                sock_ids.append(id(conn.sock))
            assert len(set(sock_ids)) == 1, "connection was not reused"
        finally:
            conn.close()

    def test_api_client_end_to_end(self, door, pair):
        target, query = pair
        with Client(door.url) as client:
            barrier = client.align(target, query)
            records = list(client.align_stream(target, query))
            assert records[-1]["type"] == "summary"
            summary = dict(records[-1])
            summary.pop("type")
            assert summary == barrier
            # The persistent connection survives the (closed) stream.
            assert client.align(target, query) == barrier


class TestAdmission:
    def test_unknown_priority_400(self, door, pair):
        target, query = pair
        status, _, raw = _request(
            door, "POST", "/v1/align", {"target": target, "query": query},
            headers={"Content-Type": "application/json", "X-Priority": "urgent"},
        )
        assert status == 400
        assert "X-Priority" in json.loads(raw)["error"]["message"]

    def test_priority_classes_accepted(self, door, pair):
        target, query = pair
        for name in ("interactive", "batch", "Batch"):
            status, _, raw = _request(
                door, "POST", "/v1/align", {"target": target, "query": query},
                headers={"Content-Type": "application/json", "X-Priority": name},
            )
            assert status == 200, raw

    def test_bad_deadline_400(self, door, pair):
        target, query = pair
        for bad in ("soon", "-5"):
            status, _, raw = _request(
                door, "POST", "/v1/align", {"target": target, "query": query},
                headers={"Content-Type": "application/json", "X-Deadline-Ms": bad},
            )
            assert status == 400
            assert "X-Deadline-Ms" in json.loads(raw)["error"]["message"]

    def test_hopeless_deadline_refused_504(self, door, pair):
        target, query = pair
        fleet = door.service.fleet
        original = fleet.estimated_wait_s
        # A saturated fleet: the model predicts minutes of backlog.
        fleet.estimated_wait_s = lambda weight=0.0: 120.0
        try:
            status, _, raw = _request(
                door, "POST", "/v1/align", {"target": target, "query": query},
                headers={"Content-Type": "application/json", "X-Deadline-Ms": "50"},
            )
        finally:
            fleet.estimated_wait_s = original
        assert status == 504
        assert json.loads(raw)["error"]["code"] == "deadline_exceeded"

    def test_feasible_deadline_admitted(self, door, pair):
        target, query = pair
        status, _, raw = _request(
            door, "POST", "/v1/align", {"target": target, "query": query},
            headers={"Content-Type": "application/json", "X-Deadline-Ms": "600000"},
        )
        assert status == 200, raw


class TestQuotas:
    @pytest.fixture()
    def metered(self):
        service = AlignmentService(max_wait_ms=1.0, config=CONFIG)
        d = Door(service, quotas=TenantQuotas(default=(0.5, 2)))
        yield d
        d.stop()
        service.shutdown(timeout=60)

    def test_burst_then_429_with_retry_after(self, metered, pair):
        target, query = pair
        body = {"target": target, "query": query}
        headers = {"Content-Type": "application/json", "X-API-Key": "alice"}
        for _ in range(2):
            status, _, _raw = _request(metered, "POST", "/v1/align", body, headers)
            assert status == 200
        status, resp_headers, raw = _request(
            metered, "POST", "/v1/align", body, headers
        )
        assert status == 429
        envelope = json.loads(raw)["error"]
        assert envelope["code"] == "quota_exceeded"
        assert "alice" in envelope["message"]
        assert int(resp_headers["Retry-After"]) >= 1

    def test_tenants_are_isolated(self, metered, pair):
        target, query = pair
        body = {"target": target, "query": query}
        for key in ("carol", "dave"):
            status, _, _raw = _request(
                metered, "POST", "/v1/align", body,
                {"Content-Type": "application/json", "X-API-Key": key},
            )
            assert status == 200

    def test_api_client_surfaces_retry_after(self, metered, pair):
        target, query = pair
        with Client(metered.url, api_key="eve") as client:
            client.align(target, query)
            client.align(target, query)
            with pytest.raises(ApiError) as excinfo:
                client.align(target, query)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s >= 1


class TestDrain:
    def test_shed_during_stream_keeps_ndjson_wellformed(self, pair):
        """A drain mid-stream must not corrupt the NDJSON.

        Every line the client ever sees — before and after the shed —
        must parse as a standalone JSON record, and the last one must be
        the terminal error record; the chunked framing must end cleanly
        (EOF after the 0-chunk, no truncation mid-line).
        """
        p = build_pair(
            "door-drain",
            target_length=30_000,
            query_length=30_000,
            classes=[SegmentClass("s", 12, 80, 250, divergence=0.05)],
            rng=17,
        )
        # batch_size 8 streams slices of 4 anchors: many partials.
        service = AlignmentService(
            max_wait_ms=1.0,
            config=CONFIG,
            options=FastzOptions(engine="batched", batch_size=8),
        )
        d = Door(service)
        probes = {}
        try:
            conn = http.client.HTTPConnection(d.host, d.port, timeout=300)
            conn.request(
                "POST", "/v1/align?stream=1",
                body=json.dumps(
                    {"target": p.target.text(), "query": p.query.text()}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 200
            records = []
            for line in resp:
                if not line.strip():
                    continue
                assert line.endswith(b"\n"), "record truncated mid-line"
                records.append(json.loads(line))
                if len(records) == 1:
                    # First partial arrived: begin the graceful drain and
                    # probe the mid-drain server state over a second socket.
                    d.server.initiate_shutdown()
                    probes["healthz"] = json.loads(
                        _request(d, "GET", "/v1/healthz")[2]
                    )
                    status, _, raw = _request(
                        d, "POST", "/v1/align",
                        {"target": "ACGT", "query": "ACGT"},
                        {"Content-Type": "application/json"},
                    )
                    probes["align"] = (status, json.loads(raw))
            # Chunked stream ended cleanly: EOF, not an exception.
            assert resp.read() == b""
            conn.close()
        finally:
            d.thread.join(timeout=30)
            service.shutdown(timeout=60)

        assert records[0]["type"] == "partial"
        assert records[-1]["type"] == "error"
        assert records[-1]["error"]["code"] == "shutting_down"
        assert probes["healthz"] == {"status": "draining"}
        status, envelope = probes["align"]
        assert status == 503
        assert envelope["error"]["code"] == "shutting_down"
        assert not d.thread.is_alive()

    def test_sigterm_style_drain_completes_inflight(self, pair):
        target, query = pair
        service = AlignmentService(max_wait_ms=1.0, config=CONFIG)
        d = Door(service)
        try:
            status, _, raw = _request(
                d, "POST", "/v1/align", {"target": target, "query": query},
                headers={"Content-Type": "application/json"},
            )
            assert status == 200
        finally:
            d.stop()
            service.shutdown(timeout=60)
        assert not d.thread.is_alive()


def _mixed_bodies(n):
    """``n`` distinct /v1/align bodies over mixed lengths (2-3.75 kb)."""
    bodies = []
    for i in range(n):
        length = 2_000 + (i % 8) * 250
        p = build_pair(
            f"fleetbench{i}",
            target_length=length,
            query_length=length,
            classes=[SegmentClass("s", 2, 60, 200, divergence=0.05)],
            rng=7_000 + i,
        )
        bodies.append(
            json.dumps({"target": p.target.text(), "query": p.query.text()}).encode()
        )
    return bodies


async def _post_at_once(door, bodies):
    """POST every body on its own connection, all in flight together.

    One event loop drives every connection, so the client side needs no
    thread per connection.  Returns ``(status, body)`` per request; a
    connection that stalls fails the batch after 300 s instead of hanging.
    """

    async def post(body):
        reader, writer = await asyncio.open_connection(door.host, door.port)
        try:
            writer.write(
                b"POST /v1/align HTTP/1.1\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                % (len(body), body)
            )
            await writer.drain()
            head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
            status_line, *header_lines = head.split("\r\n")
            headers = dict(
                line.lower().split(": ", 1) for line in header_lines if line
            )
            raw = await reader.readexactly(int(headers["content-length"]))
            return int(status_line.split()[1]), raw
        finally:
            writer.close()
            await writer.wait_closed()

    return await asyncio.wait_for(
        asyncio.gather(*(post(body) for body in bodies)), timeout=300
    )


class TestConnectionScaling:
    def test_256_connections_over_a_mixed_fleet_match_a_single_lane(self):
        """256 concurrent connections to cpu0 + two simulated GPUs all get
        200, and every probe's body is byte-identical to the same request
        sent alone to a single-lane door."""
        bodies = _mixed_bodies(256)
        probes = 8
        service = AlignmentService(
            cache_entries=0,
            config=CONFIG,
            fleet=[
                InProcessBackend("cpu0"),
                SimGpuBackend("gpu0"),
                SimGpuBackend("gpu1"),
            ],
        )
        d = Door(service)
        try:
            answers = asyncio.run(_post_at_once(d, bodies))
        finally:
            d.stop()
            service.shutdown(timeout=60)
        assert [status for status, _ in answers] == [200] * len(bodies)

        single = AlignmentService(cache_entries=0, config=CONFIG)
        d = Door(single)
        try:
            alone = [asyncio.run(_post_at_once(d, [b]))[0] for b in bodies[:probes]]
        finally:
            d.stop()
            single.shutdown(timeout=60)
        assert alone == answers[:probes]
