"""End-to-end tests of the versioned JSON/HTTP /v1 contract (stdlib client)."""

import http.client
import json
import urllib.error
import urllib.request
import urllib.parse

import pytest

from repro.core import FastzOptions
from repro.fleet.asgi import API_PREFIX, LEGACY_PATHS
from repro.genome import SegmentClass, build_pair
from repro.lastz.config import LastzConfig
from repro.scoring import default_scheme
from repro.service import AlignmentService

from ..conftest import Door

CONFIG = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))


@pytest.fixture(scope="module")
def endpoint():
    service = AlignmentService(max_wait_ms=1.0, config=CONFIG)
    door = Door(service)
    yield door.url, service
    door.stop()
    service.shutdown(timeout=60)


def _post(url, payload, timeout=300):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(
        f"{url}/v1/align", data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(url, path, timeout=30):
    with urllib.request.urlopen(f"{url}{path}", timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get_text(url, path, timeout=30):
    with urllib.request.urlopen(f"{url}{path}", timeout=timeout) as response:
        return response.status, response.read().decode()


def _error_body(excinfo) -> dict:
    """Parse the error envelope from a raised HTTPError."""
    body = json.loads(excinfo.value.read())
    assert set(body) == {"error"}
    assert set(body["error"]) == {"code", "message"}
    return body["error"]


class TestRoutes:
    def test_healthz(self, endpoint):
        url, _ = endpoint
        status, payload = _get(url, "/v1/healthz")
        assert status == 200 and payload == {"status": "ok"}

    def test_align_roundtrip(self, endpoint):
        url, _ = endpoint
        pair = build_pair(
            "http",
            target_length=12_000,
            query_length=12_000,
            classes=[SegmentClass("s", 6, 80, 250, divergence=0.05)],
            rng=11,
        )
        status, payload = _post(
            url, {"target": pair.target.text(), "query": pair.query.text()}
        )
        assert status == 200
        assert payload["count"] >= 1
        first = payload["alignments"][0]
        assert first["score"] >= CONFIG.scheme.gapped_threshold
        assert first["target_end"] > first["target_start"]
        assert first["cigar"]

    def test_align_with_options_body(self, endpoint):
        url, _ = endpoint
        pair = build_pair(
            "http-opts",
            target_length=12_000,
            query_length=12_000,
            classes=[SegmentClass("s", 6, 80, 250, divergence=0.05)],
            rng=12,
        )
        body = {"target": pair.target.text(), "query": pair.query.text()}
        _, default_payload = _post(url, body)
        _, batched_payload = _post(
            url, {**body, "options": {"engine": "batched", "batch_size": 64}}
        )
        # Engines are bit-identical; the option override must not 400.
        assert batched_payload["alignments"] == default_payload["alignments"]

    def test_stats_endpoint(self, endpoint):
        url, _ = endpoint
        status, payload = _get(url, "/v1/stats")
        assert status == 200
        assert payload["submitted"] >= 1
        assert "cache" in payload
        assert "shed" in payload
        # In-process backend: no pool section.
        assert payload["pool"] is None

    def test_metrics_endpoint_agrees_with_stats(self, endpoint):
        url, _ = endpoint
        _, stats = _get(url, "/v1/stats")
        status, text = _get_text(url, "/v1/metrics")
        assert status == 200
        assert "# TYPE repro_service_events_total counter" in text
        # Both endpoints read the same registry, so the counts agree.
        assert (
            f'repro_service_events_total{{kind="submitted"}} {stats["submitted"]}'
            in text
        )
        if stats["completed"]:
            assert (
                f'repro_service_events_total{{kind="completed"}} {stats["completed"]}'
                in text
            )
        assert "repro_service_request_latency_seconds_bucket" in text
        assert "repro_service_queue_depth" in text
        assert 'repro_service_cache{field="hits"}' in text

    def test_unknown_path_404(self, endpoint):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url, "/v1/nope")
        assert excinfo.value.code == 404
        assert _error_body(excinfo)["code"] == "not_found"


class TestLegacyRedirects:
    def test_get_paths_redirect_307_with_deprecation(self, endpoint):
        # urllib auto-follows GET redirects, so talk raw HTTP to see them.
        url, _ = endpoint
        parsed = urllib.parse.urlparse(url)
        for path in LEGACY_PATHS:
            conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                assert response.status == 307, path
                assert response.getheader("Location") == API_PREFIX + path
                assert response.getheader("Deprecation") == "true"
            finally:
                conn.close()

    def test_legacy_get_followed_still_works(self, endpoint):
        # End-to-end: a legacy client that follows redirects keeps working.
        url, _ = endpoint
        status, payload = _get(url, "/healthz")
        assert status == 200 and payload == {"status": "ok"}

    def test_legacy_post_align_redirects_307(self, endpoint):
        # urllib refuses to follow POST 307s, surfacing the redirect —
        # exactly what we assert on (307 preserves method + body).
        url, _ = endpoint
        data = json.dumps({"target": "ACGT", "query": "ACGT"}).encode()
        request = urllib.request.Request(
            f"{url}/align", data=data, headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 307
        assert excinfo.value.headers["Location"] == "/v1/align"
        assert excinfo.value.headers["Deprecation"] == "true"


class TestStreaming:
    def _stream(self, url, payload, query="stream=1", timeout=300):
        data = json.dumps(payload).encode()
        request = urllib.request.Request(
            f"{url}/v1/align?{query}",
            data=data,
            headers={"Content-Type": "application/json"},
        )
        response = urllib.request.urlopen(request, timeout=timeout)
        return response

    def test_ndjson_partials_then_summary_matches_barrier(self, endpoint):
        url, _ = endpoint
        pair = build_pair(
            "http-stream",
            target_length=12_000,
            query_length=12_000,
            classes=[SegmentClass("s", 6, 80, 250, divergence=0.05)],
            rng=13,
        )
        body = {"target": pair.target.text(), "query": pair.query.text()}
        _, barrier = _post(url, body)

        with self._stream(url, body) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            records = [json.loads(line) for line in response if line.strip()]

        assert [r["type"] for r in records[:-1]] == ["partial"] * (
            len(records) - 1
        )
        assert len(records) >= 2  # at least one partial before the summary
        summary = records[-1]
        assert summary["type"] == "summary"
        # The terminal summary is byte-for-byte the barrier endpoint's body.
        assert {k: v for k, v in summary.items() if k != "type"} == barrier
        # Union of partial alignments == the summary's alignment set.
        streamed = [a for r in records[:-1] for a in r["alignments"]]
        assert sorted(map(repr, streamed)) == sorted(
            map(repr, barrier["alignments"])
        )
        for r in records[:-1]:
            assert r["seq"] >= 0
            assert r["done_anchors"] >= r["anchors"] >= 1

    def test_stream_zero_is_the_barrier_endpoint(self, endpoint):
        url, _ = endpoint
        body = {"target": "ACGT" * 600, "query": "ACGT" * 600}
        with self._stream(url, body, query="stream=0") as response:
            payload = json.loads(response.read())
        assert "alignments" in payload and "type" not in payload

    def test_timeout_s_rejected_with_stream(self, endpoint):
        url, _ = endpoint
        body = {"target": "ACGT", "query": "ACGT", "timeout_s": 5}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._stream(url, body)
        assert excinfo.value.code == 400
        assert "timeout_s" in _error_body(excinfo)["message"]

    def test_unknown_reference_streams_an_error_status(self, endpoint):
        url, _ = endpoint
        body = {"target_ref": "0" * 64, "query": "ACGT"}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._stream(url, body)
        # No store configured: the ref is a 400 before the stream starts.
        assert excinfo.value.code in (400, 404)


class TestGracefulDrain:
    @pytest.fixture()
    def drain_endpoint(self):
        # batch_size 8 streams slices of 4 anchors: many partials.
        service = AlignmentService(
            max_wait_ms=1.0,
            config=CONFIG,
            options=FastzOptions(engine="batched", batch_size=8),
        )
        door = Door(service, grace_s=30.0)
        yield door.url, door.server, door.thread
        door.stop()
        service.shutdown(timeout=60)

    def test_mid_stream_drain_sends_terminal_error(self, drain_endpoint):
        """A drain mid-stream ends the NDJSON cleanly, never corrupts it.

        Every line the client sees — before and after the shed — parses
        as a standalone JSON record, the last one is the terminal error
        record, and the chunked framing ends cleanly (EOF after the
        0-chunk, no truncation mid-line).
        """
        url, server, thread = drain_endpoint
        pair = build_pair(
            "http-drain",
            target_length=30_000,
            query_length=30_000,
            classes=[SegmentClass("s", 12, 80, 250, divergence=0.05)],
            rng=17,
        )
        data = json.dumps(
            {"target": pair.target.text(), "query": pair.query.text()}
        ).encode()
        request = urllib.request.Request(
            f"{url}/v1/align?stream=1",
            data=data,
            headers={"Content-Type": "application/json"},
        )
        records = []
        probes = {}
        with urllib.request.urlopen(request, timeout=300) as response:
            for line in response:
                if not line.strip():
                    continue
                assert line.endswith(b"\n"), "record truncated mid-line"
                records.append(json.loads(line))
                if len(records) == 1:
                    # First partial arrived: begin the graceful drain.
                    # The open stream keeps the accept loop alive, so the
                    # probes below exercise the mid-drain server state.
                    server.initiate_shutdown()
                    probes["healthz"] = _get(url, "/v1/healthz")[1]
                    try:
                        req = urllib.request.Request(
                            f"{url}/v1/align",
                            data=json.dumps(
                                {"target": "ACGT", "query": "ACGT"}
                            ).encode(),
                            headers={"Content-Type": "application/json"},
                        )
                        urllib.request.urlopen(req, timeout=30)
                        probes["align"] = None
                    except urllib.error.HTTPError as exc:
                        probes["align"] = (exc.code, json.loads(exc.read()))
            # The chunked stream ended cleanly: EOF, not an exception.
            assert response.read() == b""

        assert records[0]["type"] == "partial"
        assert records[-1]["type"] == "error"
        assert records[-1]["error"]["code"] == "shutting_down"

        # Mid-drain, the health probe reports the state change...
        assert probes["healthz"] == {"status": "draining"}
        # ...and a new request gets an immediate 503, not a hang.
        assert probes["align"] is not None
        status, body = probes["align"]
        assert status == 503
        assert body["error"]["code"] == "shutting_down"

        # With its streams gone, the server stops within the grace window.
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestBadRequests:
    def test_invalid_json_400(self, endpoint):
        url, _ = endpoint
        for content_type in ("text/plain", "application/json"):
            request = urllib.request.Request(
                f"{url}/v1/align",
                data=b"not json",
                headers={"Content-Type": content_type},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            assert _error_body(excinfo)["code"] == "bad_request"

    def test_missing_fields_400(self, endpoint):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"target": "ACGT"})
        assert excinfo.value.code == 400

    def test_bad_timeout_type_400(self, endpoint):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"target": "ACGT", "query": "ACGT", "timeout_s": "soon"})
        assert excinfo.value.code == 400

    def test_boolean_timeout_400(self, endpoint):
        # bool passes isinstance(x, int); it must still be rejected rather
        # than silently interpreted as a 1-second (or 0-second) deadline.
        url, _ = endpoint
        for value in (True, False):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(url, {"target": "ACGT", "query": "ACGT", "timeout_s": value})
            assert excinfo.value.code == 400

    def test_unknown_option_key_400(self, endpoint):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                url,
                {
                    "target": "ACGT",
                    "query": "ACGT",
                    "options": {"enginee": "batched"},
                },
            )
        assert excinfo.value.code == 400
        error = _error_body(excinfo)
        assert error["code"] == "bad_request"
        assert "enginee" in error["message"]

    def test_bad_option_value_400(self, endpoint):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                url,
                {"target": "ACGT", "query": "ACGT", "options": {"engine": "quantum"}},
            )
        assert excinfo.value.code == 400

    def test_non_mapping_options_400(self, endpoint):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"target": "ACGT", "query": "ACGT", "options": [1, 2]})
        assert excinfo.value.code == 400

    def test_non_dna_sequence_400(self, endpoint):
        # The encoding LUT maps junk to N, so without strict validation
        # this body was accepted (aligned as all-N) instead of rejected.
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"target": "ACGT123!", "query": "ACGT"})
        assert excinfo.value.code == 400
        assert "target" in _error_body(excinfo)["message"]

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"target": "ACGT", "query": "ACGU"})
        assert excinfo.value.code == 400
        assert "query" in _error_body(excinfo)["message"]

    def test_non_ascii_sequence_400(self, endpoint):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"target": "ACGTé", "query": "ACGT"})
        assert excinfo.value.code == 400

    def test_empty_body_400(self, endpoint):
        url, _ = endpoint
        request = urllib.request.Request(f"{url}/v1/align", data=b"")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert _error_body(excinfo)["code"] == "bad_request"
