"""Tests of the repro.api v1 facade: local entry points and HTTP client."""

import numpy as np
import pytest

from repro import api
from repro.core.options import FASTZ_FULL, FastzOptions
from repro.core.pipeline import run_fastz
from repro.genome import SegmentClass, build_pair
from repro.lastz.config import LastzConfig
from repro.scoring import default_scheme
from repro.service import AlignmentService

from .conftest import Door

CONFIG = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))


def _pair(seed=31, length=10_000):
    return build_pair(
        f"api{seed}",
        target_length=length,
        query_length=length,
        classes=[SegmentClass("s", 5, 80, 250, divergence=0.05)],
        rng=seed,
    )


class TestResolveOptions:
    def test_none_is_full_pipeline(self):
        assert api.resolve_options(None) is FASTZ_FULL

    def test_instance_passthrough(self):
        options = FastzOptions(engine="batched")
        assert api.resolve_options(options) is options

    def test_mapping_validated(self):
        assert api.resolve_options({"engine": "batched"}).engine == "batched"
        with pytest.raises(ValueError, match="unknown"):
            api.resolve_options({"engin": "batched"})


class TestAlign:
    def test_matches_run_fastz(self):
        pair = _pair()
        facade = api.align(pair.target, pair.query, CONFIG)
        direct = run_fastz(pair.target, pair.query, CONFIG, FASTZ_FULL)
        assert facade.alignments == direct.alignments

    def test_mapping_options(self):
        pair = _pair()
        scalar = api.align(pair.target, pair.query, CONFIG)
        batched = api.align(
            pair.target, pair.query, CONFIG, {"engine": "batched"}
        )
        assert batched.alignments == scalar.alignments

    def test_streaming_matches_barrier(self):
        pair = _pair(seed=53)
        barrier = api.align(pair.target, pair.query, CONFIG)
        partials = []
        streamed = api.align(
            pair.target,
            pair.query,
            CONFIG,
            {"batch_size": 8},
            on_partial=partials.append,
        )
        assert streamed.alignments == barrier.alignments
        assert len(partials) >= 1
        assert partials[-1].done_anchors == len(streamed.tasks)

    def test_align_chunked_temp_job_dir(self):
        pair = _pair(seed=37, length=20_000)
        report = api.align_chunked(
            pair.target,
            pair.query,
            CONFIG,
            {"engine": "scalar"},
            log=lambda _msg: None,
        )
        direct = api.align(pair.target, pair.query, CONFIG)
        assert report.complete
        assert {a.cigar() for a in report.alignments} == {
            a.cigar() for a in direct.unique_alignments()
        }


class TestParseRetryAfter:
    """RFC 9110 Retry-After: delta-seconds and HTTP-date, never an error."""

    def test_delta_seconds(self):
        assert api._parse_retry_after("120") == 120.0
        assert api._parse_retry_after("0") == 0.0
        assert api._parse_retry_after(" 2.5 ") == 2.5

    def test_negative_delta_clamped(self):
        assert api._parse_retry_after("-30") == 0.0

    def test_http_date_in_future(self):
        from datetime import datetime, timedelta, timezone
        from email.utils import format_datetime

        when = datetime.now(timezone.utc) + timedelta(seconds=90)
        parsed = api._parse_retry_after(format_datetime(when, usegmt=True))
        assert parsed is not None
        assert 80.0 <= parsed <= 91.0

    def test_http_date_in_past_clamped_to_zero(self):
        assert (
            api._parse_retry_after("Sun, 06 Nov 1994 08:49:37 GMT") == 0.0
        )

    def test_naive_date_treated_as_utc(self):
        from datetime import datetime, timedelta, timezone

        when = datetime.now(timezone.utc) + timedelta(seconds=60)
        # asctime form carries no zone; RFC 9110 says it is GMT.
        parsed = api._parse_retry_after(when.strftime("%a %b %d %H:%M:%S %Y"))
        assert parsed is not None
        assert 50.0 <= parsed <= 61.0

    @pytest.mark.parametrize(
        "value", [None, "", "soon", "Banday, 99 Foo 12345", "1e", "inf days"]
    )
    def test_garbage_yields_none(self, value):
        assert api._parse_retry_after(value) is None


@pytest.fixture(scope="module")
def endpoint():
    service = AlignmentService(max_wait_ms=1.0, config=CONFIG)
    door = Door(service)
    yield door.url
    door.stop()
    service.shutdown(timeout=60)


class TestClient:
    def test_healthz(self, endpoint):
        assert api.Client(endpoint).healthz() == {"status": "ok"}

    def test_align_accepts_str_sequence_and_codes(self, endpoint):
        client = api.Client(endpoint)
        pair = _pair(seed=41)
        by_seq = client.align(pair.target, pair.query, timeout_s=300)
        by_str = client.align(
            pair.target.text(), pair.query.text(), timeout_s=300
        )
        by_codes = client.align(pair.target.codes, pair.query.codes, timeout_s=300)
        assert by_seq == by_str == by_codes
        assert by_seq["count"] >= 1

    def test_align_with_options(self, endpoint):
        client = api.Client(endpoint)
        pair = _pair(seed=43)
        base = client.align(pair.target, pair.query, timeout_s=300)
        mapped = client.align(
            pair.target,
            pair.query,
            options={"engine": "batched"},
            timeout_s=300,
        )
        typed = client.align(
            pair.target,
            pair.query,
            options=FastzOptions(engine="batched"),
            timeout_s=300,
        )
        assert mapped["alignments"] == base["alignments"]
        assert typed["alignments"] == base["alignments"]

    def test_align_stream_matches_align(self, endpoint):
        client = api.Client(endpoint)
        pair = _pair(seed=47)
        barrier = client.align(pair.target, pair.query, timeout_s=300)
        records = list(client.align_stream(pair.target, pair.query))
        assert records, "stream yielded nothing"
        partials = [r for r in records if r["type"] == "partial"]
        summary = records[-1]
        assert summary["type"] == "summary"
        assert len(partials) >= 1
        # The terminal summary is exactly the barrier endpoint's payload.
        assert {k: v for k, v in summary.items() if k != "type"} == barrier
        streamed_rows = [a for p in partials for a in p["alignments"]]
        assert sorted(map(repr, streamed_rows)) == sorted(
            map(repr, barrier["alignments"])
        )

    def test_stats_and_metrics(self, endpoint):
        client = api.Client(endpoint)
        stats = client.stats()
        assert stats["submitted"] >= 1
        assert "repro_service_events_total" in client.metrics()

    def test_error_envelope_raises_api_error(self, endpoint):
        client = api.Client(endpoint)
        with pytest.raises(api.ApiError) as excinfo:
            client.align("ACGT", "NOT DNA!", timeout_s=30)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

        with pytest.raises(api.ApiError) as excinfo:
            client.align("ACGT", "ACGT", options={"bogus": 1}, timeout_s=30)
        assert excinfo.value.code == "bad_request"
        assert "bogus" in str(excinfo.value)
