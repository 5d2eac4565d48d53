"""HTTP surface of the reference store: /v1/references, align-by-ref, 413."""

import json
import urllib.error
import urllib.request

import pytest

from repro.genome import SegmentClass, build_pair
from repro.lastz.config import LastzConfig
from repro.scoring import default_scheme
from repro.service import AlignmentService
from repro.store import ReferenceStore

from ..conftest import Door

CONFIG = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))


@pytest.fixture(scope="module")
def pair():
    return build_pair(
        "httpstore",
        target_length=12_000,
        query_length=12_000,
        classes=[SegmentClass("s", 6, 80, 250, divergence=0.05)],
        rng=11,
    )


@pytest.fixture(scope="module")
def endpoint(tmp_path_factory):
    store = ReferenceStore(tmp_path_factory.mktemp("httpstore"))
    service = AlignmentService(max_wait_ms=1.0, config=CONFIG, store=store)
    door = Door(service, max_align_body=64 * 1024)
    yield door.url, service
    door.stop()
    service.shutdown(timeout=60)


def _post(url, path, payload, timeout=300):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(
        f"{url}/v1{path}", data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _error(excinfo) -> dict:
    body = json.loads(excinfo.value.read())
    assert set(body) == {"error"}
    return body["error"]


class TestReferences:
    def test_register_then_list(self, endpoint, pair):
        url, _ = endpoint
        status, payload = _post(
            url, "/references",
            {"sequence": pair.target.text(), "name": "chrT"},
        )
        assert status == 200
        assert payload["registered"] is True
        assert payload["name"] == "chrT"
        assert payload["length"] == len(pair.target)
        digest = payload["digest"]

        # Idempotent re-register reports the existing entry.
        _, again = _post(url, "/references", {"sequence": pair.target.text()})
        assert again["digest"] == digest
        assert again["registered"] is False

        with urllib.request.urlopen(f"{url}/v1/references", timeout=30) as resp:
            listing = json.loads(resp.read())
        assert digest in {e["digest"] for e in listing["references"]}

    def test_align_by_ref_matches_by_bytes(self, endpoint, pair):
        url, _ = endpoint
        _, reg = _post(url, "/references", {"sequence": pair.target.text()})
        _, by_ref = _post(
            url, "/align",
            {"target_ref": reg["digest"], "query": pair.query.text()},
        )
        _, by_bytes = _post(
            url, "/align",
            {"target": pair.target.text(), "query": pair.query.text()},
        )
        assert by_ref["alignments"] == by_bytes["alignments"]
        assert by_ref["count"] == by_bytes["count"]

    def test_unknown_ref_404(self, endpoint, pair):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, "/align", {"target_ref": "0" * 64, "query": "ACGT" * 20})
        assert excinfo.value.code == 404
        assert _error(excinfo)["code"] == "not_found"

    def test_both_value_and_ref_400(self, endpoint, pair):
        url, _ = endpoint
        _, reg = _post(url, "/references", {"sequence": pair.target.text()})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                url, "/align",
                {
                    "target": pair.target.text(),
                    "target_ref": reg["digest"],
                    "query": pair.query.text(),
                },
            )
        assert excinfo.value.code == 400

    def test_missing_sequence_400(self, endpoint):
        url, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, "/references", {"name": "x"})
        assert excinfo.value.code == 400


class TestPayloadTooLarge:
    def test_oversize_align_413_points_at_references(self, endpoint):
        url, _ = endpoint
        big = "A" * (80 * 1024)  # past the 64 KiB test limit
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, "/align", {"target": big, "query": "ACGT" * 10})
        assert excinfo.value.code == 413
        error = _error(excinfo)
        assert error["code"] == "payload_too_large"
        assert "/v1/references" in error["message"]

    def test_register_not_bound_by_align_limit(self, endpoint):
        url, _ = endpoint
        big = "ACGT" * (32 * 1024)  # 128 KiB of sequence, over align limit
        status, payload = _post(url, "/references", {"sequence": big})
        assert status == 200
        assert payload["length"] == len(big)

    def test_under_limit_still_aligns(self, endpoint, pair):
        url, _ = endpoint
        status, _payload = _post(
            url, "/align",
            {"target": pair.target.text(), "query": pair.query.text()},
        )
        assert status == 200


class TestNoStore:
    def test_register_without_store_400(self):
        service = AlignmentService(max_wait_ms=1.0, config=CONFIG)
        door = Door(service)
        url = door.url
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(url, "/references", {"sequence": "ACGT" * 10})
            assert excinfo.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(url, "/align", {"target_ref": "0" * 64, "query": "ACGT"})
            assert excinfo.value.code == 400
        finally:
            door.stop()
            service.shutdown(timeout=60)
