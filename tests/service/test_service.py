"""Service-level tests: equivalence under concurrency, robustness, stats.

The load-bearing property is the first class: whatever micro-batch
composition the dispatcher happens to pick, every caller gets a result
bit-identical to running ``run_fastz`` alone on their request.
"""

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro import run_fastz
from repro.core.options import FastzOptions
from repro.genome import SegmentClass, build_pair
from repro.lastz.config import LastzConfig
from repro.scoring import default_scheme
from repro.seeding import Anchors
from repro.service import (
    AlignmentService,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.service import batcher as batcher_module

CONFIG = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))
OPTIONS = FastzOptions(engine="batched")

#: Target length marking the gate request for dispatcher-blocking tests.
_GATE_LEN = 101


def _pair(i: int, length: int):
    return build_pair(
        f"svc{i}",
        target_length=length,
        query_length=length,
        classes=[SegmentClass("s", 4, 60, 220, divergence=0.05)],
        rng=100 + i,
    )


@pytest.fixture
def gated_dispatcher(monkeypatch):
    """Block the dispatcher inside its first prepare until released.

    Submitting a target of length ``_GATE_LEN`` parks the dispatcher
    thread, letting tests fill the queue deterministically; ``release()``
    lets it continue.
    """
    gate = threading.Event()
    real_prepare = batcher_module.prepare_fastz

    def gated(target, query, *args, **kwargs):
        if len(target) == _GATE_LEN:
            gate.wait(timeout=30)
        return real_prepare(target, query, *args, **kwargs)

    monkeypatch.setattr(batcher_module, "prepare_fastz", gated)
    rng = np.random.default_rng(0)
    marker = rng.integers(0, 4, _GATE_LEN, dtype=np.uint8)
    return gate, marker


def _submit_gate(service, marker):
    """Enqueue the gate request and wait until the dispatcher holds it."""
    future = service.submit(marker, marker)
    deadline = time.monotonic() + 10
    while service.stats().queue_depth > 0:
        if time.monotonic() > deadline:  # pragma: no cover
            pytest.fail("dispatcher never picked up the gate request")
        time.sleep(0.005)
    return future


class TestEquivalence:
    def test_concurrent_results_bit_identical(self):
        """>= 8 in-flight requests over mixed lengths == sequential runs."""
        pairs = [_pair(i, 4_000 + 1_700 * i) for i in range(9)]
        with AlignmentService(
            max_batch=16, max_wait_ms=20.0, config=CONFIG, options=OPTIONS
        ) as service:
            futures = [service.submit(p.target, p.query) for p in pairs]
            results = [f.result(timeout=300) for f in futures]
            stats = service.stats()

        # The dispatcher really fused requests (not one-at-a-time).
        assert max(stats.batch_histogram) >= 2
        for pair, served in zip(pairs, results):
            direct = run_fastz(pair.target, pair.query, CONFIG, OPTIONS)
            assert served.alignments == direct.alignments
            assert served.tasks == direct.tasks
            assert served.executor_fallbacks == direct.executor_fallbacks
            assert np.array_equal(
                served.anchors.target_pos, direct.anchors.target_pos
            )

    def test_matches_scalar_engine_too(self):
        pair = _pair(50, 9_000)
        scalar = run_fastz(pair.target, pair.query, CONFIG, FastzOptions())
        with AlignmentService(config=CONFIG, options=OPTIONS) as service:
            served = service.align(pair.target, pair.query, timeout_s=300)
        assert served.alignments == scalar.alignments

    def test_explicit_anchors_respected(self):
        pair = _pair(51, 6_000)
        direct = run_fastz(pair.target, pair.query, CONFIG, OPTIONS)
        with AlignmentService(config=CONFIG, options=OPTIONS) as service:
            served = service.align(
                pair.target, pair.query, anchors=direct.anchors, timeout_s=300
            )
        assert served.alignments == direct.alignments


def _load_requests(n: int):
    """``n`` small requests over mixed lengths (2.5-8 kb)."""
    requests = []
    for i in range(n):
        length = 2_500 + (i % 12) * 500
        pair = build_pair(
            f"load{i}",
            target_length=length,
            query_length=length,
            classes=[SegmentClass("s", 3, 60, 200, divergence=0.05)],
            rng=1_000 + i,
        )
        requests.append((pair.target, pair.query))
    return requests


def _offered_load_seconds(requests, *, max_batch, max_wait_ms):
    """Wall time to complete every request, all offered up front."""
    with AlignmentService(
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        max_queue=len(requests) + 1,
        cache_entries=0,
        config=CONFIG,
    ) as service:
        start = time.perf_counter()
        futures = [service.submit(t, q) for t, q in requests]
        for future in futures:
            future.result(timeout=600)
        return time.perf_counter() - start


class TestThroughput:
    def test_batched_2x_naive_at_64_concurrent_requests(self):
        """Fusing 64 queued requests beats one dispatch per request >= 2x."""
        requests = _load_requests(64)
        naive = _offered_load_seconds(requests, max_batch=1, max_wait_ms=0.0)
        batched = _offered_load_seconds(requests, max_batch=64, max_wait_ms=5.0)
        assert naive >= 2 * batched, (
            f"batched {batched:.2f}s vs naive {naive:.2f}s (gate >= 2x)"
        )


class TestCachingBehaviour:
    def test_repeat_submission_hits_cache(self):
        ((target, query),) = _load_requests(1)
        with AlignmentService(config=CONFIG) as service:
            start = time.perf_counter()
            first = service.align(target, query, timeout_s=300)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            again = service.align(target, query, timeout_s=300)
            hit_s = time.perf_counter() - start
            stats = service.stats()
        assert again is first
        assert cold_s >= 10 * hit_s, (
            f"hit {hit_s * 1e3:.2f} ms vs cold {cold_s * 1e3:.1f} ms (gate >= 10x)"
        )
        assert stats.cache.hits == 1
        assert stats.cache_hit_rate > 0
        # The hit is its own event: only the dispatched request counts
        # ``completed``, so a hot cache cannot drag p50 toward zero.
        assert stats.cache_hits == 1
        assert stats.completed == 1
        assert stats.latency_p50_ms > 0

    def test_cache_disabled(self):
        pair = _pair(61, 5_000)
        with AlignmentService(
            cache_entries=0, config=CONFIG, options=OPTIONS
        ) as service:
            first = service.align(pair.target, pair.query, timeout_s=300)
            again = service.align(pair.target, pair.query, timeout_s=300)
        assert again is not first
        assert again.alignments == first.alignments


class TestRobustness:
    def test_queue_full_rejection(self, gated_dispatcher):
        gate, marker = gated_dispatcher
        rng = np.random.default_rng(1)
        seqs = [rng.integers(0, 4, 300, dtype=np.uint8) for _ in range(4)]
        service = AlignmentService(
            max_batch=1, max_wait_ms=0.0, max_queue=2, config=CONFIG
        )
        try:
            gate_future = _submit_gate(service, marker)
            service.submit(seqs[0], seqs[1])
            service.submit(seqs[1], seqs[2])
            with pytest.raises(ServiceOverloaded):
                service.submit(seqs[2], seqs[3])
            assert service.stats().rejected == 1
            gate.set()
            assert gate_future.result(timeout=60) is not None
        finally:
            gate.set()
            service.shutdown(timeout=60)

    def test_admission_control_sheds_on_inflight_bytes(self, gated_dispatcher):
        """Beyond the in-flight byte bound, submissions shed with 503
        semantics (ServiceOverloaded + retry_after_s), distinct from
        queue-full rejection."""
        gate, marker = gated_dispatcher
        rng = np.random.default_rng(5)
        big = rng.integers(0, 4, 2_000, dtype=np.uint8)
        service = AlignmentService(
            max_batch=1,
            max_wait_ms=0.0,
            max_inflight_bytes=8_000,
            config=CONFIG,
        )
        try:
            # The gate request (202 bytes) plus one big pair (4000) fit
            # under the bound; a second big pair pushes past it.
            gate_future = _submit_gate(service, marker)
            admitted = service.submit(big, big)
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.submit(big, big)
            assert excinfo.value.retry_after_s > 0
            stats = service.stats()
            assert stats.shed == 1
            assert stats.rejected == 0  # shedding is not queue-full
            gate.set()
            assert admitted.result(timeout=60) is not None
            assert gate_future.result(timeout=60) is not None
            # The completed request released its bytes: admission resumes.
            assert service.align(big, big, timeout_s=60) is not None
        finally:
            gate.set()
            service.shutdown(timeout=60)

    def test_unbounded_inflight_when_disabled(self, gated_dispatcher):
        gate, marker = gated_dispatcher
        rng = np.random.default_rng(6)
        # Unrelated sequences: a self-alignment of 50 kbp costs minutes.
        big = rng.integers(0, 4, 50_000, dtype=np.uint8)
        other = rng.integers(0, 4, 50_000, dtype=np.uint8)
        service = AlignmentService(
            max_batch=1, max_wait_ms=0.0, max_inflight_bytes=None, config=CONFIG
        )
        try:
            _submit_gate(service, marker)
            futures = [service.submit(big, other) for _ in range(3)]
            assert service.stats().shed == 0
            gate.set()
            for future in futures:
                assert future.result(timeout=300) is not None
        finally:
            gate.set()
            service.shutdown(timeout=60)

    def test_per_request_timeout(self, gated_dispatcher):
        gate, marker = gated_dispatcher
        rng = np.random.default_rng(2)
        seq = rng.integers(0, 4, 300, dtype=np.uint8)
        service = AlignmentService(max_batch=4, max_wait_ms=0.0, config=CONFIG)
        try:
            _submit_gate(service, marker)
            doomed = service.submit(seq, seq, timeout_s=0.01)
            time.sleep(0.05)
            gate.set()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=60)
            assert service.stats().timed_out == 1
        finally:
            gate.set()
            service.shutdown(timeout=60)

    def test_align_timeout_is_one_budget(self, gated_dispatcher):
        """``align(timeout_s=T)`` raises within ~T and the work it walked
        away from is recorded ``abandoned``, never ``completed``.

        The gate request itself is aligned, so the dispatcher is already
        executing (not merely queueing) when the caller's wait expires:
        the old code would let the work finish and count it completed.
        """
        gate, marker = gated_dispatcher
        service = AlignmentService(max_batch=4, max_wait_ms=0.0, config=CONFIG)
        try:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                service.align(marker, marker, timeout_s=0.4)
            elapsed = time.monotonic() - start
            # One budget for queue wait + result wait, not timeout_s twice.
            assert elapsed < 0.4 * 2
            gate.set()
            deadline = time.monotonic() + 30
            while service.stats().abandoned < 1:
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("abandoned work never resolved")
                time.sleep(0.01)
            stats = service.stats()
            assert stats.abandoned == 1
            assert stats.completed == 0
        finally:
            gate.set()
            service.shutdown(timeout=60)

    def test_align_timeout_cancels_queued_work(self, gated_dispatcher):
        """A request still queued when ``align`` gives up never executes."""
        gate, marker = gated_dispatcher
        rng = np.random.default_rng(6)
        seq = rng.integers(0, 4, 300, dtype=np.uint8)
        service = AlignmentService(max_batch=1, max_wait_ms=0.0, config=CONFIG)
        try:
            gate_future = _submit_gate(service, marker)
            with pytest.raises(TimeoutError):
                service.align(seq, seq, timeout_s=0.2)
            gate.set()
            assert gate_future.result(timeout=60) is not None
            deadline = time.monotonic() + 30
            while True:
                stats = service.stats()
                if stats.cancelled + stats.timed_out >= 1:
                    break
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("queued request neither cancelled nor expired")
                time.sleep(0.01)
            # Only the gate request completed; the walked-away one did not.
            assert stats.completed == 1
        finally:
            gate.set()
            service.shutdown(timeout=60)

    def test_poisoned_request_fails_alone(self, gated_dispatcher):
        """One request with hostile codes must not take down its batch."""
        gate, marker = gated_dispatcher
        pairs = [_pair(70 + i, 4_000) for i in range(3)]
        rng = np.random.default_rng(3)
        poison = rng.integers(0, 4, 2_000, dtype=np.uint8)
        poison[500:600] = 99  # invalid codes: detonates inside extension
        poison_anchors = Anchors(np.array([550]), np.array([550]))

        service = AlignmentService(max_batch=8, max_wait_ms=50.0, config=CONFIG)
        try:
            _submit_gate(service, marker)
            good = [service.submit(p.target, p.query) for p in pairs]
            bad = service.submit(poison, poison, anchors=poison_anchors)
            gate.set()
            with pytest.raises(Exception) as excinfo:
                bad.result(timeout=300)
            assert not isinstance(
                excinfo.value, (ServiceOverloaded, DeadlineExceeded)
            )
            for pair, future in zip(pairs, good):
                served = future.result(timeout=300)
                direct = run_fastz(pair.target, pair.query, CONFIG, OPTIONS)
                assert served.alignments == direct.alignments
            assert service.stats().failed == 1
            # The dispatcher survived: it still serves fresh work.
            after = _pair(99, 4_000)
            assert service.align(after.target, after.query, timeout_s=300)
        finally:
            gate.set()
            service.shutdown(timeout=60)

    def test_shutdown_drains_queued_work(self, gated_dispatcher):
        gate, marker = gated_dispatcher
        pairs = [_pair(80 + i, 4_000) for i in range(3)]
        service = AlignmentService(max_batch=2, max_wait_ms=0.0, config=CONFIG)
        _submit_gate(service, marker)
        futures = [service.submit(p.target, p.query) for p in pairs]

        closer = threading.Thread(target=service.shutdown, kwargs={"drain": True})
        closer.start()
        time.sleep(0.05)
        gate.set()
        closer.join(timeout=300)
        assert not closer.is_alive()
        for pair, future in zip(pairs, futures):
            assert future.result(timeout=1).alignments == run_fastz(
                pair.target, pair.query, CONFIG, OPTIONS
            ).alignments

    def test_shutdown_without_drain_cancels(self, gated_dispatcher):
        gate, marker = gated_dispatcher
        rng = np.random.default_rng(4)
        seq = rng.integers(0, 4, 300, dtype=np.uint8)
        service = AlignmentService(max_batch=1, max_wait_ms=0.0, config=CONFIG)
        _submit_gate(service, marker)
        doomed = service.submit(seq, seq)

        closer = threading.Thread(target=service.shutdown, kwargs={"drain": False})
        closer.start()
        time.sleep(0.05)
        gate.set()
        closer.join(timeout=60)
        assert not closer.is_alive()
        with pytest.raises(CancelledError):
            doomed.result(timeout=1)
        assert service.stats().cancelled >= 1

    def test_submit_after_shutdown_rejected(self):
        service = AlignmentService(config=CONFIG)
        service.shutdown()
        rng = np.random.default_rng(5)
        seq = rng.integers(0, 4, 100, dtype=np.uint8)
        with pytest.raises(ServiceClosed):
            service.submit(seq, seq)
        service.shutdown()  # idempotent


class TestStats:
    def test_snapshot_counters(self):
        pairs = [_pair(90 + i, 4_000) for i in range(3)]
        with AlignmentService(
            max_batch=8, max_wait_ms=10.0, config=CONFIG
        ) as service:
            futures = [service.submit(p.target, p.query) for p in pairs]
            for future in futures:
                future.result(timeout=300)
            stats = service.stats()
        assert stats.submitted == 3
        assert stats.completed == 3
        assert stats.failed == 0
        assert sum(s * c for s, c in stats.batch_histogram.items()) == 3
        assert stats.latency_p95_ms >= stats.latency_p50_ms > 0
        payload = stats.as_dict()
        assert payload["completed"] == 3
        assert "cache" in payload and "batch_histogram" in payload

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AlignmentService(max_batch=0)
        with pytest.raises(ValueError):
            AlignmentService(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            AlignmentService(max_queue=0)
