"""Streamed runs: ``run_fastz(on_partial=...)`` is the barrier run in slices."""

import math
import multiprocessing
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    FASTZ_FULL,
    FastzOptions,
    StreamAborted,
    run_fastz,
)
from repro.genome import SegmentClass, build_pair
from repro.lastz.config import LastzConfig
from repro.lastz.pipeline import select_anchors
from repro.scoring import default_scheme
from repro.workloads.profiles import BENCH_OPTIONS, bench_config


def result_key(result):
    """Everything the correctness contract promises, as comparable data."""
    return {
        "alignments": [
            (a.target_start, a.target_end, a.query_start, a.query_end, a.score,
             a.cigar())
            for a in result.alignments
        ],
        "tasks": [
            (t.anchor_t, t.anchor_q, t.score, t.eager) for t in result.tasks
        ],
        "anchor_t": result.anchors.target_pos.tolist(),
        "anchor_q": result.anchors.query_pos.tolist(),
        "fallbacks": result.executor_fallbacks,
    }


def _ignore(_partial):
    pass


@pytest.fixture(scope="module")
def small_pair():
    return build_pair(
        "stream",
        target_length=15_000,
        query_length=15_000,
        classes=[SegmentClass("s", 8, 60, 220, divergence=0.05, indel_rate=0.002)],
        rng=23,
    )


@pytest.fixture(scope="module")
def small_config():
    return LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))


class TestSlices:
    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("batch_size", [2, 7, 256])
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_slices_match_barrier(
        self, small_pair, small_config, engine, batch_size, workers
    ):
        options = FastzOptions(engine=engine, batch_size=batch_size)
        barrier = run_fastz(
            small_pair.target, small_pair.query, small_config, options
        )
        partials = []
        streamed = run_fastz(
            small_pair.target, small_pair.query, small_config, options,
            workers=workers, on_partial=partials.append,
        )
        assert result_key(streamed) == result_key(barrier)

        n_anchors = len(streamed.tasks)
        step = max(1, batch_size // 2)
        assert len(partials) == math.ceil(n_anchors / step)
        assert [p.seq for p in partials] == list(range(len(partials)))
        assert [p.n_anchors for p in partials] == [
            min(step, n_anchors - lo) for lo in range(0, n_anchors, step)
        ]
        assert [p.done_anchors for p in partials] == list(
            np.cumsum([p.n_anchors for p in partials])
        )
        assert [a for p in partials for a in p.alignments] == streamed.alignments
        assert sum(p.eager for p in partials) == streamed.eager_count


class TestBitIdentity:
    @pytest.mark.parametrize(
        "options", [FASTZ_FULL, BENCH_OPTIONS], ids=["scalar", "batched"]
    )
    def test_matches_barrier_run(self, small_pair, small_config, options):
        barrier = run_fastz(
            small_pair.target, small_pair.query, small_config, options
        )
        streamed = run_fastz(
            small_pair.target, small_pair.query, small_config, options,
            on_partial=_ignore,
        )
        assert result_key(streamed) == result_key(barrier)

    def test_banded_collapse_matches_barrier(self, small_pair):
        config = LastzConfig(
            scheme=default_scheme(gap_extend=60, ydrop=2400), diag_band=150
        )
        options = FastzOptions(batch_size=4)
        barrier = run_fastz(small_pair.target, small_pair.query, config, options)
        streamed = run_fastz(
            small_pair.target, small_pair.query, config, options,
            on_partial=_ignore,
        )
        assert result_key(streamed) == result_key(barrier)

    def test_preselected_anchors_path(self, small_pair, small_config):
        anchors = select_anchors(
            small_pair.target, small_pair.query, small_config
        )
        barrier = run_fastz(
            small_pair.target, small_pair.query, small_config, FASTZ_FULL,
            anchors=anchors,
        )
        streamed = run_fastz(
            small_pair.target, small_pair.query, small_config,
            FastzOptions(batch_size=4), anchors=anchors, on_partial=_ignore,
        )
        assert result_key(streamed) == result_key(barrier)

    def test_worker_pool_matches_serial(self, small_pair, small_config):
        options = FastzOptions(batch_size=6)
        serial = run_fastz(
            small_pair.target, small_pair.query, small_config, options,
            on_partial=_ignore,
        )
        pooled = run_fastz(
            small_pair.target, small_pair.query, small_config, options,
            workers=2, on_partial=_ignore,
        )
        assert result_key(pooled) == result_key(serial)

    def test_tiny_genome_pair_bench_profile(self, tiny_genome_pair):
        config = bench_config()
        options = replace(BENCH_OPTIONS, batch_size=16)
        barrier = run_fastz(
            tiny_genome_pair.target, tiny_genome_pair.query, config, options
        )
        partials = []
        streamed = run_fastz(
            tiny_genome_pair.target, tiny_genome_pair.query, config, options,
            on_partial=partials.append,
        )
        assert result_key(streamed) == result_key(barrier)
        assert len(partials) >= 2


class TestPartials:
    def test_partial_union_equals_final(self, small_pair, small_config):
        partials = []
        result = run_fastz(
            small_pair.target, small_pair.query, small_config,
            FastzOptions(batch_size=4), on_partial=partials.append,
        )
        assert len(partials) >= 2

        # Sequence numbers count up from 0; done_anchors is cumulative.
        assert [p.seq for p in partials] == list(range(len(partials)))
        assert [p.done_anchors for p in partials] == list(
            np.cumsum([p.n_anchors for p in partials])
        )
        assert partials[-1].done_anchors == len(result.tasks)
        assert [p.wall_s for p in partials] == sorted(p.wall_s for p in partials)

        streamed_boxes = {
            (a.target_start, a.target_end, a.query_start, a.query_end, a.score,
             a.cigar())
            for p in partials
            for a in p.alignments
        }
        final_boxes = {
            (a.target_start, a.target_end, a.query_start, a.query_end, a.score,
             a.cigar())
            for a in result.alignments
        }
        assert streamed_boxes == final_boxes

    def test_eager_counts_sum(self, small_pair, small_config):
        partials = []
        result = run_fastz(
            small_pair.target, small_pair.query, small_config,
            FastzOptions(batch_size=4), on_partial=partials.append,
        )
        assert sum(p.eager for p in partials) == result.eager_count


class TestAbort:
    def test_should_abort_raises(self, small_pair, small_config):
        with pytest.raises(StreamAborted):
            run_fastz(
                small_pair.target, small_pair.query, small_config, FASTZ_FULL,
                on_partial=_ignore, should_abort=lambda: True,
            )

    def test_abort_mid_stream_leaves_no_producer(self, small_pair, small_config):
        """An abort after the first partial delivers exactly that partial
        and leaves nothing behind that was producing the stream: no pool
        worker process outlives the call, and no new thread outlives it
        by more than a bounded wait (a closed multiprocessing queue's
        feeder thread exits asynchronously)."""
        threads_before = {t.ident for t in threading.enumerate()}
        children_before = {p.pid for p in multiprocessing.active_children()}
        seen = []

        with pytest.raises(StreamAborted):
            run_fastz(
                small_pair.target, small_pair.query, small_config,
                FastzOptions(batch_size=2), workers=2,
                on_partial=seen.append, should_abort=lambda: len(seen) >= 1,
            )
        assert len(seen) == 1
        assert [
            p for p in multiprocessing.active_children()
            if p.pid not in children_before
        ] == []

        def new_threads():
            return [
                t for t in threading.enumerate() if t.ident not in threads_before
            ]

        deadline = time.monotonic() + 10.0
        while new_threads() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert new_threads() == []
