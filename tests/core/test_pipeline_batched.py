"""Scalar vs batched engine equivalence at the full-pipeline level.

``FastzOptions.engine="batched"`` swaps the per-anchor extension loop for
the lockstep struct-of-arrays engine (plus optional multiprocessing
sharding).  Every observable of :class:`FastzResult` — alignments, task
profiles, eager decisions, bin histogram, fallback count — must be
identical to the scalar run, and on D1_2R,2 the batched engine must be
at least 3x faster.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import FastzOptions, run_fastz
from repro.lastz import run_gapped_lastz
from repro.workloads import build_benchmark_pair, get_benchmark
from repro.workloads.profiles import BENCH_OPTIONS, bench_config


@pytest.fixture(scope="module")
def anchored(tiny_genome_pair):
    config = bench_config()
    lastz = run_gapped_lastz(tiny_genome_pair.target, tiny_genome_pair.query, config)
    return tiny_genome_pair, config, lastz.anchors


def _run(anchored, options, workers=None):
    pair, config, anchors = anchored
    return run_fastz(
        pair.target, pair.query, config, options, anchors=anchors, workers=workers
    )


def _assert_runs_identical(scalar, batched):
    assert len(batched.tasks) == len(scalar.tasks)
    for ref, got in zip(scalar.tasks, batched.tasks):
        assert got == ref
    assert len(batched.alignments) == len(scalar.alignments)
    for ref, got in zip(scalar.alignments, batched.alignments):
        assert (got.target_start, got.target_end) == (ref.target_start, ref.target_end)
        assert (got.query_start, got.query_end) == (ref.query_start, ref.query_end)
        assert (got.score, got.cigar()) == (ref.score, ref.cigar())
    assert batched.executor_fallbacks == scalar.executor_fallbacks
    np.testing.assert_array_equal(batched.bin_counts(), scalar.bin_counts())


OPTION_VARIANTS = [
    pytest.param(BENCH_OPTIONS, id="bench-full"),
    pytest.param(replace(BENCH_OPTIONS, eager_traceback=False), id="no-eager"),
    pytest.param(replace(BENCH_OPTIONS, executor_trimming=False), id="no-trim"),
    pytest.param(replace(BENCH_OPTIONS, binning=False), id="no-binning"),
    pytest.param(replace(BENCH_OPTIONS, batch_size=13), id="tiny-batches"),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("options", OPTION_VARIANTS)
    def test_batched_matches_scalar(self, anchored, options):
        scalar = _run(anchored, replace(options, engine="scalar"))
        batched = _run(anchored, replace(options, engine="batched"))
        _assert_runs_identical(scalar, batched)

    def test_pool_matches_scalar(self, anchored):
        """Sharding anchors across a worker pool preserves order and
        results exactly."""
        scalar = _run(anchored, replace(BENCH_OPTIONS, engine="scalar"))
        pooled = _run(anchored, BENCH_OPTIONS, workers=2)
        _assert_runs_identical(scalar, pooled)

    def test_bench_options_use_batched_engine(self):
        assert BENCH_OPTIONS.engine == "batched"

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            FastzOptions(engine="vectorised")
        with pytest.raises(ValueError):
            FastzOptions(batch_size=0)


class TestBatchedSpeedupGate:
    def test_batched_3x_scalar_on_d1_bit_identically(self):
        """The batched engine's acceptance gate on a >= 500-anchor pipeline.

        D1_2R,2 at scale 1.0 with LASTZ's anchors: scalar, batched, a
        warm-arena rerun and a ``workers=2`` run must agree exactly, and
        the first (cold-arena) batched run must beat the per-anchor loop
        by at least 3x.  Both timings come from this process, so the
        ratio compares the engines on one machine.
        """
        pair = build_benchmark_pair(get_benchmark("D1_2R,2"), 1.0)
        config = bench_config()
        lastz = run_gapped_lastz(pair.target, pair.query, config)
        anchored = (pair, config, lastz.anchors)

        def timed(options, workers=None):
            start = time.perf_counter()
            result = _run(anchored, options, workers)
            return time.perf_counter() - start, result

        t_scalar, scalar = timed(replace(BENCH_OPTIONS, engine="scalar"))
        t_batched, batched = timed(BENCH_OPTIONS)
        # The pipeline's thread-local arenas are warm after the first pass.
        _, warm = timed(BENCH_OPTIONS)
        _, pooled = timed(BENCH_OPTIONS, workers=2)

        assert len(scalar.tasks) >= 500
        for run in (batched, warm, pooled):
            _assert_runs_identical(scalar, run)
        speedup = t_scalar / t_batched
        assert speedup >= 3.0, (
            f"batched engine only {speedup:.2f}x scalar "
            f"({t_scalar:.2f}s vs {t_batched:.2f}s; gate >= 3x)"
        )
