"""Equivalence suite for sorted multi-block lockstep composition.

:func:`repro.align.batch_wavefront_extend` orders its pairs by length and
cuts them into blocks of at most ``batch_size`` rows — the composition the
pipeline runs under both engine names, ``"batched"`` and ``"wholebin"``.
These cases use a block size above ``batch._TAIL_ROWS`` and below the
input size, so every call sweeps several sorted blocks.  The contract:
results bit-identical to the scalar cyclic-buffer engine in every mode,
under forced dtypes and any compaction threshold.
"""

from functools import partial

import numpy as np
import pytest

from repro.align import batch, batch_wavefront_extend, wavefront_extend

from .test_batch import (
    ENGINE_MODES,
    TAIL_ROWS,
    _assert_results_identical,
    _mixed_extent_pairs,
    _random_pairs,
)

#: Rows per block: above the default ``_TAIL_ROWS``, below every input.
BLOCK = 7
extend_blocks = partial(batch_wavefront_extend, batch_size=BLOCK)


class TestScalarEquivalence:
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_bit_identical_to_scalar(self, bench_scheme, mode, seed):
        pairs = _random_pairs(seed, 40)
        got = extend_blocks(pairs, bench_scheme, **mode)
        assert len(got) == len(pairs)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(g, wavefront_extend(t, q, bench_scheme, **mode))

    @pytest.mark.parametrize("tail_rows", TAIL_ROWS)
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_bit_identical_across_tail_rows(
        self, bench_scheme, monkeypatch, mode, seed, tail_rows
    ):
        """The cases above at the other handoff thresholds."""
        monkeypatch.setattr(batch, "_TAIL_ROWS", tail_rows)
        self.test_bit_identical_to_scalar(bench_scheme, mode, seed)

    def test_empty_and_degenerate(self, bench_scheme):
        assert batch_wavefront_extend([], bench_scheme, batch_size=1) == []
        empty = np.zeros(0, dtype=np.uint8)
        one = np.ones(1, dtype=np.uint8)
        got = batch_wavefront_extend(
            [(empty, empty), (one, empty), (empty, one)], bench_scheme, batch_size=1
        )
        for (t, q), g in zip([(empty, empty), (one, empty), (empty, one)], got):
            _assert_results_identical(g, wavefront_extend(t, q, bench_scheme))


class TestDtypeAndCompaction:
    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    def test_forced_dtypes_bit_identical(self, bench_scheme, dtype):
        pairs = _random_pairs(59, 30)
        got = extend_blocks(pairs, bench_scheme, eager_tile=16, score_dtype=dtype)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(
                g, wavefront_extend(t, q, bench_scheme, eager_tile=16)
            )

    @pytest.mark.parametrize("threshold", ["0.01", "5.0"])
    def test_compaction_thresholds(self, bench_scheme, monkeypatch, threshold):
        """Mixed extents retire most rows early; blocks + tombstones +
        compaction must stay invisible at any threshold."""
        monkeypatch.setattr(batch, "_COMPACT_THRESHOLD", float(threshold))
        pairs = _mixed_extent_pairs(31)
        got = extend_blocks(pairs, bench_scheme, eager_tile=8)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(
                g, wavefront_extend(t, q, bench_scheme, eager_tile=8)
            )


class TestSweepLedger:
    def test_sweep_counters_recorded(self, bench_scheme):
        """The sweep ledger must account every executed sweep: steps, slab
        cells and the live subset (masked fraction <= 1)."""
        from repro import obs
        from repro.obs import MetricsRegistry

        registry, _ = obs.enable(MetricsRegistry())
        try:
            extend_blocks(_random_pairs(3, 20), bench_scheme, eager_tile=8)
            steps = registry.counter("repro_batch_sweep_steps_total").value()
            slab = registry.counter("repro_batch_sweep_slab_cells_total").value()
            live = registry.counter("repro_batch_sweep_live_cells_total").value()
            assert steps >= 1
            assert 0 < live <= slab
        finally:
            obs.disable()
