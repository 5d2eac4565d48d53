"""Equivalence suite for the whole-bin lockstep engine.

:func:`repro.align.wholebin_wavefront_extend` advances an entire task set
as one arena-backed SoA block, sweeping rows in cache tiles that each
mask their own dead lanes.  The contract is the batched engine's: results
bit-identical to the scalar cyclic-buffer engine in every mode, at every
tile size, under forced dtypes and any compaction threshold.
"""

import numpy as np
import pytest

from repro.align import (
    batch,
    batch_wavefront_extend,
    wavefront_extend,
    wholebin_wavefront_extend,
)

from .test_batch import (
    ENGINE_MODES,
    TAIL_ROWS,
    _assert_results_identical,
    _mixed_extent_pairs,
    _random_pairs,
)


class TestScalarEquivalence:
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_bit_identical_to_scalar(self, bench_scheme, mode, seed):
        pairs = _random_pairs(seed, 40)
        got = wholebin_wavefront_extend(pairs, bench_scheme, **mode)
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

    @pytest.mark.parametrize("tile_rows", [1, 3, 17, 10_000])
    def test_tile_rows_invariance(self, bench_scheme, tile_rows):
        """Row tiling is pure locality: any tile size (single-row tiles,
        awkward strides, one tile for everything) gives the same results."""
        pairs = _random_pairs(5, 50)
        ref = wholebin_wavefront_extend(
            pairs, bench_scheme, eager_tile=16, presorted=True
        )
        got = wholebin_wavefront_extend(
            pairs, bench_scheme, eager_tile=16, presorted=True, tile_rows=tile_rows
        )
        for a, b in zip(ref, got):
            _assert_results_identical(a, b)

    def test_tile_rows_env_override(self, bench_scheme, monkeypatch):
        monkeypatch.setenv("REPRO_WHOLEBIN_TILE_ROWS", "2")
        pairs = _random_pairs(7, 30)
        got = wholebin_wavefront_extend(pairs, bench_scheme, traceback=True)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(
                g, wavefront_extend(t, q, bench_scheme, traceback=True)
            )

    def test_invalid_tile_env_falls_back(self, bench_scheme, monkeypatch):
        monkeypatch.setenv("REPRO_WHOLEBIN_TILE_ROWS", "zero?")
        pairs = _random_pairs(9, 10)
        got = wholebin_wavefront_extend(pairs, bench_scheme)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(g, wavefront_extend(t, q, bench_scheme))

    def test_agrees_with_batched_engine(self, bench_scheme):
        """Same sweep core, different composition: whole-bin and chunked
        lockstep must agree on everything, including stats."""
        pairs = _random_pairs(13, 60)
        chunked = batch_wavefront_extend(
            pairs, bench_scheme, traceback=True, batch_size=8
        )
        whole = wholebin_wavefront_extend(pairs, bench_scheme, traceback=True)
        for a, b in zip(chunked, whole):
            _assert_results_identical(a, b)

    def test_empty_and_degenerate(self, bench_scheme):
        assert wholebin_wavefront_extend([], bench_scheme) == []
        empty = np.zeros(0, dtype=np.uint8)
        one = np.ones(1, dtype=np.uint8)
        got = wholebin_wavefront_extend(
            [(empty, empty), (one, empty), (empty, one)], bench_scheme, tile_rows=1
        )
        for (t, q), g in zip([(empty, empty), (one, empty), (empty, one)], got):
            _assert_results_identical(g, wavefront_extend(t, q, bench_scheme))

    def test_bad_tile_rows(self, bench_scheme):
        with pytest.raises(ValueError):
            wholebin_wavefront_extend(
                _random_pairs(1, 2), bench_scheme, tile_rows=0
            )


class TestDtypeAndCompaction:
    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    def test_forced_dtypes_bit_identical(self, bench_scheme, dtype):
        pairs = _random_pairs(59, 30)
        got = wholebin_wavefront_extend(
            pairs, bench_scheme, eager_tile=16, score_dtype=dtype, tile_rows=4
        )
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(
                g, wavefront_extend(t, q, bench_scheme, eager_tile=16)
            )

    @pytest.mark.parametrize("threshold", ["0.01", "5.0"])
    def test_compaction_thresholds(self, bench_scheme, monkeypatch, threshold):
        """Mixed extents retire most rows early; tiling + tombstones +
        compaction must stay invisible at any threshold."""
        monkeypatch.setenv("REPRO_BATCH_COMPACT_THRESHOLD", threshold)
        pairs = _mixed_extent_pairs(31)
        got = wholebin_wavefront_extend(
            pairs, bench_scheme, eager_tile=8, tile_rows=5
        )
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(
                g, wavefront_extend(t, q, bench_scheme, eager_tile=8)
            )


class TestSweepLedger:
    def test_sweep_counters_recorded(self, bench_scheme):
        """The sweep ledger must account every executed tile sweep: steps,
        tiles, slab cells and the live subset (masked fraction <= 1)."""
        from repro import obs
        from repro.obs import MetricsRegistry

        registry, _ = obs.enable(MetricsRegistry())
        try:
            wholebin_wavefront_extend(
                _random_pairs(3, 20), bench_scheme, eager_tile=8, tile_rows=4
            )
            steps = registry.counter("repro_batch_sweep_steps_total").value()
            tiles = registry.counter("repro_batch_sweep_tiles_total").value()
            slab = registry.counter("repro_batch_sweep_slab_cells_total").value()
            live = registry.counter("repro_batch_sweep_live_cells_total").value()
            assert steps >= 1
            assert tiles >= steps  # several tiles per step at tile_rows=4
            assert 0 < live <= slab
        finally:
            obs.disable()
