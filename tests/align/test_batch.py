"""Property-style equivalence suite for the batched wavefront engine.

The batched struct-of-arrays engine must be *bit-identical* to the scalar
cyclic-buffer engine in every mode (inspector, eager tile, full traceback,
unpruned), and therefore transitively agree with the row-wise
``ydrop_extend`` reference wherever the scalar engine does.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.align import batch, batch_wavefront_extend, wavefront_extend, ydrop_extend
from repro.align.wavefront import (
    INT32_SAFE_DRIFT,
    max_step_penalty,
    pick_score_dtype,
)
from repro.genome import mutate, random_codes


def _random_pairs(seed: int, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """A mixed bag of extension problems: homologous cores of assorted
    lengths/divergences with random flanks, plus degenerate edge cases."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        core = int(rng.integers(0, 260))
        flank = int(rng.integers(0, 350))
        base = random_codes(rng, core)
        q_core = mutate(
            base,
            rng,
            divergence=float(rng.uniform(0.0, 0.25)),
            indel_rate=float(rng.uniform(0.0, 0.02)),
        )
        pairs.append(
            (
                np.concatenate([base, random_codes(rng, flank)]),
                np.concatenate([q_core, random_codes(rng, flank)]),
            )
        )
    empty = np.zeros(0, dtype=np.uint8)
    pairs += [
        (empty, empty),
        (random_codes(rng, 7), empty),
        (empty, random_codes(rng, 7)),
        (random_codes(rng, 1), random_codes(rng, 1)),
    ]
    return pairs


def _assert_results_identical(got, ref):
    assert (got.score, got.end_i, got.end_j) == (ref.score, ref.end_i, ref.end_j)
    assert got.eager_hit == ref.eager_hit
    assert got.ops == ref.ops
    assert got.stats == ref.stats


ENGINE_MODES = [
    pytest.param({"eager_tile": 0}, id="inspector"),
    pytest.param({"eager_tile": 16}, id="eager-tile"),
    pytest.param({"traceback": True}, id="executor-traceback"),
    pytest.param({"eager_tile": 8, "prune": False}, id="unpruned"),
]

#: Tail-handoff thresholds besides the default: 0 sweeps every row to the
#: end, 10_000 sends every block straight to the row kernel.
TAIL_ROWS = [
    pytest.param(0, id="tail-never"),
    pytest.param(10_000, id="tail-at-once"),
]


class TestScalarEquivalence:
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_bit_identical_to_scalar(self, bench_scheme, mode, seed):
        pairs = _random_pairs(seed, 40)
        got = batch_wavefront_extend(pairs, bench_scheme, **mode)
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

    def test_unit_scheme_exact_mode(self, exact_scheme):
        """With pruning effectively disabled the full matrix is explored;
        the batch engine must still match cell for cell."""
        pairs = _random_pairs(23, 10)
        got = batch_wavefront_extend(pairs, exact_scheme, eager_tile=4)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(
                g, wavefront_extend(t, q, exact_scheme, eager_tile=4)
            )

    def test_batch_size_invariance(self, bench_scheme):
        """Chunking the batch must not change any result (lockstep batches
        are independent)."""
        pairs = _random_pairs(5, 60)
        whole = batch_wavefront_extend(pairs, bench_scheme, eager_tile=16)
        for size in (1, 7, 64):
            chunked = batch_wavefront_extend(
                pairs, bench_scheme, eager_tile=16, batch_size=size
            )
            for a, b in zip(whole, chunked):
                _assert_results_identical(a, b)

    def test_empty_batch(self, bench_scheme):
        assert batch_wavefront_extend([], bench_scheme) == []

    def test_bad_batch_size(self, bench_scheme):
        with pytest.raises(ValueError):
            batch_wavefront_extend(_random_pairs(1, 2), bench_scheme, batch_size=0)


class TestReferenceAgreement:
    def test_matches_ydrop_reference(self, bench_scheme):
        """Transitive contract: batch == scalar wavefront == row-wise y-drop
        reference on the optimum (same conservative pruning guarantees)."""
        pairs = _random_pairs(41, 30)
        got = batch_wavefront_extend(pairs, bench_scheme)
        for (t, q), g in zip(pairs, got):
            ref = ydrop_extend(t, q, bench_scheme)
            assert (g.score, g.end_i, g.end_j) == (ref.score, ref.end_i, ref.end_j)

    def test_matches_ydrop_reference_unit_scheme(self, small_scheme):
        pairs = _random_pairs(43, 20)
        got = batch_wavefront_extend(pairs, small_scheme)
        for (t, q), g in zip(pairs, got):
            ref = ydrop_extend(t, q, small_scheme)
            assert (g.score, g.end_i, g.end_j) == (ref.score, ref.end_i, ref.end_j)


class TestEagerTileSemantics:
    def test_eager_hits_walkable(self, bench_scheme):
        """Every eager hit must carry an alignment whose ops rescore to the
        reported score (the tile traceback bytes are identical to scalar)."""
        pairs = _random_pairs(11, 50)
        got = batch_wavefront_extend(pairs, bench_scheme, eager_tile=16)
        hits = [g for g in got if g.eager_hit]
        assert hits, "workload should produce some eager hits"
        for g in hits:
            assert g.ops is not None
            assert g.end_i <= 16 and g.end_j <= 16

    def test_traceback_ops_identical(self, bench_scheme):
        pairs = _random_pairs(29, 25)
        got = batch_wavefront_extend(pairs, bench_scheme, traceback=True)
        for (t, q), g in zip(pairs, got):
            ref = wavefront_extend(t, q, bench_scheme, traceback=True)
            assert g.ops == ref.ops


class TestScoreDtypePromotion:
    """int32 score slabs must be a pure bandwidth optimisation: the checked
    promotion picks int32 only when provably exact, and both dtypes produce
    bit-identical sweeps."""

    def test_promotion_decision_flips_at_the_bound(self, bench_scheme):
        pen = max_step_penalty(bench_scheme)
        edge_span = (INT32_SAFE_DRIFT - int(bench_scheme.ydrop)) // pen - 2
        assert pick_score_dtype(bench_scheme, 1_000) == np.dtype(np.int32)
        assert pick_score_dtype(bench_scheme, edge_span) == np.dtype(np.int32)
        assert pick_score_dtype(bench_scheme, edge_span + 1) == np.dtype(np.int64)
        # Without pruning the y-drop magnitude leaves the bound.
        assert pick_score_dtype(
            bench_scheme, edge_span + 1, prune=False
        ) == np.dtype(np.int32)

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_forced_dtypes_bit_identical(self, bench_scheme, mode):
        """Property: near or far from the bound, the int32 and int64 paths
        agree with each other and with the scalar engine on everything."""
        pairs = _random_pairs(59, 30)
        i32 = batch_wavefront_extend(
            pairs, bench_scheme, score_dtype="int32", **mode
        )
        i64 = batch_wavefront_extend(
            pairs, bench_scheme, score_dtype="int64", **mode
        )
        for a, b in zip(i32, i64):
            _assert_results_identical(a, b)
        for (t, q), g in zip(pairs, i32):
            _assert_results_identical(g, wavefront_extend(t, q, bench_scheme, **mode))

    def test_auto_promotes_to_int64_when_unsafe(self, bench_scheme):
        """A scheme whose per-step penalty blows the int32 budget at tiny
        spans must auto-promote — and still match the scalar engine."""
        huge = replace(bench_scheme, gap_open=INT32_SAFE_DRIFT)
        assert pick_score_dtype(huge, 10) == np.dtype(np.int64)
        pairs = _random_pairs(61, 8)
        got = batch_wavefront_extend(pairs, huge, eager_tile=8)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(g, wavefront_extend(t, q, huge, eager_tile=8))

    def test_bad_score_dtype_rejected(self, bench_scheme):
        with pytest.raises(ValueError):
            batch_wavefront_extend(
                _random_pairs(1, 2), bench_scheme, score_dtype="float32"
            )


def _mixed_extent_pairs(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Wildly mixed extents: most tasks die within a few diagonals while a
    few run deep, so the dead-row fraction crosses any compaction threshold
    mid-run."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(28):
        core = 400 if k % 7 == 0 else int(rng.integers(2, 12))
        base = random_codes(rng, core)
        q_core = mutate(base, rng, divergence=0.05, indel_rate=0.01)
        flank = random_codes(rng, 60)
        pairs.append(
            (np.concatenate([base, flank]), np.concatenate([q_core, flank]))
        )
    return pairs


class TestDeferredCompaction:
    """Tombstoned retirement + threshold-driven compaction must be purely
    internal: any threshold produces the scalar engine's exact results."""

    @pytest.mark.parametrize("threshold", ["0.01", "0.25", "5.0"])
    def test_bit_identical_across_thresholds(
        self, bench_scheme, monkeypatch, threshold
    ):
        monkeypatch.setattr(batch, "_COMPACT_THRESHOLD", float(threshold))
        pairs = _mixed_extent_pairs(31)
        got = batch_wavefront_extend(pairs, bench_scheme, eager_tile=8)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(g, wavefront_extend(t, q, bench_scheme, eager_tile=8))

    def test_compactions_happen_and_are_observable(self, bench_scheme, monkeypatch):
        from repro import obs
        from repro.obs import MetricsRegistry

        monkeypatch.setattr(batch, "_COMPACT_THRESHOLD", 0.01)
        registry, _ = obs.enable(MetricsRegistry())
        try:
            batch_wavefront_extend(_mixed_extent_pairs(33), bench_scheme, eager_tile=8)
            assert registry.counter("repro_batch_compactions_total").value() >= 1
            assert registry.counter("repro_batch_arena_acquires_total").value() >= 1
        finally:
            obs.disable()
