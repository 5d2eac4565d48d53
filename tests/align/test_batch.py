"""Property-style equivalence suite for the batched wavefront engine.

The batched struct-of-arrays engine must be *bit-identical* to the scalar
cyclic-buffer engine in every mode (inspector, eager tile, full traceback,
unpruned), and therefore transitively agree with the row-wise
``ydrop_extend`` reference wherever the scalar engine does.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align import (
    batch,
    batch_wavefront_extend,
    gotoh_extend,
    wavefront_extend,
    ydrop_extend,
)
from repro.align.arena import LockstepArena
from repro.align.wavefront import (
    INT32_SAFE_DRIFT,
    max_step_penalty,
    pick_score_dtype,
)
from repro.genome import N_CODE, mutate, random_codes, tandem_repeat
from repro.scoring import default_scheme


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


class TestAlphabetGuard:
    """The sweep's substitution lookup clips, so out-of-alphabet codes are
    rejected up front, as the scalar engine's fancy indexing rejects them.
    Suffixes are views of whole sequences, as the inspector passes them."""

    @staticmethod
    def _suffixes(target, query, stop=None):
        pairs = []
        for a in range(1_000, 9_000, 1_000):
            pairs.append((target[a:stop], query[a:stop]))
            pairs.append((target[:a][::-1], query[:a][::-1]))
        return pairs

    @pytest.mark.parametrize("side", [0, 1])
    def test_bad_code_inside_a_suffix_raises(self, bench_scheme, side):
        rng = np.random.default_rng(5)
        seqs = [random_codes(rng, 20_000), random_codes(rng, 20_000)]
        seqs[side][15_000] = 9  # far beyond any wavefront's reach
        with pytest.raises(IndexError, match=("target", "query")[side]):
            batch_wavefront_extend(self._suffixes(*seqs), bench_scheme)

    def test_bad_code_outside_every_suffix_is_ignored(self, bench_scheme):
        rng = np.random.default_rng(6)
        target, query = random_codes(rng, 20_000), random_codes(rng, 20_000)
        target[15_000] = query[15_000] = 9
        pairs = self._suffixes(target, query, stop=10_000)
        got = batch_wavefront_extend(pairs, bench_scheme)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(g, wavefront_extend(t, q, bench_scheme))

    def test_bad_code_in_a_whole_buffer_array_raises(self, bench_scheme):
        """Arrays with no ndarray backing are scanned themselves."""
        pairs = _random_pairs(7, 8)
        codes = np.array(pairs[3][0])
        codes[-1] = 9
        pairs[3] = (np.frombuffer(codes.tobytes(), dtype=np.uint8), pairs[3][1])
        with pytest.raises(IndexError, match="target"):
            batch_wavefront_extend(pairs, bench_scheme)


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


# ---------------------------------------------------------------------------
# Generated differential: lockstep blocks against the row kernel and the
# full-matrix oracle.

# The bench_scheme fixture, built once: hypothesis tests take no
# function-scoped fixtures.
_SCHEME = default_scheme(gap_extend=60, ydrop=2400)

#: Pairs up to this many DP cells are also checked against the pure-Python
#: Gotoh oracle (about 8 µs a cell).
_GOTOH_CELLS = 6_000

_PAIR_KINDS = ("homologous", "segmented", "n_run", "tandem", "tiny", "straddle")


def _homologous(rng, core: int, divergence: float, flank: int):
    base = random_codes(rng, core)
    q_core = mutate(
        base, rng, divergence=divergence, indel_rate=float(rng.uniform(0.0, 0.02))
    )
    return (
        np.concatenate([base, random_codes(rng, flank)]),
        np.concatenate([q_core, random_codes(rng, flank)]),
    )


def _generated_pair(rng, kind: str) -> tuple[np.ndarray, np.ndarray]:
    if kind == "homologous":
        return _homologous(
            rng,
            int(rng.integers(0, 160)),
            float(rng.uniform(0.0, 0.25)),
            int(rng.integers(0, 60)),
        )
    if kind == "segmented":
        # Homologous segments split by target-only or query-only inserts and
        # target-side duplications: the window drifts between diagonals and
        # leaves pruned real values behind it, which the diagonal candidate
        # must never resurrect.
        parts_t, parts_q = [], []
        for _ in range(int(rng.integers(1, 5))):
            core = random_codes(rng, int(rng.integers(10, 120)))
            parts_t.append(core)
            parts_q.append(
                mutate(core, rng, divergence=float(rng.uniform(0.0, 0.1)))
            )
            gap = random_codes(rng, int(rng.integers(1, 90)))
            split = int(rng.integers(0, 4))
            if split == 0:
                parts_t.append(gap)
            elif split == 1:
                parts_q.append(gap)
            elif split == 2:
                parts_t.append(core[-int(rng.integers(5, core.shape[0] + 1)) :])
        return np.concatenate(parts_t), np.concatenate(parts_q)
    if kind == "n_run":
        pair = _homologous(
            rng,
            int(rng.integers(20, 140)),
            float(rng.uniform(0.0, 0.1)),
            int(rng.integers(0, 30)),
        )
        # A run of N in the target, or in both sequences.
        for seq in pair[: int(rng.integers(1, 3))]:
            start = int(rng.integers(0, seq.shape[0]))
            seq[start : start + int(rng.integers(1, 25))] = N_CODE
        return pair
    if kind == "tandem":
        target = tandem_repeat(rng, int(rng.integers(1, 7)), int(rng.integers(4, 40)))
        query = mutate(
            target[int(rng.integers(0, 4)) :],
            rng,
            divergence=float(rng.uniform(0.0, 0.1)),
            indel_rate=0.02,
        )
        return target, query
    if kind == "tiny":
        return (
            random_codes(rng, int(rng.integers(0, 3))),
            random_codes(rng, int(rng.integers(0, 3))),
        )
    # Near-identical pairs whose sweep runs into the first code-slab growth
    # (64 columns) or the first plane-cap growth (128 rows).
    length = int(rng.choice([62, 63, 64, 65, 66, 125, 126, 127, 128, 129, 130]))
    base = random_codes(rng, length)
    return base, mutate(base, rng, divergence=float(rng.uniform(0.0, 0.04)))


@st.composite
def _lockstep_blocks(draw):
    kinds = draw(st.lists(st.sampled_from(_PAIR_KINDS), min_size=1, max_size=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [_generated_pair(rng, kind) for kind in kinds]


def _warm_block() -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(2024)
    pairs = []
    for _ in range(40):
        base = random_codes(rng, int(rng.integers(150, 300)))
        pairs.append((base, mutate(base, rng, divergence=0.05, indel_rate=0.01)))
    return pairs


#: One arena shared by every example, as a pipeline thread shares its warm
#: arena across calls.  Each example first sweeps ``_WARM_BLOCK`` (40 rows)
#: through it, so the checked calls run on stale views narrower than their
#: backing.
_ARENA = LockstepArena()
_WARM_BLOCK = _warm_block()


@settings(max_examples=30, deadline=None)
@given(
    pairs=_lockstep_blocks(),
    batch_size=st.sampled_from([5, 16, 300]),
    dtype=st.sampled_from(["int32", "int64"]),
)
def test_lockstep_matches_row_kernel_and_oracle(pairs, batch_size, dtype):
    """Generated blocks on a warm arena: scalar-identical in the inspector,
    eager-tile and executor modes, and oracle-identical unpruned."""
    kw = {"batch_size": batch_size, "arena": _ARENA, "score_dtype": dtype}
    batch_wavefront_extend(
        _WARM_BLOCK, _SCHEME, eager_tile=16, arena=_ARENA, score_dtype=dtype
    )
    for mode in ({"eager_tile": 0}, {"eager_tile": 16}, {"traceback": True}):
        got = batch_wavefront_extend(pairs, _SCHEME, **kw, **mode)
        for (t, q), g in zip(pairs, got):
            _assert_results_identical(g, wavefront_extend(t, q, _SCHEME, **mode))
    got = batch_wavefront_extend(pairs, _SCHEME, traceback=True, prune=False, **kw)
    for (t, q), g in zip(pairs, got):
        _assert_results_identical(
            g, wavefront_extend(t, q, _SCHEME, traceback=True, prune=False)
        )
        if (t.shape[0] + 1) * (q.shape[0] + 1) <= _GOTOH_CELLS:
            ref = gotoh_extend(t, q, _SCHEME)
            assert (g.score, g.end_i, g.end_j) == (ref.score, ref.end_i, ref.end_j)
            assert g.ops == ref.alignment.ops


@pytest.mark.parametrize("seed", [6, 7])
@pytest.mark.parametrize("mode", ENGINE_MODES[:3])
def test_segmented_block_never_resurrects_pruned_cells(mode, seed):
    """Fixed case from the generator: one 20-row block of segmented pairs.
    An ungated diagonal max resurrects pruned values outside the windows
    here (wrong scores, stats and unwalkable tracebacks)."""
    rng = np.random.default_rng(seed)
    pairs = [_generated_pair(rng, "segmented") for _ in range(20)]
    got = batch_wavefront_extend(pairs, _SCHEME, **mode)
    for (t, q), g in zip(pairs, got):
        _assert_results_identical(g, wavefront_extend(t, q, _SCHEME, **mode))
