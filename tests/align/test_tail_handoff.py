"""Tail handoff: lockstep rows finished on the row kernel.

Once a lockstep block is down to ``batch._TAIL_ROWS`` live rows it stops
sweeping: each survivor's S/I/D planes, window, best cell, stats and
traceback are lifted out of the slabs and :func:`~repro.align.wavefront.
resume_wavefront` finishes it.  Blocks that start that small never stage
slabs.  Results must stay bit-identical to the scalar engine whatever the
threshold, the mode, the dtype, the row order or the compaction history
at the moment of the handoff.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.align import batch, batch_wavefront_extend, wavefront_extend
from repro.genome import mutate, random_codes
from repro.obs import MetricsRegistry
from repro.scoring import default_scheme

from .test_batch import ENGINE_MODES, _assert_results_identical, _mixed_extent_pairs

ENGINES = [
    pytest.param(batch_wavefront_extend, id="batched"),
    pytest.param(
        lambda pairs, scheme, **kw: batch_wavefront_extend(
            pairs, scheme, presorted=True, **kw
        ),
        id="wholebin",
    ),
]


def _tail_block(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Five rows that end by diagonal 2 around two that run on.

    The block hands off the two long rows after step 2, when their windows
    still touch column 0.  They share an identical 12-base core followed
    by random flanks, so their optima land near (12, 12): past the
    handoff, inside a 16-tile at the seeds used here.  They sit at rows 1
    and 4, so a compaction has to move them.
    """
    rng = np.random.default_rng(seed)
    pairs = [
        (random_codes(rng, k % 2), random_codes(rng, (k + 1) % 2 * (k < 4)))
        for k in range(5)
    ]
    for slot in (1, 4):
        core = random_codes(rng, 12)
        pairs.insert(
            slot,
            (
                np.concatenate([core, random_codes(rng, 60)]),
                np.concatenate([core, random_codes(rng, 60)]),
            ),
        )
    return pairs


@pytest.fixture()
def handoffs(monkeypatch):
    """Every state the lockstep engines hand to the row kernel."""
    seen = []
    resume = batch.resume_wavefront

    def spy(target, query, scheme, state, **kw):
        seen.append(state)
        return resume(target, query, scheme, state, **kw)

    monkeypatch.setattr(batch, "resume_wavefront", spy)
    return seen


def _check_against_scalar(engine, pairs, scheme, mode, **kw):
    got = engine(pairs, scheme, **mode, **kw)
    for (t, q), g in zip(pairs, got):
        _assert_results_identical(g, wavefront_extend(t, q, scheme, **mode))
    return got


@pytest.mark.parametrize("engine", ENGINES)
class TestMidSweepHandoff:
    def test_eager_tile_still_recording(self, bench_scheme, engine, handoffs):
        mode = {"eager_tile": 16}
        got = _check_against_scalar(engine, _tail_block(1), bench_scheme, mode)
        lifted = [s for s in handoffs if s.d > 0]
        assert len(lifted) == 2
        assert all(s.tile_tb is not None and s.d <= 2 * 16 for s in lifted)
        # Both long rows' optima need the tile rows the row kernel recorded.
        assert got[1].eager_hit and got[4].eager_hit
        assert all(max(g.end_i, g.end_j) > lifted[0].d for g in (got[1], got[4]))

    def test_full_traceback(self, bench_scheme, engine, handoffs):
        got = _check_against_scalar(
            engine, _tail_block(2), bench_scheme, {"traceback": True}
        )
        lifted = [s for s in handoffs if s.d > 0]
        assert len(lifted) == 2 and all(s.full_tb is not None for s in lifted)
        assert got[1].ops and got[4].ops

    def test_unpruned(self, bench_scheme, engine, handoffs):
        _check_against_scalar(
            engine, _tail_block(3), bench_scheme, {"eager_tile": 8, "prune": False}
        )
        assert [s for s in handoffs if s.d > 0]

    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    def test_forced_dtypes(self, bench_scheme, engine, handoffs, dtype):
        _check_against_scalar(
            engine, _tail_block(4), bench_scheme, {"eager_tile": 16},
            score_dtype=dtype,
        )
        assert [s for s in handoffs if s.d > 0]

    def test_after_compaction(self, bench_scheme, engine, handoffs, monkeypatch):
        monkeypatch.setattr(batch, "_COMPACT_THRESHOLD", 0.01)
        registry, _ = obs.enable(MetricsRegistry())
        try:
            _check_against_scalar(
                engine, _tail_block(5), bench_scheme, {"traceback": True}
            )
            assert registry.counter("repro_batch_compactions_total").value() >= 1
        finally:
            obs.disable()
        assert len([s for s in handoffs if s.d > 0]) == 2

    def test_window_at_column_zero(self, bench_scheme, engine, handoffs):
        _check_against_scalar(engine, _tail_block(6), bench_scheme, {"eager_tile": 8})
        lifted = [s for s in handoffs if s.d > 0]
        assert lifted and all(s.lo_prev == 0 for s in lifted)


class TestTailLedger:
    def test_tail_counters_and_small_blocks(self, bench_scheme):
        registry, _ = obs.enable(MetricsRegistry())
        try:
            pairs = _mixed_extent_pairs(31)
            batch_wavefront_extend(pairs, bench_scheme, eager_tile=8)
            rows = registry.counter("repro_batch_tail_rows_total").value()
            steps = registry.counter("repro_batch_tail_steps_total").value()
            assert 1 <= rows <= batch._TAIL_ROWS
            assert steps >= 1
            slab = registry.counter("repro_batch_sweep_slab_cells_total").value()
            live = registry.counter("repro_batch_sweep_live_cells_total").value()
            assert 0 < live <= slab

            # A block that starts at the threshold never sweeps.
            sweeps = registry.counter("repro_batch_sweep_steps_total").value()
            small = pairs[: batch._TAIL_ROWS]
            batch_wavefront_extend(small, bench_scheme, eager_tile=8)
            assert registry.counter("repro_batch_sweep_steps_total").value() == sweeps
            assert (
                registry.counter("repro_batch_tail_rows_total").value()
                == rows + len(small)
            )
        finally:
            obs.disable()


@contextmanager
def _tail_rows(value: int):
    saved = batch._TAIL_ROWS
    batch._TAIL_ROWS = value
    try:
        yield
    finally:
        batch._TAIL_ROWS = saved


# The bench_scheme fixture, built once: hypothesis tests take no
# function-scoped fixtures.
_SCHEME = default_scheme(gap_extend=60, ydrop=2400)


@st.composite
def _pair_sets(draw):
    """Homologous cores at LOGAN-style 10-15% divergence (and some at
    0-25%) with random flanks, plus a few rows that end at once."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        core = int(rng.integers(0, 160))
        divergence = float(
            rng.uniform(0.10, 0.15) if rng.random() < 0.6 else rng.uniform(0.0, 0.25)
        )
        base = random_codes(rng, core)
        q_core = mutate(base, rng, divergence=divergence, indel_rate=0.01)
        flank = int(rng.integers(0, 80))
        pairs.append(
            (
                np.concatenate([base, random_codes(rng, flank)]),
                np.concatenate([q_core, random_codes(rng, flank)]),
            )
        )
    for _ in range(draw(st.integers(0, 4))):
        pairs.append(
            (
                random_codes(rng, int(rng.integers(0, 3))),
                random_codes(rng, int(rng.integers(0, 3))),
            )
        )
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


@settings(max_examples=30, deadline=None)
@given(
    pairs=_pair_sets(),
    mode=st.sampled_from([param.values[0] for param in ENGINE_MODES]),
    tail_rows=st.sampled_from([0, 1, 2, 4, 7, 10_000]),
    presorted=st.booleans(),
)
def test_handoff_matches_row_kernel(pairs, mode, tail_rows, presorted):
    """Any threshold, any mode, either row order: scalar-identical results."""
    with _tail_rows(tail_rows):
        got = batch_wavefront_extend(
            pairs, _SCHEME, batch_size=5, presorted=presorted, **mode
        )
    for (t, q), g in zip(pairs, got):
        _assert_results_identical(g, wavefront_extend(t, q, _SCHEME, **mode))
