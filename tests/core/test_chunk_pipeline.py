"""Unit tests for the chunk-scoped pipeline entries.

The contract: extending a chunk's anchors inside window-clipped suffixes
produces *exactly* the alignments the full-sequence pipeline produces for
those anchors.  Where the window could have truncated a wavefront, the
seam guard must detect it (``window_fallbacks``) and transparently
re-extend on the full sequences.  Fusing several chunk tasks into one
engine call (``run_fastz_chunks``) changes no task's result;
``run_fastz_chunk`` is its one-task case.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FastzOptions, run_fastz, run_fastz_chunk, run_fastz_chunks
from repro.genome import N_CODE, SegmentClass, build_pair
from repro.lastz import LastzConfig
from repro.lastz.pipeline import select_anchors
from repro.scoring import default_scheme
from repro.seeding import Anchors


@pytest.fixture(scope="module")
def setup():
    pair = build_pair(
        "chunk",
        target_length=16_000,
        query_length=16_000,
        classes=[
            SegmentClass("mid", 8, 80, 250, divergence=0.06, indel_rate=0.004)
        ],
        rng=11,
    )
    config = LastzConfig(
        scheme=default_scheme(gap_extend=60, ydrop=2400), diag_band=150
    )
    anchors = select_anchors(pair.target, pair.query, config)
    reference = run_fastz(pair.target, pair.query, config, anchors=anchors)
    return pair, config, anchors, reference


def reference_records(reference, scheme):
    # Tasks and alignments run in the same (prepared) anchor order;
    # alignments exist only for tasks at or above the gapped threshold.
    records = {}
    alignments = iter(reference.alignments)
    for task in reference.tasks:
        if task.score >= scheme.gapped_threshold:
            a = next(alignments)
            records[(task.anchor_t, task.anchor_q)] = (
                a.target_start, a.target_end, a.query_start, a.query_end,
                a.score, a.ops,
            )
    return records


class TestChunkEquivalence:
    def test_full_window_matches_run_fastz(self, setup):
        pair, config, anchors, reference = setup
        chunk = run_fastz_chunk(pair.target, pair.query, config, anchors=anchors)
        assert chunk.n_anchors == len(anchors)
        assert chunk.window_fallbacks == 0
        got = {
            (t, q): (
                a.target_start, a.target_end, a.query_start, a.query_end,
                a.score, a.ops,
            )
            for t, q, a in chunk.records
        }
        assert got == reference_records(reference, config.scheme)

    def test_generous_window_no_fallbacks(self, setup):
        pair, config, anchors, reference = setup
        mid_t = int(np.median(anchors.target_pos))
        mid_q = int(np.median(anchors.query_pos))
        keep = (anchors.target_pos <= mid_t) & (anchors.query_pos <= mid_q)
        subset = anchors.take(np.flatnonzero(keep))
        chunk = run_fastz_chunk(
            pair.target,
            pair.query,
            config,
            anchors=subset,
            t_window=(0, min(len(pair.target), mid_t + 4_096)),
            q_window=(0, min(len(pair.query), mid_q + 4_096)),
        )
        assert chunk.window_fallbacks == 0
        ref = reference_records(reference, config.scheme)
        for t, q, a in chunk.records:
            assert ref[(t, q)] == (
                a.target_start, a.target_end, a.query_start, a.query_end,
                a.score, a.ops,
            )

    def test_degenerate_window_falls_back_and_stays_identical(self, setup):
        # Windows only a few bases past each anchor guarantee truncated
        # wavefronts; the seam guard must fire and the results must still
        # be bit-identical to the unsegmented run.
        pair, config, anchors, reference = setup
        ref = reference_records(reference, config.scheme)
        for idx in range(min(4, len(anchors))):
            t = int(anchors.target_pos[idx])
            q = int(anchors.query_pos[idx])
            one = anchors.take(np.array([idx]))
            chunk = run_fastz_chunk(
                pair.target,
                pair.query,
                config,
                anchors=one,
                t_window=(max(0, t - 8), min(len(pair.target), t + 8)),
                q_window=(max(0, q - 8), min(len(pair.query), q + 8)),
            )
            assert chunk.window_fallbacks > 0
            for at, aq, a in chunk.records:
                assert ref[(at, aq)] == (
                    a.target_start, a.target_end, a.query_start, a.query_end,
                    a.score, a.ops,
                )

    def test_batched_engine_matches_scalar(self, setup):
        pair, config, anchors, _ = setup
        scalar = run_fastz_chunk(pair.target, pair.query, config, anchors=anchors)
        batched = run_fastz_chunk(
            pair.target,
            pair.query,
            config,
            FastzOptions(engine="batched", batch_size=64),
            anchors=anchors,
        )
        assert [(t, q, a) for t, q, a in scalar.records] == [
            (t, q, a) for t, q, a in batched.records
        ]


    def test_window_edge_on_the_anchor_falls_back(self):
        # Shrunk from the generated property below: a zero-width window
        # stops the wavefront after the origin because the next
        # anti-diagonal is clamped away, not because of the y-drop.
        anchors = Anchors(np.array([2822]), np.array([4027]))
        ref = reference_records(
            run_fastz(_T, _Q, _CONFIG, anchors=anchors), _CONFIG.scheme
        )
        assert (2822, 4027) in ref
        chunk = run_fastz_chunk(
            _T, _Q, _CONFIG,
            anchors=anchors, t_window=(2822, 2822), q_window=(4027, 4027),
        )
        assert chunk.window_fallbacks == 1
        ((t, q, a),) = chunk.records
        assert ref[(t, q)] == (
            a.target_start, a.target_end, a.query_start, a.query_end,
            a.score, a.ops,
        )


class TestChunkValidation:
    def test_window_out_of_range(self, setup):
        pair, config, anchors, _ = setup
        with pytest.raises(ValueError, match="window"):
            run_fastz_chunk(
                pair.target, pair.query, config,
                anchors=anchors, t_window=(0, len(pair.target) + 1),
            )

    def test_anchor_outside_window(self, setup):
        pair, config, anchors, _ = setup
        with pytest.raises(ValueError, match="outside"):
            run_fastz_chunk(
                pair.target, pair.query, config,
                anchors=anchors, t_window=(0, 10), q_window=(0, 10),
            )


# ---------------------------------------------------------------------------
# Generated chunk tasks: fused == per-task == unsegmented
# ---------------------------------------------------------------------------


def _property_pair():
    """A 5 kbp pair with planted homology and N runs inside it."""
    pair = build_pair(
        "chunk-prop",
        target_length=5_000,
        query_length=5_000,
        classes=[
            SegmentClass("mid", 6, 100, 300, divergence=0.08, indel_rate=0.006)
        ],
        rng=23,
    )
    config = LastzConfig(
        scheme=default_scheme(gap_extend=60, ydrop=2400), diag_band=150
    )
    t_codes = pair.target.codes.copy()
    q_codes = pair.query.codes.copy()
    anchors = select_anchors(t_codes, q_codes, config)
    for k in range(0, len(anchors), 2):
        t = int(anchors.target_pos[k])
        q = int(anchors.query_pos[k])
        t_codes[t + 20 : t + 32] = N_CODE
        q_codes[max(0, q - 45) : max(0, q - 40)] = N_CODE
    pool = list(zip(anchors.target_pos.tolist(), anchors.query_pos.tolist()))
    return t_codes, q_codes, config, pool


_T, _Q, _CONFIG, _POOL = _property_pair()


@st.composite
def _chunk_tasks(draw):
    """1-6 tasks of 1-2 anchors; windows from zero slack to unclipped."""
    anchor = st.one_of(
        st.sampled_from(_POOL),
        st.tuples(st.integers(0, len(_T)), st.integers(0, len(_Q))),
    )
    # Zero slack puts the extreme anchors on the window edge; 1-64 bases
    # is far below the y-drop horizon; None leaves that side unclipped.
    slack = st.one_of(
        st.just(0), st.integers(1, 64), st.integers(65, 3_000), st.none()
    )
    tasks = []
    for _ in range(draw(st.integers(1, 6))):
        picks = draw(st.lists(anchor, min_size=1, max_size=2))
        ts = [t for t, _ in picks]
        qs = [q for _, q in picks]
        windows = []
        for lo, hi, n in ((min(ts), max(ts), len(_T)), (min(qs), max(qs), len(_Q))):
            below, above = draw(slack), draw(slack)
            windows.append(
                (
                    0 if below is None else max(0, lo - below),
                    n if above is None else min(n, hi + above),
                )
            )
        anchors = Anchors(np.array(ts, dtype=np.int64), np.array(qs, dtype=np.int64))
        tasks.append((anchors, windows[0], windows[1]))
    return tasks


def _summary(chunk):
    return (
        chunk.records,
        chunk.n_anchors,
        chunk.eager_count,
        chunk.window_fallbacks,
        chunk.executor_fallbacks,
    )


@settings(max_examples=20, deadline=None)
@given(tasks=_chunk_tasks(), engine=st.sampled_from(["scalar", "batched"]))
def test_fused_matches_per_task_and_unsegmented(tasks, engine):
    """Generated chunk tasks on one pair: the fused call, one call per
    task and the unsegmented pipeline agree on every record."""
    options = FastzOptions(engine=engine, batch_size=16)
    fused = run_fastz_chunks(_T, _Q, _CONFIG, options, tasks=tasks)
    assert len(fused) == len(tasks)
    for (anchors, t_window, q_window), got in zip(tasks, fused):
        alone = run_fastz_chunk(
            _T, _Q, _CONFIG, options,
            anchors=anchors, t_window=t_window, q_window=q_window,
        )
        assert _summary(got) == _summary(alone)

    every = Anchors(
        np.concatenate([a.target_pos for a, _, _ in tasks]),
        np.concatenate([a.query_pos for a, _, _ in tasks]),
    )
    ref = reference_records(
        run_fastz(_T, _Q, _CONFIG, options, anchors=every), _CONFIG.scheme
    )
    for (anchors, _, _), got in zip(tasks, fused):
        owned = set(zip(anchors.target_pos.tolist(), anchors.query_pos.tolist()))
        assert {(t, q) for t, q, _ in got.records} == owned & set(ref)
        for t, q, a in got.records:
            assert ref[(t, q)] == (
                a.target_start, a.target_end, a.query_start, a.query_end,
                a.score, a.ops,
            )
