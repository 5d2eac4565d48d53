"""Unit tests for the chunk pipeline: how a job extends its chunk tasks.

A unit of chunk tasks (``repro.jobs.runner._extend_handler``) runs the
calls ``run_fastz`` makes, on the whole sequences: ``prepare_fastz`` per
task, one ``extend_suffixes_shard`` engine call over every task's
suffixes and ``finish_fastz`` per task.  The contract: a task's records
are *exactly* the full pipeline's records for its anchors, on any engine,
and fusing several tasks into one engine call changes no task's records.
Every task's window is the whole pair, so nothing is clipped and nothing
is re-extended.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FastzOptions, run_fastz
from repro.genome import N_CODE, SegmentClass, build_pair
from repro.jobs.runner import _extend_handler
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
    """The full pipeline's journal rows, keyed by anchor."""
    # Tasks and alignments run in the same (prepared) anchor order;
    # alignments exist only for tasks at or above the gapped threshold.
    records = {}
    alignments = iter(reference.alignments)
    for task in reference.tasks:
        if task.score >= scheme.gapped_threshold:
            a = next(alignments)
            records[(task.anchor_t, task.anchor_q)] = [
                task.anchor_t, task.anchor_q, a.target_start, a.target_end,
                a.query_start, a.query_end, a.score, a.cigar(),
            ]
    return records


def run_chunks(target, query, config, options, tasks):
    """One unit: every task's ``Anchors`` extended in one engine call."""
    payloads = [
        {"id": f"t{i}", "at": a.target_pos.tolist(), "aq": a.query_pos.tolist()}
        for i, a in enumerate(tasks)
    ]
    return _extend_handler((target, query, config, options), payloads, 1)


class TestChunkEquivalence:
    def test_full_window_matches_run_fastz(self, setup):
        pair, config, anchors, reference = setup
        (chunk,) = run_chunks(
            pair.target.codes, pair.query.codes, config, FastzOptions(), [anchors]
        )
        assert chunk["n_anchors"] == len(anchors)
        assert chunk["eager"] == reference.eager_count
        got = {(row[0], row[1]): row for row in chunk["alignments"]}
        assert len(got) == len(chunk["alignments"])
        assert got == reference_records(reference, config.scheme)

    def test_batched_engine_matches_scalar(self, setup):
        pair, config, anchors, _ = setup
        scalar = run_chunks(
            pair.target.codes, pair.query.codes, config,
            FastzOptions(engine="scalar"), [anchors],
        )
        batched = run_chunks(
            pair.target.codes, pair.query.codes, config,
            FastzOptions(engine="batched", batch_size=64), [anchors],
        )
        assert batched == scalar


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
    """1-6 tasks of 1-2 anchors, from the pair's anchors or anywhere on it."""
    anchor = st.one_of(
        st.sampled_from(_POOL),
        st.tuples(st.integers(0, len(_T)), st.integers(0, len(_Q))),
    )
    tasks = []
    for _ in range(draw(st.integers(1, 6))):
        picks = draw(st.lists(anchor, min_size=1, max_size=2))
        tasks.append(
            Anchors(
                np.array([t for t, _ in picks], dtype=np.int64),
                np.array([q for _, q in picks], dtype=np.int64),
            )
        )
    return tasks


@settings(max_examples=20, deadline=None)
@given(tasks=_chunk_tasks(), engine=st.sampled_from(["scalar", "batched"]))
def test_fused_matches_per_task_and_unsegmented(tasks, engine):
    """Generated chunk tasks on one pair: the fused call, one call per
    task and the unsegmented pipeline agree on every record."""
    options = FastzOptions(engine=engine, batch_size=16)
    fused = run_chunks(_T, _Q, _CONFIG, options, tasks)
    assert len(fused) == len(tasks)
    for anchors, got in zip(tasks, fused):
        (alone,) = run_chunks(_T, _Q, _CONFIG, options, [anchors])
        assert got == alone

    every = Anchors(
        np.concatenate([a.target_pos for a in tasks]),
        np.concatenate([a.query_pos for a in tasks]),
    )
    ref = reference_records(
        run_fastz(_T, _Q, _CONFIG, options, anchors=every), _CONFIG.scheme
    )
    for anchors, got in zip(tasks, fused):
        assert got["n_anchors"] == len(anchors)
        owned = set(zip(anchors.target_pos.tolist(), anchors.query_pos.tolist()))
        assert {(row[0], row[1]) for row in got["alignments"]} == owned & set(ref)
        for row in got["alignments"]:
            assert ref[(row[0], row[1])] == row
