"""Generated whole-genome jobs against the single pass.

A job extends each task's owned anchors on the whole sequences, through
the calls ``run_fastz`` makes, so every journaled ``chunk`` record must
equal the single pass's records for the anchors its task owns.  That must
hold at any chunk size: below the seed span (close to one task per
anchor), at 1-3 kbp, or at least the pair length (one task).  The pairs
carry N runs inside their homology, and homology that touches both ends
of both sequences.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import FastzOptions, run_fastz
from repro.genome import N_CODE, SegmentClass, build_pair
from repro.genome.evolve import mutate
from repro.genome.sequence import Sequence
from repro.jobs import JobOptions, run_wga
from repro.jobs.merge import sort_canonical
from repro.jobs.runner import _owner_index
from repro.lastz import LastzConfig
from repro.scoring import default_scheme

CONFIG = LastzConfig(
    scheme=default_scheme(gap_extend=60, ydrop=2400), diag_band=150
)


def _pair(seed: int, n_mid: int, head: int, tail: int, n_runs) -> tuple:
    """A planted pair whose query also starts with a copy of the target's
    first ``head`` bases and ends with a copy of its last ``tail`` bases,
    with N runs ``(side, end, offset, length)`` inside that homology."""
    rng = np.random.default_rng(seed)
    pair = build_pair(
        "prop",
        target_length=6_000,
        query_length=5_000,
        classes=[
            SegmentClass("mid", n_mid, 80, 300, divergence=0.08, indel_rate=0.006)
        ],
        rng=rng,
    )
    target = pair.target.codes.copy()
    query = np.concatenate(
        [
            mutate(target[:head], rng, divergence=0.06, indel_rate=0.004),
            pair.query.codes,
            mutate(target[-tail:], rng, divergence=0.06, indel_rate=0.004),
        ]
    )
    for side, end, offset, length in n_runs:
        codes = target if side == "t" else query
        span = head if end == "head" else tail
        start = offset % span if end == "head" else len(codes) - span + offset % span
        codes[start : start + length] = N_CODE
    return Sequence("t", target), Sequence("q", query)


def _records_by_task(result, target, query, chunk_size) -> dict:
    """The single pass's ``chunk`` rows, keyed by the task owning each anchor."""
    t_pos = np.array([task.anchor_t for task in result.tasks], dtype=np.int64)
    q_pos = np.array([task.anchor_q for task in result.tasks], dtype=np.int64)
    t_own = _owner_index(t_pos, len(target), chunk_size)
    q_own = _owner_index(q_pos, len(query), chunk_size)
    alignments = iter(result.alignments)
    rows: dict[str, list] = {}
    for task, ti, qi in zip(result.tasks, t_own.tolist(), q_own.tolist()):
        owned = rows.setdefault(f"c{ti}x{qi}", [])
        if task.score >= CONFIG.scheme.gapped_threshold:
            a = next(alignments)
            owned.append(
                [task.anchor_t, task.anchor_q, a.target_start, a.target_end,
                 a.query_start, a.query_end, a.score, a.cigar()]
            )
    return rows


_N_RUN = st.tuples(
    st.sampled_from(["t", "q"]),
    st.sampled_from(["head", "tail"]),
    st.integers(0, 10_000),
    st.integers(1, 12),
)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_mid=st.integers(1, 12),
    head=st.integers(100, 600),
    tail=st.integers(100, 600),
    n_runs=st.lists(_N_RUN, max_size=3),
    chunk=st.one_of(
        st.integers(1, CONFIG.seed_length - 1),
        st.integers(1_000, 3_000),
        st.just(None),
    ),
    engine=st.sampled_from(["scalar", "batched"]),
)
# The grid's extremes: one task per owned position pair, and one task.
@example(seed=0, n_mid=12, head=400, tail=400, n_runs=[("t", "head", 0, 12)],
         chunk=1, engine="batched")
@example(seed=1, n_mid=6, head=600, tail=600, n_runs=[("q", "tail", 599, 5)],
         chunk=None, engine="scalar")
def test_job_records_match_the_single_pass(
    seed, n_mid, head, tail, n_runs, chunk, engine
):
    target, query = _pair(seed, n_mid, head, tail, n_runs)
    # None: a core at least the pair length, so one task owns every anchor.
    chunk_size = chunk or len(target) + len(query)
    # batch_size 16 makes units of about 8 anchors, so a unit fuses
    # several tasks.
    options = FastzOptions(engine=engine, batch_size=16)
    single = run_fastz(target, query, CONFIG, options)
    expected = _records_by_task(single, target, query, chunk_size)

    with tempfile.TemporaryDirectory() as job_dir:
        report = run_wga(
            target, query, CONFIG, options,
            job=JobOptions(chunk_size=chunk_size, fsync=False, backoff_s=0.001),
            job_dir=job_dir,
        )
        lines = (Path(job_dir) / "journal.jsonl").read_text().splitlines()
    chunks = [r for r in map(json.loads, lines) if r["type"] == "chunk"]

    assert report.complete and report.window_fallbacks == 0
    assert sorted(r["task"] for r in chunks) == sorted(expected)
    for record in chunks:
        assert record["alignments"] == expected[record["task"]], record["task"]
    assert sum(r["n_anchors"] for r in chunks) == len(single.tasks)
    assert report.alignments == sort_canonical(single.unique_alignments())

