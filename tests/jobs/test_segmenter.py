"""Unit tests for the ownership grid: how a job segments its sequences.

Each sequence is tiled into cores of ``chunk_size`` bases, the last core
absorbing the remainder, and each chunk pair of cores owns the anchors
its cores hold: one extend task per chunk pair holding anchors.  The grid
keys the tasks, the journal records and the merge watermark; it bounds
no extension.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.genome.sequence import Sequence
from repro.jobs import JobOptions, run_wga
from repro.jobs.runner import _owned_anchors, _owner_index
from repro.seeding import Anchors


def _anchors(t, q):
    return Anchors(np.asarray(t, dtype=np.int64), np.asarray(q, dtype=np.int64))


class TestSegmentSequence:
    def test_cores_tile_exactly(self):
        owner = _owner_index(np.arange(100_000), 100_000, 32_768)
        assert owner[0] == 0 and owner[-1] == 2
        # Each position stays in its neighbour's core or starts the next.
        assert set(np.diff(owner).tolist()) == {0, 1}

    def test_every_position_owned_once(self):
        # One anchor per target position, all on query position 0.
        by_pair = _owned_anchors(
            _anchors(np.arange(1_000), np.zeros(1_000)), 1_000, 1_000, 128
        )
        owned = sorted(i for idxs in by_pair.values() for i in idxs)
        assert owned == list(range(1_000))
        # 1_000 // 128 = 7 cores; the last runs to the end.
        for core in range(7):
            end = 1_000 if core == 6 else (core + 1) * 128
            assert by_pair[f"c{core}x0"] == list(range(core * 128, end))

    def test_last_core_absorbs_remainder(self):
        owner = _owner_index(np.arange(100), 100, 30)
        # 100 // 30 = 3 cores; no stub tail chunk.
        assert np.bincount(owner).tolist() == [30, 30, 40]

    def test_short_sequence_is_one_chunk(self):
        owner = _owner_index(np.arange(50), 50, 200)
        assert owner.tolist() == [0] * 50

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            JobOptions(chunk_size=0)
        with pytest.raises(ValueError):
            JobOptions(chunk_size=-1)
        # A sequence with no bases has no core; the job refuses it before
        # writing a journal header.
        empty = Sequence("empty", np.zeros(0, dtype=np.uint8))
        other = Sequence("other", np.zeros(100, dtype=np.uint8))
        job = JobOptions(chunk_size=10, fsync=False)
        for target, query in ((empty, other), (other, empty)):
            with pytest.raises(ValueError, match="empty"):
                run_wga(target, query, job=job, job_dir=tmp_path)
        assert not (tmp_path / "journal.jsonl").exists()


class TestChunkPairs:
    def test_cross_product(self):
        # One anchor in each of the 2 x 3 core pairs: one task per pair.
        t = np.repeat([0, 150], 3)
        q = np.tile([0, 100, 250], 2)
        by_pair = _owned_anchors(_anchors(t, q), 200, 300, 100)
        assert len(by_pair) == 2 * 3
        assert sorted(by_pair)[:3] == ["c0x0", "c0x1", "c0x2"]
        # Only the chunk pairs holding anchors become tasks.
        assert _owned_anchors(_anchors(t[:1], q[:1]), 200, 300, 100) == {
            "c0x0": [0]
        }

    def test_pair_ownership(self):
        by_pair = _owned_anchors(_anchors([0, 0, 199], [0, 150, 42]), 200, 200, 100)
        assert by_pair == {"c0x0": [0], "c0x1": [1], "c1x0": [2]}


@given(length=st.integers(1, 3_000), chunk_size=st.integers(1, 4_000))
def test_owner_index_tiles_each_sequence(length, chunk_size):
    """Cores tile the sequence, each position has one owner, the last core
    absorbs the remainder, and a sequence shorter than a core is one chunk."""
    owner = _owner_index(np.arange(length), length, chunk_size)
    sizes = np.bincount(owner)
    assert owner[0] == 0 and np.all(np.diff(owner) >= 0)
    assert np.all(sizes > 0)
    assert np.all(sizes[:-1] == chunk_size)
    if length < chunk_size:
        assert sizes.tolist() == [length]
    else:
        assert chunk_size <= sizes[-1] < 2 * chunk_size
