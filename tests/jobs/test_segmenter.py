"""Unit tests for genome segmentation geometry."""

import pytest

from repro.jobs import Chunk, chunk_pairs, segment_sequence


class TestSegmentSequence:
    def test_cores_tile_exactly(self):
        chunks = segment_sequence(100_000, 32_768, 4_096)
        assert chunks[0].core_start == 0
        assert chunks[-1].core_end == 100_000
        for a, b in zip(chunks, chunks[1:]):
            assert a.core_end == b.core_start

    def test_every_position_owned_once(self):
        chunks = segment_sequence(1_000, 128, 32)
        for pos in range(1_000):
            assert sum(c.owns(pos) for c in chunks) == 1

    def test_last_core_absorbs_remainder(self):
        chunks = segment_sequence(100, 30, 0)
        # 100 // 30 = 3 cores; no stub tail chunk.
        assert len(chunks) == 3
        assert chunks[-1].core_span == 40

    def test_short_sequence_is_one_chunk(self):
        (only,) = segment_sequence(50, 200, 64)
        assert (only.core_start, only.core_end) == (0, 50)
        assert (only.start, only.end) == (0, 50)

    def test_windows_extend_by_overlap_clamped(self):
        chunks = segment_sequence(300, 100, 40)
        assert (chunks[0].start, chunks[0].end) == (0, 140)
        assert (chunks[1].start, chunks[1].end) == (60, 240)
        assert (chunks[2].start, chunks[2].end) == (160, 300)

    def test_validation(self):
        with pytest.raises(ValueError):
            segment_sequence(0, 100, 10)
        with pytest.raises(ValueError):
            segment_sequence(100, 0, 10)
        with pytest.raises(ValueError):
            segment_sequence(100, 10, -1)
        with pytest.raises(ValueError):
            Chunk(index=0, core_start=10, core_end=5, start=0, end=20)
        with pytest.raises(ValueError):
            Chunk(index=0, core_start=0, core_end=10, start=2, end=20)


class TestChunkPairs:
    def test_cross_product(self):
        t = segment_sequence(200, 100, 10)
        q = segment_sequence(300, 100, 10)
        pairs = chunk_pairs(t, q)
        assert len(pairs) == len(t) * len(q)
        assert [p.task_id for p in pairs[:3]] == ["c0x0", "c0x1", "c0x2"]

    def test_pair_ownership(self):
        t = segment_sequence(200, 100, 10)
        q = segment_sequence(200, 100, 10)
        pairs = chunk_pairs(t, q)
        for tp, qp in ((0, 0), (0, 150), (199, 42)):
            assert sum(p.owns(tp, qp) for p in pairs) == 1
