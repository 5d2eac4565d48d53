"""Unit tests for seed filtering."""

import numpy as np
import pytest

from repro.genome import mutate, random_codes
from repro.scoring import unit_scheme
from repro.seeding import Anchors, collapse_diagonal, find_seeds, ungapped_filter
from repro.seeding.seeds import SeedMatches


def _seeds(pairs, span=19):
    t = np.array([p[0] for p in pairs], dtype=np.int64)
    q = np.array([p[1] for p in pairs], dtype=np.int64)
    return SeedMatches(t, q, span)


class TestCollapseDiagonal:
    def test_single_seed(self):
        anchors = collapse_diagonal(_seeds([(100, 50)]), window=500)
        assert len(anchors) == 1
        # Anchor at the seed-word centre.
        assert anchors.target_pos[0] == 100 + 9
        assert anchors.query_pos[0] == 50 + 9

    def test_run_on_one_diagonal_collapses(self):
        pairs = [(100 + k, 50 + k) for k in range(0, 400, 10)]
        anchors = collapse_diagonal(_seeds(pairs), window=500)
        assert len(anchors) == 1

    def test_far_apart_seeds_survive(self):
        pairs = [(100, 50), (900, 850)]  # same diagonal, 800 apart
        anchors = collapse_diagonal(_seeds(pairs), window=500)
        assert len(anchors) == 2

    def test_different_diagonals_kept_without_band(self):
        pairs = [(100, 50), (103, 50)]  # diagonals differ by 3
        anchors = collapse_diagonal(_seeds(pairs), window=500, diag_band=0)
        assert len(anchors) == 2

    def test_band_merges_nearby_diagonals(self):
        pairs = [(100, 50), (103, 50)]
        anchors = collapse_diagonal(_seeds(pairs), window=500, diag_band=10)
        assert len(anchors) == 1

    def test_band_does_not_merge_distant_diagonals(self):
        pairs = [(100, 50), (400, 50)]  # diagonals 50 and 350
        anchors = collapse_diagonal(_seeds(pairs), window=500, diag_band=10)
        assert len(anchors) == 2

    def test_window_validation(self):
        with pytest.raises(ValueError):
            collapse_diagonal(_seeds([(0, 0)]), window=0)
        with pytest.raises(ValueError):
            collapse_diagonal(_seeds([(0, 0)]), window=5, diag_band=-1)

    def test_empty(self):
        anchors = collapse_diagonal(_seeds([]), window=500)
        assert len(anchors) == 0

    def test_indel_shifted_run_collapses_with_band(self):
        # A homology whose diagonal drifts by small indels: one anchor.
        pairs = []
        diag = 50
        for k in range(0, 1000, 25):
            if k % 100 == 0:
                diag += 2  # small indel
            pairs.append((k + diag, k))
        exact = collapse_diagonal(_seeds(pairs), window=2000, diag_band=0)
        banded = collapse_diagonal(_seeds(pairs), window=2000, diag_band=100)
        assert len(banded) == 1
        assert len(exact) > 1

    @pytest.mark.parametrize("diag_band", [0, 150])
    @pytest.mark.parametrize("seed_rng", [0, 1, 2])
    def test_matches_reference_scan(self, diag_band, seed_rng):
        # The rule read literally, with no per-diagonal or per-bucket
        # index: scan in (diagonal, query) order and keep a seed unless a
        # kept one lies within diag_band diagonals and window query bases.
        rng = np.random.default_rng(seed_rng)
        n, span, window = 4000, 19, 500
        t = rng.integers(0, 30_000, size=n, dtype=np.int64)
        q = rng.integers(0, 30_000, size=n, dtype=np.int64)
        got = collapse_diagonal(
            SeedMatches(t, q, span), window=window, diag_band=diag_band
        )

        kept_d = np.empty(n, dtype=np.int64)
        kept_q = np.empty(n, dtype=np.int64)
        m = 0
        expect = []
        for k in np.lexsort((q, t - q)):
            d = t[k] - q[k]
            near = (np.abs(kept_d[:m] - d) <= diag_band) & (
                np.abs(kept_q[:m] - q[k]) < window
            )
            if not near.any():
                kept_d[m], kept_q[m] = d, q[k]
                m += 1
                expect.append((int(t[k]) + span // 2, int(q[k]) + span // 2))
        assert 0 < m < n
        assert got.pairs() == expect


class TestAnchors:
    def test_take(self):
        a = Anchors(np.array([1, 2, 3]), np.array([4, 5, 6]))
        sub = a.take(np.array([0, 2]))
        assert sub.pairs() == [(1, 4), (3, 6)]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Anchors(np.zeros(2), np.zeros(3))


class TestUngappedFilter:
    def test_strong_anchor_survives(self, rng):
        scheme = unit_scheme(xdrop=5, hsp_threshold=20)
        core = random_codes(rng, 60)
        t = np.concatenate([random_codes(rng, 100), core, random_codes(rng, 100)])
        q = np.concatenate([random_codes(rng, 100), core, random_codes(rng, 100)])
        anchors = Anchors(np.array([130]), np.array([130]))
        surviving, scores = ungapped_filter(anchors, t, q, scheme)
        assert len(surviving) == 1
        assert scores[0] >= 20

    def test_weak_anchor_dropped(self, rng):
        scheme = unit_scheme(xdrop=5, hsp_threshold=20)
        t = random_codes(rng, 200)
        q = random_codes(rng, 200)
        anchors = Anchors(np.array([100]), np.array([100]))
        surviving, scores = ungapped_filter(anchors, t, q, scheme)
        assert len(surviving) == 0

    def test_gap_interrupted_homology_dropped(self, rng):
        """The Figure-2 mechanism: homology broken by an indel scores low
        ungapped even though a gapped extension would chain it."""
        scheme = unit_scheme(xdrop=5, hsp_threshold=50)
        block = random_codes(rng, 30)
        t = np.concatenate([block, block, random_codes(rng, 100)])
        q = np.concatenate([block, random_codes(rng, 20), block, random_codes(rng, 100)])
        anchors = Anchors(np.array([15]), np.array([15]))
        surviving, scores = ungapped_filter(anchors, t, q, scheme)
        assert len(surviving) == 0  # one 30-block tops out at score 30 < 50

    def test_scores_returned_for_all(self, rng):
        scheme = unit_scheme(xdrop=5, hsp_threshold=1000)
        t = random_codes(rng, 100)
        anchors = Anchors(np.array([10, 50, 90]), np.array([10, 50, 90]))
        surviving, scores = ungapped_filter(anchors, t, t.copy(), scheme)
        assert scores.shape == (3,)
