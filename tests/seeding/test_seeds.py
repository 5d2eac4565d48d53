"""Unit tests for seed discovery."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.genome import encode, random_codes
from repro.seeding import LASTZ_SPACED_SEED, find_seeds, pack_kmers, pack_spaced


class TestPackKmers:
    def test_known_words(self):
        words, valid = pack_kmers(encode("ACGT"), 2)
        # AC=0b0001=1, CG=0b0110=6, GT=0b1011=11.
        assert words.tolist() == [1, 6, 11]
        assert valid.all()

    def test_n_invalidates_window(self):
        words, valid = pack_kmers(encode("ACNGT"), 2)
        assert valid.tolist() == [True, False, False, True]

    def test_short_input(self):
        words, valid = pack_kmers(encode("AC"), 5)
        assert words.shape == (0,) and valid.shape == (0,)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            pack_kmers(encode("ACGT"), 0)
        with pytest.raises(ValueError):
            pack_kmers(encode("ACGT"), 32)

    def test_k19_fits_uint64(self, rng):
        codes = random_codes(rng, 100)
        words, valid = pack_kmers(codes, 19)
        assert words.dtype == np.uint64
        assert valid.all()

    @given(st.text(alphabet="ACGT", min_size=4, max_size=40))
    def test_equal_windows_have_equal_words(self, text):
        codes = encode(text)
        words, _ = pack_kmers(codes, 4)
        for i in range(len(words)):
            for j in range(len(words)):
                same = text[i : i + 4] == text[j : j + 4]
                assert (words[i] == words[j]) == same


class TestPackSpaced:
    def test_dont_care_positions_ignored(self):
        # Pattern 101: middle base is free.
        w1, _ = pack_spaced(encode("ACA"), "101")
        w2, _ = pack_spaced(encode("AGA"), "101")
        assert w1[0] == w2[0]

    def test_care_positions_matter(self):
        w1, _ = pack_spaced(encode("ACA"), "101")
        w2, _ = pack_spaced(encode("CCA"), "101")
        assert w1[0] != w2[0]

    def test_lastz_default_pattern(self, rng):
        codes = random_codes(rng, 200)
        words, valid = pack_spaced(codes, LASTZ_SPACED_SEED)
        assert words.shape[0] == 200 - len(LASTZ_SPACED_SEED) + 1
        assert valid.all()

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            pack_spaced(encode("ACGT"), "")
        with pytest.raises(ValueError):
            pack_spaced(encode("ACGT"), "10a")
        with pytest.raises(ValueError):
            pack_spaced(encode("ACGT"), "000")


def _brute_force_matches(t: str, q: str, k: int, max_word_count: int = 10**6):
    t_words = [t[i : i + k] for i in range(len(t) - k + 1)]
    out = set()
    for i, word in enumerate(t_words):
        if t_words.count(word) > max_word_count:
            continue  # censored: too frequent in the target
        for j in range(len(q) - k + 1):
            if word == q[j : j + k]:
                out.add((i, j))
    return out


class TestFindSeeds:
    def test_planted_exact_match(self, rng):
        word = random_codes(rng, 19)
        t = np.concatenate([random_codes(rng, 100), word, random_codes(rng, 100)])
        q = np.concatenate([random_codes(rng, 50), word, random_codes(rng, 150)])
        seeds = find_seeds(t, q, k=19)
        assert (100, 50) in set(zip(seeds.target_pos.tolist(), seeds.query_pos.tolist()))

    def test_no_matches_between_random(self, rng):
        t = random_codes(rng, 2000)
        q = random_codes(rng, 2000)
        seeds = find_seeds(t, q, k=19)
        assert len(seeds) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.text(alphabet="AC", min_size=5, max_size=25),
        st.text(alphabet="AC", min_size=5, max_size=25),
        st.sampled_from([10**6, 3]),
    )
    # Repeat-dense: many query positions share one censored word (AAAAA,
    # 8 target copies) and one kept word (CCCCC, 3 copies).
    @example("A" * 12 + "C" * 7, "A" * 12 + "C" * 14, 3)
    def test_matches_brute_force(self, t_text, q_text, max_word_count):
        k = 5
        seeds = find_seeds(
            encode(t_text), encode(q_text), k=k, max_word_count=max_word_count
        )
        got = set(zip(seeds.target_pos.tolist(), seeds.query_pos.tolist()))
        assert got == _brute_force_matches(t_text, q_text, k, max_word_count)

    def test_censoring_drops_frequent_words(self, rng):
        word = random_codes(rng, 8)
        t = np.tile(word, 50)  # the word occurs ~50 times
        q = np.concatenate([word, random_codes(rng, 50)])
        few = find_seeds(t, q, k=8, max_word_count=4)
        many = find_seeds(t, q, k=8, max_word_count=1000)
        assert len(few) < len(many)

    def test_diagonals(self):
        t = encode("AAAACCCC")
        q = encode("TTAAAACCCC")
        seeds = find_seeds(t, q, k=8)
        assert len(seeds) == 1
        assert seeds.diagonals().tolist() == [-2]

    def test_spaced_seed_finds_mismatched_window(self, rng):
        # A window matching everywhere except one don't-care position.
        base = random_codes(rng, len(LASTZ_SPACED_SEED))
        variant = base.copy()
        dc = LASTZ_SPACED_SEED.index("0")
        variant[dc] = (variant[dc] + 1) % 4
        t = np.concatenate([random_codes(rng, 40), base, random_codes(rng, 40)])
        q = np.concatenate([random_codes(rng, 40), variant, random_codes(rng, 40)])
        exact = find_seeds(t, q, k=len(LASTZ_SPACED_SEED))
        spaced = find_seeds(t, q, spaced_pattern=LASTZ_SPACED_SEED)
        hits = set(zip(spaced.target_pos.tolist(), spaced.query_pos.tolist()))
        assert (40, 40) in hits
        assert (40, 40) not in set(
            zip(exact.target_pos.tolist(), exact.query_pos.tolist())
        )

    def test_canonical_ordering(self, rng):
        word = random_codes(rng, 10)
        t = np.concatenate([word, random_codes(rng, 30), word])
        q = np.concatenate([word, random_codes(rng, 10), word])
        seeds = find_seeds(t, q, k=10, max_word_count=100)
        qp = seeds.query_pos
        assert np.all(np.diff(qp) >= 0)

    def test_empty_inputs(self):
        seeds = find_seeds(encode(""), encode("ACGT"), k=4)
        assert len(seeds) == 0
        assert seeds.span == 4
