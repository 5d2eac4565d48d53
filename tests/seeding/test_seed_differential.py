"""Generated differential: seeding against a plain reference.

``pack_words``, ``build_seed_table`` and ``find_seeds`` must equal a
test-local reference built the slow, obvious way: a k-pass Horner packer,
a per-window validity scan, a stable argsort for the table, and a dict
from word to target positions for the matches.  Inputs carry N runs,
soft-mask runs and repeat-dense stretches, under contiguous seeds with
k in {1, 12, 19, 31} and spaced patterns; the 31-letter words overflow a
64-bit ``(word, position)`` key, so the table's argsort fallback runs too.
"""

from collections import defaultdict

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.genome import N_CODE
from repro.seeding import (
    LASTZ_SPACED_SEED,
    build_seed_table,
    find_seeds,
    pack_words,
)

SEEDINGS = [
    {"k": 1},
    {"k": 12},
    {"k": 19},
    {"k": 31},
    {"spaced_pattern": "101"},
    {"spaced_pattern": LASTZ_SPACED_SEED},
    # 31 care positions: 62-bit words, like k = 31.
    {"spaced_pattern": "1" * 15 + "0" + "1" * 16},
]


def _reference_pack(codes, mask, k=None, spaced_pattern=None):
    """``(words, valid)`` by a Horner pass per care position."""
    span = len(spaced_pattern) if spaced_pattern else k
    care = (
        [i for i, c in enumerate(spaced_pattern) if c == "1"]
        if spaced_pattern
        else range(k)
    )
    n = codes.shape[0]
    if n < span:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)
    safe = np.where(codes >= 4, 0, codes).astype(np.uint64)
    words = np.zeros(n - span + 1, dtype=np.uint64)
    for offset in care:
        words = (words << np.uint64(2)) | safe[offset : n - span + 1 + offset]
    bad = codes >= 4 if mask is None else (codes >= 4) | mask
    valid = np.array(
        [not bad[i : i + span].any() for i in range(n - span + 1)], dtype=bool
    )
    return words, valid


def _reference_table(codes, mask, **seeding):
    words, valid = _reference_pack(codes, mask, **seeding)
    positions = np.flatnonzero(valid)
    order = np.argsort(words[positions], kind="stable")
    return words[positions][order], positions[order]


def _reference_seeds(target, query, t_mask, q_mask, max_word_count, **seeding):
    """``(target_pos, query_pos)`` ordered by query then target position."""
    t_words, t_valid = _reference_pack(target, t_mask, **seeding)
    q_words, q_valid = _reference_pack(query, q_mask, **seeding)
    where = defaultdict(list)
    for i in np.flatnonzero(t_valid).tolist():
        where[int(t_words[i])].append(i)
    pairs = []
    for j in np.flatnonzero(q_valid).tolist():
        hits = where.get(int(q_words[j]), [])
        if len(hits) <= max_word_count:
            pairs.extend((j, i) for i in hits)
    pairs.sort()
    return [i for _, i in pairs], [j for j, _ in pairs]


@st.composite
def _sequences(draw, max_len=160):
    """Codes over a 1-4 letter alphabet (few letters: repeat-dense), with N runs."""
    letters = draw(st.integers(1, 4))
    codes = np.array(
        draw(st.lists(st.integers(0, letters - 1), max_size=max_len)), dtype=np.uint8
    )
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, max(codes.shape[0] - 1, 0)))
        codes[start : start + draw(st.integers(1, 12))] = N_CODE
    return codes


@st.composite
def _masks(draw, n):
    """No mask, or soft-mask runs over ``n`` bases."""
    if draw(st.booleans()):
        return None
    mask = np.zeros(n, dtype=bool)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, max(n - 1, 0)))
        mask[start : start + draw(st.integers(1, 20))] = True
    return mask


@st.composite
def _seeding_inputs(draw):
    target = draw(_sequences())
    if draw(st.booleans()):
        # The query carries a stretch of the target, so long words match.
        lo = draw(st.integers(0, target.shape[0]))
        hi = draw(st.integers(lo, target.shape[0]))
        query = np.concatenate(
            [draw(_sequences(max_len=40)), target[lo:hi], draw(_sequences(max_len=40))]
        )
    else:
        query = draw(_sequences())
    return target, query, draw(_masks(target.shape[0])), draw(_masks(query.shape[0]))


def _check(inputs, seeding, max_word_count):
    target, query, t_mask, q_mask = inputs

    words, valid, span = pack_words(query, mask=q_mask, **seeding)
    ref_words, ref_valid = _reference_pack(query, q_mask, **seeding)
    np.testing.assert_array_equal(words, ref_words)
    np.testing.assert_array_equal(valid, ref_valid)
    assert words.dtype == np.uint64

    table = build_seed_table(target, mask=t_mask, **seeding)
    ref_t_words, ref_t_pos = _reference_table(target, t_mask, **seeding)
    np.testing.assert_array_equal(table.words, ref_t_words)
    np.testing.assert_array_equal(table.positions, ref_t_pos)
    assert table.words.dtype == np.uint64 and table.positions.dtype == np.int64
    assert table.span == span

    ref_t, ref_q = _reference_seeds(
        target, query, t_mask, q_mask, max_word_count, **seeding
    )
    for seeds in (
        find_seeds(
            target, query, target_mask=t_mask, query_mask=q_mask,
            max_word_count=max_word_count, **seeding,
        ),
        find_seeds(
            target, query, query_mask=q_mask, target_table=table,
            max_word_count=max_word_count, **seeding,
        ),
    ):
        assert seeds.target_pos.tolist() == ref_t
        assert seeds.query_pos.tolist() == ref_q
        assert seeds.target_pos.dtype == seeds.query_pos.dtype == np.int64
        assert seeds.span == span


@settings(max_examples=200, deadline=None)
@given(
    inputs=_seeding_inputs(),
    seeding=st.sampled_from(SEEDINGS),
    max_word_count=st.sampled_from([1, 3, 64]),
)
# Empty and all-N sequences, and a window that is the whole sequence.
@example(
    inputs=(np.zeros(0, np.uint8), np.zeros(0, np.uint8), None, None),
    seeding={"k": 12},
    max_word_count=64,
)
@example(
    inputs=(np.full(40, N_CODE, np.uint8), np.zeros(40, np.uint8), None, None),
    seeding={"k": 19},
    max_word_count=64,
)
@example(
    inputs=(np.arange(31, dtype=np.uint8) % 4, np.arange(31, dtype=np.uint8) % 4,
            None, None),
    seeding={"k": 31},
    max_word_count=1,
)
def test_seeding_matches_reference(inputs, seeding, max_word_count):
    _check(inputs, seeding, max_word_count)


def test_overflowing_keys_take_the_argsort_fallback():
    """31-letter words on a 200-window sequence do not fit a 64-bit key
    beside their position, so the table is sorted by the stable argsort."""
    rng = np.random.default_rng(31)
    target = rng.integers(0, 4, 230).astype(np.uint8)
    target[100:140] = target[10:50]  # repeated words: ties to keep in order
    query = np.concatenate([target[5:120], rng.integers(0, 4, 60).astype(np.uint8)])
    words, _valid, _span = pack_words(target, k=31)
    assert int(words.max()).bit_length() + (words.shape[0] - 1).bit_length() > 64
    _check((target, query, None, None), {"k": 31}, 64)
