"""Reference store behaviour: registration, lookup, corruption, seed cache."""

import multiprocessing
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.genome.alphabet import encode, encode_with_mask
from repro.genome.sequence import Sequence
from repro.lastz.config import LastzConfig
from repro.seeding import build_seed_table
from repro.store import (
    ReferenceStore,
    StoreCorrupt,
    UnknownReference,
    reference_digest,
)
from repro.store.seedcache import load_table, save_table
from repro.store.twobit import runs_from_mask
from repro.workloads import build_benchmark_pair, get_benchmark


@pytest.fixture()
def store(tmp_path):
    return ReferenceStore(tmp_path / "store")


class TestGoldenDigests:
    """Pinned digest values: the content address is a wire format.

    A change here orphans every registered reference and breaks
    align-by-digest clients — bump STORE_VERSION if it is deliberate.
    """

    def test_plain(self):
        assert reference_digest(encode("ACGT")) == (
            "5852662d34407d94f18696f8ee375ddb57cf4f2e3c7c681034fabbe9cc2986cd"
        )

    def test_n_runs_are_content(self):
        codes = encode("ACGTNNNACGT")
        assert reference_digest(codes) == (
            "a5e58347d7201c45b75fe178a569cc6ed46791fe587cc71afaf0607d611e0168"
        )

    def test_mask_is_content(self):
        codes, mask = encode_with_mask("acgtACGT")
        assert reference_digest(codes, runs_from_mask(mask)) == (
            "60bec5dc4e2c0ac67030ff199a7eaa0f1e416c3f639cfeeeceda8586cccb1f17"
        )

    def test_unmasked_differs_from_masked(self):
        assert reference_digest(encode("ACGTACGT")) == (
            "2218caea2ba2a67c799c6ef672416a2735e242af3ee893993206c9bb57467c86"
        )

    def test_name_is_not_content(self, store):
        codes = encode("ACGT" * 50)
        assert store.add(codes, name="a") == store.add(codes, name="b")


class TestRegistration:
    def test_add_get_roundtrip(self, store, rng):
        codes = rng.integers(0, 4, size=1000).astype(np.uint8)
        digest = store.add(codes, name="chr1")
        ref = store.get(digest)
        assert ref.name == "chr1"
        assert len(ref) == 1000
        np.testing.assert_array_equal(ref.codes, codes)
        assert not ref.codes.flags.writeable
        assert ref.mask is None

    def test_add_sequence_object(self, store):
        seq = Sequence.from_text("chrX", "ACGTN" * 20)
        ref = store.get(store.add(seq))
        assert ref.name == "chrX"
        np.testing.assert_array_equal(ref.codes, seq.codes)
        np.testing.assert_array_equal(ref.sequence().codes, seq.codes)

    def test_handle_pickles_into_another_process(self, store, rng):
        # Job worker state under a non-fork start method: the copy's
        # store reopens the root, without the lock or the caches.
        codes = rng.integers(0, 4, size=1000).astype(np.uint8)
        ref = store.get(store.add(codes))
        store.seed_table(ref.digest, k=11)
        copy = pickle.loads(pickle.dumps(ref))
        assert copy.store is not store and copy.store.root == store.root
        np.testing.assert_array_equal(copy.codes, codes)
        np.testing.assert_array_equal(
            copy.store.seed_table(ref.digest, k=11).words,
            store.seed_table(ref.digest, k=11).words,
        )

    def test_mask_roundtrip(self, store):
        codes, mask = encode_with_mask("acgtACGTacgt" * 10)
        ref = store.get(store.add(codes, mask=mask))
        np.testing.assert_array_equal(ref.mask, mask)

    def test_idempotent(self, store):
        codes = encode("ACGT" * 100)
        d1 = store.add(codes, name="first")
        d2 = store.add(codes, name="second")
        assert d1 == d2
        assert store.get(d1).name == "first"  # first registration wins

    def test_codes_window(self, store, rng):
        codes = np.asarray(encode("ACGTNNN" + "TGCA" * 40))
        digest = store.add(codes)
        ref = store.get(digest)
        for start, stop in [(0, 7), (3, 11), (5, 5), (100, 167)]:
            np.testing.assert_array_equal(
                ref.codes_window(start, stop), codes[start:stop]
            )

    def test_unknown_digest(self, store):
        with pytest.raises(UnknownReference):
            store.get("0" * 64)

    def test_list_resolve_remove(self, store):
        d1 = store.add(encode("ACGT" * 30), name="a")
        d2 = store.add(encode("TTTT" * 30), name="b")
        assert {e["digest"] for e in store.list()} == {d1, d2}
        assert store.resolve(d1[:12]) == d1
        store.remove(d2)
        assert {e["digest"] for e in store.list()} == {d1}
        with pytest.raises(UnknownReference):
            store.get(d2)


class TestCorruption:
    def test_truncated_twobit_is_clean_error(self, store):
        digest = store.add(encode("ACGT" * 200), name="c")
        path = store.root / digest[:2] / f"{digest}.2bit"
        path.write_bytes(path.read_bytes()[:-16])
        store._refs.clear()  # drop the in-memory handle; hit the files
        with pytest.raises(StoreCorrupt):
            store.get(digest)
        assert not store.contains(digest)

    def test_reregistration_repairs(self, store):
        codes = encode("ACGT" * 200)
        digest = store.add(codes, name="c")
        path = store.root / digest[:2] / f"{digest}.2bit"
        path.write_bytes(b"garbage")
        store._refs.clear()
        assert store.add(codes, name="c") == digest
        np.testing.assert_array_equal(store.get(digest).codes, codes)


class TestSeedCache:
    def test_cold_builds_warm_loads(self, store, rng):
        codes = rng.integers(0, 4, size=4000).astype(np.uint8)
        digest = store.add(codes)
        assert store.load_seed_table(digest, k=13) is None
        table = store.seed_table(digest, k=13)
        # A fresh store instance sees only the persisted file.
        fresh = ReferenceStore(store.root)
        loaded = fresh.load_seed_table(digest, k=13)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.words, table.words)
        np.testing.assert_array_equal(loaded.positions, table.positions)
        assert loaded.span == table.span

    def test_warm_load_2x_faster_than_cold_build(self, store):
        """A persisted table loads at least 2x faster than it builds.

        D1_2R,2's target at scale 0.05 (253 kbp) at the standard seed
        length; a fresh store instance models a new process, so only the
        persisted file is warm, not the in-memory cache.
        """
        target = build_benchmark_pair(get_benchmark("D1_2R,2"), 0.05).target
        digest = store.add(target)
        k = LastzConfig().seed_length
        start = time.perf_counter()
        cold = store.seed_table(digest, k=k)
        cold_s = time.perf_counter() - start
        fresh = ReferenceStore(store.root)
        start = time.perf_counter()
        warm = fresh.load_seed_table(digest, k=k)
        warm_s = time.perf_counter() - start
        np.testing.assert_array_equal(warm.words, cold.words)
        assert cold_s >= 2 * warm_s, (
            f"warm load {warm_s * 1e3:.1f} ms vs cold build "
            f"{cold_s * 1e3:.1f} ms (gate >= 2x)"
        )

    def test_matches_direct_build(self, store, rng):
        codes = rng.integers(0, 4, size=4000).astype(np.uint8)
        digest = store.add(codes)
        direct = build_seed_table(codes, k=13)
        cached = store.seed_table(digest, k=13)
        np.testing.assert_array_equal(cached.words, direct.words)
        np.testing.assert_array_equal(cached.positions, direct.positions)

    def test_params_key_tables_coexist(self, store, rng):
        codes = rng.integers(0, 4, size=4000).astype(np.uint8)
        digest = store.add(codes)
        t13 = store.seed_table(digest, k=13)
        t19 = store.seed_table(digest, k=19)
        assert t13.span == 13 and t19.span == 19
        fresh = ReferenceStore(store.root)
        assert fresh.load_seed_table(digest, k=13).span == 13
        assert fresh.load_seed_table(digest, k=19).span == 19

    def test_torn_cache_file_degrades_to_rebuild(self, store, rng):
        codes = rng.integers(0, 4, size=4000).astype(np.uint8)
        digest = store.add(codes)
        table = store.seed_table(digest, k=13)
        cache = next((store.root / digest[:2]).glob("*.seeds-*.npz"))
        cache.write_bytes(b"not an npz")
        fresh = ReferenceStore(store.root)
        assert fresh.load_seed_table(digest, k=13) is None
        rebuilt = fresh.seed_table(digest, k=13)
        np.testing.assert_array_equal(rebuilt.words, table.words)


    def test_two_processes_persist_one_table(self, tmp_path):
        # Two writers of one file (two job seed workers persisting the
        # same table) each write their own temporary file; a shared one
        # made the loser's rename fail.
        path = tmp_path / "ref.seeds-v1-k5.npz"
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_persist_table, args=(path, 300)) for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0]
        table = load_table(path, expect_span=5)
        np.testing.assert_array_equal(table.words, _small_table().words)
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left


def _small_table():
    codes = np.random.default_rng(3).integers(0, 4, size=2000).astype(np.uint8)
    return build_seed_table(codes, k=5)


def _persist_table(path, rounds: int) -> None:
    table = _small_table()
    for _ in range(rounds):
        save_table(path, table)


class TestConcurrentLookups:
    def test_threads_share_the_caches(self, store, rng):
        """Concurrent ``get`` and ``seed_table`` lookups never trip the LRUs.

        The event loop, stream threads, the service dispatcher and inline
        job seeding look references up at once; an unlocked pop-then-set
        LRU bump raised ``KeyError`` here.
        """
        digests = [
            store.add(rng.integers(0, 4, size=500).astype(np.uint8))
            for _ in range(3)
        ]
        expected = {d: (store.get(d), store.seed_table(d, k=11)) for d in digests}
        errors = []

        def lookups() -> None:
            try:
                for i in range(5_000):
                    digest = digests[i % 3]
                    ref, table = expected[digest]
                    assert store.get(digest) is ref
                    assert store.seed_table(digest, k=11) is table
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=lookups) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestDegradeObservability:
    """Cache degrades are advisory but must be counted and warned once."""

    @pytest.fixture()
    def live_obs(self, monkeypatch):
        from repro import obs
        from repro.store import seedcache

        registry, _tracer = obs.enable()
        monkeypatch.setattr(seedcache, "_degrade_warned", False)
        yield registry
        obs.disable()

    def _degrade_count(self, registry):
        return registry.counter("repro_store_seed_cache_degraded_total").value()

    def test_corrupt_cache_counts_and_warns_once(self, store, rng, live_obs):
        codes = rng.integers(0, 4, size=4000).astype(np.uint8)
        digest = store.add(codes)
        store.seed_table(digest, k=13)
        cache = next((store.root / digest[:2]).glob("*.seeds-*.npz"))
        cache.write_bytes(b"not an npz")
        before = self._degrade_count(live_obs)
        fresh = ReferenceStore(store.root)
        with pytest.warns(RuntimeWarning, match="degraded to a rebuild"):
            assert fresh.load_seed_table(digest, k=13) is None
        assert self._degrade_count(live_obs) == before + 1
        # Second degrade: counted again, but silent.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert fresh.load_seed_table(digest, k=13) is None
        assert self._degrade_count(live_obs) == before + 2

    def test_span_mismatch_counts(self, store, rng, live_obs):
        from repro.store.seedcache import load_table

        codes = rng.integers(0, 4, size=4000).astype(np.uint8)
        digest = store.add(codes)
        store.seed_table(digest, k=13)
        cache = next((store.root / digest[:2]).glob("*.seeds-*.npz"))
        before = self._degrade_count(live_obs)
        with pytest.warns(RuntimeWarning):
            assert load_table(cache, expect_span=19) is None
        assert self._degrade_count(live_obs) == before + 1

    def test_missing_file_is_a_silent_cold_miss(self, store, rng, live_obs):
        codes = rng.integers(0, 4, size=1000).astype(np.uint8)
        digest = store.add(codes)
        before = self._degrade_count(live_obs)
        assert store.load_seed_table(digest, k=13) is None
        assert self._degrade_count(live_obs) == before
