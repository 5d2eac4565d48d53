"""The store's defining gate: align-by-digest == align-by-bytes, bitwise.

Every transport the store touches — in-process service, the multiprocess
worker pool (shared-memory code segments + spec dispatch), the
whole-genome job runner (stored handles in worker state) and the
sequential pipelines — must produce records byte-identical to handing it
the raw sequences.  A stored target always seeds from its persisted
table: on a warm store no surface builds one (``table_builds`` counts
``build_seed_table`` calls, job workers included).
"""

import threading

import numpy as np
import pytest

from repro import api
from repro.fleet import PoolBackend
from repro.lastz.config import LastzConfig
from repro.lastz.pipeline import run_gapped_lastz
from repro.lastz.ungapped import run_ungapped_lastz
from repro.scoring import default_scheme
from repro.service import AlignmentService
from repro.store import ReferenceStore, twobit


def _records(result):
    return [
        (a.target_start, a.target_end, a.query_start, a.query_end,
         a.score, a.cigar())
        for a in result.alignments
    ]


@pytest.fixture(scope="module")
def registered(tmp_path_factory, tiny_genome_pair):
    """A warm store: the target's table is persisted at the default seeding."""
    store = ReferenceStore(tmp_path_factory.mktemp("idstore"))
    t_digest = store.add(tiny_genome_pair.target)
    q_digest = store.add(tiny_genome_pair.query)
    store.seed_table(t_digest, k=LastzConfig().seed_length)
    return store, t_digest, q_digest


class TestServiceIdentity:
    def test_in_process(self, tiny_genome_pair, registered, table_builds):
        store, t_digest, _ = registered
        pair = tiny_genome_pair
        with AlignmentService(store=store) as service:
            by_bytes = service.align(pair.target.codes, pair.query.codes)
            built = table_builds()
            by_ref = service.align(query=pair.query.codes, target_ref=t_digest)
        assert _records(by_ref) == _records(by_bytes)
        assert table_builds() == built

    def test_pool_workers(self, tiny_genome_pair, registered, table_builds):
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        with AlignmentService(
            store=store, fleet=[PoolBackend("pool0", workers=4)]
        ) as service:
            by_bytes = service.align(pair.target.codes, pair.query.codes)
            built = table_builds()
            by_ref = service.align(target_ref=t_digest, query_ref=q_digest)
            streamed = service.align_stream(
                target_ref=t_digest, query_ref=q_digest
            )
        assert _records(by_ref) == _records(by_bytes)
        assert _records(streamed) == _records(by_bytes)
        assert table_builds() == built

    def test_both_sides_by_ref_in_process(self, tiny_genome_pair, registered):
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        with AlignmentService(store=store) as service:
            by_bytes = service.align(pair.target.codes, pair.query.codes)
            by_ref = service.align(target_ref=t_digest, query_ref=q_digest)
        assert _records(by_ref) == _records(by_bytes)

    def test_by_ref_submit_decodes_and_seeds_on_the_dispatcher(
        self, tiny_genome_pair, registered, monkeypatch
    ):
        # Submit only resolves the digests; the decode and the table read
        # run where the request is prepared, never on the caller's thread
        # (the HTTP door's event loop).
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        calls = []
        unpack, seed_table = twobit.unpack_codes, ReferenceStore.seed_table

        def spy_unpack(*args, **kwargs):
            calls.append(("decode", threading.current_thread().name))
            return unpack(*args, **kwargs)

        def spy_seed_table(self, *args, **kwargs):
            calls.append(("seed_table", threading.current_thread().name))
            return seed_table(self, *args, **kwargs)

        monkeypatch.setattr(twobit, "unpack_codes", spy_unpack)
        monkeypatch.setattr(ReferenceStore, "seed_table", spy_seed_table)
        # A fresh store instance: nothing is decoded or cached yet.
        with AlignmentService(store=ReferenceStore(store.root)) as service:
            future = service.submit(target_ref=t_digest, query_ref=q_digest)
            by_ref = future.result(timeout=300)
            by_bytes = service.align(pair.target.codes, pair.query.codes)
        assert sorted(calls) == [
            ("decode", "repro-align-dispatcher"),
            ("decode", "repro-align-dispatcher"),
            ("seed_table", "repro-align-dispatcher"),
        ]
        assert _records(by_ref) == _records(by_bytes)

    def test_stream_resolves_sides_like_align(self, tiny_genome_pair, registered):
        # A by-ref target streams from its persisted table, and a side
        # that is missing, doubly given or unresolvable fails as in align.
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        with AlignmentService(store=store) as service:
            by_bytes = service.align(pair.target.codes, pair.query.codes)
            streamed = service.align_stream(
                target_ref=t_digest, query_ref=q_digest
            )
            with pytest.raises(ValueError, match="either"):
                service.align_stream(query=pair.query.codes)
            with pytest.raises(ValueError, match="not both"):
                service.align_stream(
                    pair.target.codes, pair.query.codes, target_ref=t_digest
                )
        with AlignmentService() as service:
            with pytest.raises(ValueError, match="store"):
                service.align_stream(query=pair.query.codes, target_ref=t_digest)
        assert _records(streamed) == _records(by_bytes)

    def test_ref_without_store_rejected(self, tiny_genome_pair):
        with AlignmentService() as service:
            with pytest.raises(ValueError, match="store"):
                service.align(
                    query=tiny_genome_pair.query.codes, target_ref="0" * 64
                )

    def test_warm_seed_cache_still_identical(self, tiny_genome_pair, registered):
        # Second by-ref call hits the persisted seed table; results must
        # not move.
        store, t_digest, _ = registered
        pair = tiny_genome_pair
        with AlignmentService(store=store) as service:
            first = service.align(query=pair.query.codes, target_ref=t_digest)
        with AlignmentService(store=ReferenceStore(store.root)) as service:
            warm = service.align(query=pair.query.codes, target_ref=t_digest)
        assert _records(warm) == _records(first)


class TestApiIdentity:
    def test_align_accepts_stored_reference(
        self, tiny_genome_pair, registered, table_builds
    ):
        # In-process, on a per-call pool, and streamed in slices.
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        by_bytes = api.align(pair.target, pair.query)
        built = table_builds()
        target, query = store.get(t_digest), store.get(q_digest)
        for kwargs in ({}, {"workers": 2}, {"on_partial": lambda _p: None}):
            by_ref = api.align(target, query, **kwargs)
            assert _records(by_ref) == _records(by_bytes), kwargs
        assert table_builds() == built

    def test_register_reference_roundtrip(self, tmp_path, tiny_genome_pair):
        stored = api.register_reference(
            tiny_genome_pair.target, store=tmp_path / "s"
        )
        np.testing.assert_array_equal(
            stored.codes, tiny_genome_pair.target.codes
        )
        # Idempotent, and raw-text registration preserves the soft-mask.
        again = api.register_reference(
            tiny_genome_pair.target, store=tmp_path / "s"
        )
        assert again.digest == stored.digest


class TestLastzIdentity:
    @pytest.mark.parametrize("pipeline", [run_gapped_lastz, run_ungapped_lastz])
    def test_sequential_pipelines_accept_stored_references(
        self, pipeline, tiny_genome_pair, registered, table_builds
    ):
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        config = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))
        by_bytes = pipeline(pair.target, pair.query, config)
        built = table_builds()
        by_ref = pipeline(store.get(t_digest), store.get(q_digest), config)
        assert _records(by_ref) == _records(by_bytes)
        assert table_builds() == built


class TestWgaIdentity:
    def test_run_wga_from_store(
        self, tmp_path, tiny_genome_pair, registered, table_builds
    ):
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        from repro.jobs import JobOptions, run_wga

        # The inline slot and worker processes run one scheduling loop;
        # both must see the same codes whichever side they came from, and
        # the seed task reads the warm table wherever it runs.
        for workers in (0, 2):
            job = JobOptions(chunk_size=16_384, workers=workers, fsync=False)
            by_bytes = run_wga(
                pair.target, pair.query, job=job, job_dir=tmp_path / f"a{workers}"
            )
            built = table_builds()
            by_store = run_wga(
                store.get(t_digest), store.get(q_digest),
                job=job, job_dir=tmp_path / f"b{workers}",
            )
            assert table_builds() == built, f"workers={workers} built a table"
            assert by_store.digest == by_bytes.digest  # same job identity
            assert _records(by_store) == _records(by_bytes), (
                f"workers={workers} diverged"
            )

    def test_cold_store_builds_one_table_in_the_seed_worker(
        self, tmp_path, tiny_genome_pair, table_builds
    ):
        from repro.jobs import JobOptions, run_wga

        store = ReferenceStore(tmp_path / "cold")
        target = store.get(store.add(tiny_genome_pair.target))
        query = store.get(store.add(tiny_genome_pair.query))
        job = JobOptions(chunk_size=16_384, workers=2, fsync=False)
        first = run_wga(target, query, job=job, job_dir=tmp_path / "j1")
        assert table_builds() == 1
        # Built in the seed worker and persisted there: the coordinator's
        # store never held it.
        assert store._tables == {}
        assert len(list(store.root.glob(f"??/{target.digest}.seeds-*.npz"))) == 1
        again = run_wga(target, query, job=job, job_dir=tmp_path / "j2")
        assert table_builds() == 1
        assert _records(again) == _records(first)
