"""The store's defining gate: align-by-digest == align-by-bytes, bitwise.

Every transport the store touches — in-process service, the multiprocess
worker pool (shared-memory code segments + spec dispatch), and the
whole-genome job runner (decoded codes in worker state) — must produce
records byte-identical to handing the service the raw sequences.
"""

import numpy as np
import pytest

from repro import api
from repro.service import AlignmentService
from repro.store import ReferenceStore


def _records(result):
    return [
        (a.target_start, a.target_end, a.query_start, a.query_end,
         a.score, a.cigar())
        for a in result.alignments
    ]


@pytest.fixture(scope="module")
def registered(tmp_path_factory, tiny_genome_pair):
    store = ReferenceStore(tmp_path_factory.mktemp("idstore"))
    t_digest = store.add(tiny_genome_pair.target)
    q_digest = store.add(tiny_genome_pair.query)
    return store, t_digest, q_digest


class TestServiceIdentity:
    def test_in_process(self, tiny_genome_pair, registered):
        store, t_digest, _ = registered
        pair = tiny_genome_pair
        with AlignmentService(store=store) as service:
            by_bytes = service.align(pair.target.codes, pair.query.codes)
            by_ref = service.align(query=pair.query.codes, target_ref=t_digest)
        assert _records(by_ref) == _records(by_bytes)

    def test_pool_workers(self, tiny_genome_pair, registered):
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        with AlignmentService(store=store, pool_workers=4) as service:
            by_bytes = service.align(pair.target.codes, pair.query.codes)
            by_ref = service.align(target_ref=t_digest, query_ref=q_digest)
        assert _records(by_ref) == _records(by_bytes)

    def test_both_sides_by_ref_in_process(self, tiny_genome_pair, registered):
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        with AlignmentService(store=store) as service:
            by_bytes = service.align(pair.target.codes, pair.query.codes)
            by_ref = service.align(target_ref=t_digest, query_ref=q_digest)
        assert _records(by_ref) == _records(by_bytes)

    def test_stream_resolves_sides_like_align(self, tiny_genome_pair, registered):
        # A by-ref target streams with its cached seed table, and a side
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
    def test_align_accepts_stored_reference(self, tiny_genome_pair, registered):
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        by_bytes = api.align(pair.target, pair.query)
        by_ref = api.align(store.get(t_digest), store.get(q_digest))
        assert _records(by_ref) == _records(by_bytes)

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


class TestWgaIdentity:
    def test_run_wga_from_store(self, tmp_path, tiny_genome_pair, registered):
        store, t_digest, q_digest = registered
        pair = tiny_genome_pair
        from repro.jobs import JobOptions, run_wga

        # The inline slot and worker processes run one scheduling loop;
        # both must see the same codes whichever side they came from.
        for workers in (0, 2):
            job = JobOptions(chunk_size=16_384, workers=workers, fsync=False)
            by_bytes = run_wga(
                pair.target, pair.query, job=job, job_dir=tmp_path / f"a{workers}"
            )
            by_store = run_wga(
                store.get(t_digest), store.get(q_digest),
                job=job, job_dir=tmp_path / f"b{workers}",
            )
            assert by_store.digest == by_bytes.digest  # same job identity
            assert [
                (a.target_start, a.target_end, a.query_start, a.query_end,
                 a.score, a.cigar())
                for a in by_store.alignments
            ] == [
                (a.target_start, a.target_end, a.query_start, a.query_end,
                 a.score, a.cigar())
                for a in by_bytes.alignments
            ], f"workers={workers} diverged"
