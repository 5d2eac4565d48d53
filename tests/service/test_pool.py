"""Multiprocess backend tests: equivalence, fault tolerance, degradation.

The load-bearing property is bit-identity: the pool shards fused
extension batches across worker processes, and because every extension
task is independent, the reassembled records — and therefore every
alignment the service returns — must match the in-process backend byte
for byte at any worker count, through any number of worker deaths.
"""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.core.options import FastzOptions
from repro.core.pipeline import (
    ExtensionSpec,
    extend_suffixes_batched,
    prepare_fastz,
)
from repro.core.pool import plan_shards
from repro.fleet import InProcessBackend, PoolBackend
from repro.genome import SegmentClass, build_pair
from repro.lastz.config import LastzConfig
from repro.scoring import default_scheme
from repro.service import AlignmentService, PoolError, WorkerPool
from repro.store import ReferenceStore

CONFIG = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))

KILL_ENV = "REPRO_POOL_TEST_KILL_WORKER"


def _pairs(n=4, length=8_000, seed=23):
    out = []
    for i in range(n):
        pair = build_pair(
            f"pool{i}",
            target_length=length,
            query_length=length,
            classes=[SegmentClass("s", 4, 80, 250, divergence=0.05)],
            rng=seed + i,
        )
        out.append((pair.target, pair.query))
    return out


def _rows(result):
    return [
        (a.score, a.target_start, a.target_end,
         a.query_start, a.query_end, a.cigar())
        for a in result.unique_alignments()
    ]


def _run_service(pairs, **kwargs):
    """Align every pair on a fresh service; returns comparable tuples."""
    outs = []
    with AlignmentService(max_wait_ms=1.0, config=CONFIG, **kwargs) as service:
        for target, query in pairs:
            outs.append(_rows(service.align(target, query, timeout_s=300)))
        stats = service.stats()
    return outs, stats


def _extend(pool, prep, key="k"):
    """One request's anchors through the pool; no digests, so codes ship inline."""
    return pool.extend_spec(
        ExtensionSpec.fuse([(prep, None, None)]),
        prep.scheme, prep.options, prep.tile, key=key,
    )


@pytest.fixture()
def shipped(monkeypatch):
    """Pickled size of the shard work of every pool message sent."""
    sizes = []
    send = WorkerPool._send

    def spy(self, slot, job_id, shard_id, key, params, work):
        sizes.append(len(pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL)))
        return send(self, slot, job_id, shard_id, key, params, work)

    monkeypatch.setattr(WorkerPool, "_send", spy)
    return sizes


@pytest.fixture(scope="module")
def prep():
    target, query = _pairs(n=1, length=12_000)[0]
    return prepare_fastz(
        target.codes, query.codes, CONFIG, FastzOptions(engine="batched")
    )


def _plan(prep, n_shards):
    spec = ExtensionSpec.fuse([(prep, None, None)])
    return spec, plan_shards([len(c) for c in spec.codes], spec.rows, n_shards)


class TestShardPlan:
    def test_covers_anchors_disjointly(self, prep):
        _spec, shards = _plan(prep, 3)
        anchors = sorted(a for idx in shards for a in idx)
        assert anchors == list(range(prep.n_anchors))

    def test_sub_lists_keep_interleaving(self, prep):
        # Shard rows ascend by anchor index, so each shard's suffixes keep
        # the right-at-2k / left-at-2k+1 interleaving of the whole batch.
        spec, shards = _plan(prep, 2)
        suffixes = spec.suffixes()
        for idx in shards:
            assert idx == sorted(idx)
            sub = ExtensionSpec(spec.codes, [spec.rows[k] for k in idx]).suffixes()
            assert len(sub) == 2 * len(idx)
            for local, anchor in enumerate(idx):
                got = sub[2 * local : 2 * local + 2]
                want = suffixes[2 * anchor : 2 * anchor + 2]
                for (gt, gq), (wt, wq) in zip(got, want):
                    assert np.array_equal(gt, wt) and np.array_equal(gq, wq)

    def test_never_more_shards_than_anchors(self, prep):
        _spec, shards = _plan(prep, prep.n_anchors + 16)
        assert len(shards) <= prep.n_anchors

    def test_validation(self, prep):
        with pytest.raises(ValueError):
            _plan(prep, 0)


class TestWorkerPool:
    def test_extend_matches_in_process(self, prep):
        expected = extend_suffixes_batched(
            prep.suffixes(), prep.scheme, prep.options, prep.tile
        )
        pool = WorkerPool(2)
        try:
            got = _extend(pool, prep)
        finally:
            pool.close()
        assert got == expected

    def test_empty_batch(self):
        pool = WorkerPool(1)
        try:
            empty = ExtensionSpec((), ())
            assert pool.extend_spec(empty, None, None, 16, key="k") == []
        finally:
            pool.close()

    def test_warm_cache_ships_params_once(self, prep):
        pool = WorkerPool(1)
        try:
            _extend(pool, prep)
            assert "k" in pool._seen[0]
            # Second dispatch reuses the worker-resident params.
            _extend(pool, prep)
            assert pool.dispatches == 2
        finally:
            pool.close()

    def test_closed_pool_raises(self, prep):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PoolError):
            _extend(pool, prep)

    def test_stats_shape(self):
        pool = WorkerPool(2)
        try:
            stats = pool.stats()
            assert stats["workers"] == 2
            assert stats["alive"] == 2
            assert set(stats) == {
                "workers", "alive", "dispatches", "respawns",
                "redispatches", "degraded",
            }
        finally:
            pool.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestServiceEquivalence:
    def test_bit_identical_across_worker_counts(self):
        pairs = _pairs(n=4)
        baseline, base_stats = _run_service(pairs, pool_workers=0)
        for workers in (1, 2, 4):
            outs, stats = _run_service(pairs, pool_workers=workers)
            assert outs == baseline, f"pool_workers={workers} diverged"
            assert stats.completed == base_stats.completed
            assert stats.failed == 0
            assert stats.pool["workers"] == workers
            assert stats.pool["dispatches"] >= 1
        assert base_stats.pool is None

    def test_pool_section_in_stats_dict(self):
        (target, query), = _pairs(n=1)
        with AlignmentService(
            max_wait_ms=1.0, config=CONFIG, pool_workers=2
        ) as service:
            service.align(target, query, timeout_s=300)
            payload = service.stats().as_dict()
        assert payload["pool"]["workers"] == 2
        assert payload["pool"]["respawns"] == 0

    def test_pool_workers_with_fleet_rejected(self):
        # The fleet brings its own lanes; pool_workers would spawn
        # processes no batch is ever routed to.
        with pytest.raises(ValueError, match="pool_workers"):
            AlignmentService(pool_workers=2, fleet=[InProcessBackend("cpu0")])


#: The two ways a service gets a two-worker pool lane.
POOL_LANES = {
    "pool_workers": lambda: {"pool_workers": 2},
    "fleet": lambda: {"fleet": [PoolBackend("pool0", workers=2)]},
}


@pytest.mark.parametrize("lane", POOL_LANES.values(), ids=POOL_LANES.keys())
class TestDispatchPayload:
    """Shard messages carry one code source per sequence, never suffixes."""

    def test_stored_pair_ships_handles_not_bytes(self, tmp_path, shipped, lane):
        pair = build_pair(
            "payload",
            target_length=200_000,
            query_length=200_000,
            classes=[SegmentClass("s", 6, 80, 250, divergence=0.05)],
            rng=29,
        )
        store = ReferenceStore(tmp_path / "store")
        t_digest = store.add(pair.target)
        q_digest = store.add(pair.query)
        with AlignmentService(
            max_wait_ms=1.0, config=CONFIG, store=store, **lane()
        ) as service:
            result = service.align(
                target_ref=t_digest, query_ref=q_digest, timeout_s=300
            )
            stats = service.stats()
        assert result.alignments
        assert stats.pool["dispatches"] == 1
        assert shipped, "no shard reached the pool"
        # Shared-memory handles plus (ti, qi, t, q) rows: a few hundred
        # bytes, at least 100x less than this request's pickled suffixes.
        assert sum(shipped) < 4096
        prep = prepare_fastz(pair.target, pair.query, CONFIG)
        suffix_bytes = len(
            pickle.dumps(prep.suffixes(), protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert suffix_bytes >= 100 * sum(shipped)

    def test_raw_pair_ships_each_sequence_once_per_shard(self, shipped, lane):
        (target, query), = _pairs(n=1)
        with AlignmentService(max_wait_ms=1.0, config=CONFIG, **lane()) as service:
            result = service.align(target, query, timeout_s=300)
        assert len(result.tasks) >= 4
        sequence_bytes = target.codes.nbytes + query.codes.nbytes
        assert len(shipped) == 2
        for size in shipped:
            assert size < sequence_bytes + 4096


class TestFaultTolerance:
    def test_sigkilled_worker_mid_batch_completes(self, monkeypatch):
        # Worker 0 hard-exits (SIGKILL semantics) on its first shard; the
        # pool must respawn it, re-dispatch the shard, and the request
        # must still complete with the in-process answer.
        pairs = _pairs(n=2)
        baseline, _ = _run_service(pairs, pool_workers=0)
        monkeypatch.setenv(KILL_ENV, "0")
        outs, stats = _run_service(pairs, pool_workers=2)
        assert outs == baseline
        assert stats.failed == 0
        assert stats.pool["respawns"] >= 1
        assert stats.pool["redispatches"] >= 1
        assert stats.pool["alive"] == 2

    def test_idle_worker_killed_between_batches(self):
        pairs = _pairs(n=2)
        baseline, _ = _run_service(pairs, pool_workers=0)
        with AlignmentService(
            max_wait_ms=1.0, config=CONFIG, pool_workers=2
        ) as service:
            first = service.align(*pairs[0], timeout_s=300)
            victim = service.pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while service.pool.n_alive == 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            second = service.align(*pairs[1], timeout_s=300)
            stats = service.stats()
        for result, expected in ((first, baseline[0]), (second, baseline[1])):
            got = [
                (a.score, a.target_start, a.target_end,
                 a.query_start, a.query_end, a.cigar())
                for a in result.unique_alignments()
            ]
            assert got == expected
        assert stats.pool["respawns"] >= 1
        assert stats.failed == 0

    def test_repeated_deaths_degrade_to_in_process(self, monkeypatch):
        # Every spawned worker is on the kill list, so each re-dispatch
        # kills its replacement too; past MAX_REDISPATCH the pool raises
        # PoolError and that batch falls back in-process — the request
        # completes anyway.  Only the batch degrades, not the lane: once
        # the hook is cleared the next request is served by the pool.
        pairs = _pairs(n=2)
        baseline, _ = _run_service(pairs, pool_workers=0)
        monkeypatch.setenv(KILL_ENV, ",".join(str(i) for i in range(64)))
        with AlignmentService(
            max_wait_ms=1.0, config=CONFIG, pool_workers=2
        ) as service:
            first = service.align(*pairs[0], timeout_s=300)
            stats = service.stats()
            monkeypatch.delenv(KILL_ENV)
            second = service.align(*pairs[1], timeout_s=300)
            recovered = service.stats()
        assert [_rows(first), _rows(second)] == baseline
        assert stats.failed == 0
        assert stats.pool["degraded"] >= 1
        assert recovered.failed == 0
        assert recovered.pool["degraded"] == stats.pool["degraded"]
        assert recovered.pool["dispatches"] > stats.pool["dispatches"]
        assert recovered.pool["alive"] == 2

    def test_poisoned_request_fails_alone_and_pool_survives(self):
        # Codes value 99 is outside the alphabet and detonates inside the
        # extension handler on the worker: that is a reported failure, not
        # a death — the culprit's future fails, the pool stays up, and the
        # next request is served normally.
        (target, query), = _pairs(n=1)
        rng = np.random.default_rng(3)
        poison = rng.integers(0, 4, 2_000, dtype=np.uint8)
        poison[500:600] = 99
        from repro.seeding import Anchors

        with AlignmentService(
            max_wait_ms=1.0, config=CONFIG, pool_workers=2
        ) as service:
            with pytest.raises(Exception):
                service.align(
                    poison, poison,
                    anchors=Anchors(np.array([550]), np.array([550])),
                    timeout_s=300,
                )
            result = service.align(target, query, timeout_s=300)
            stats = service.stats()
        assert len(result.unique_alignments()) >= 1
        assert stats.failed == 1
        assert stats.completed >= 1
        assert stats.pool["alive"] == 2
        # Poison is not a worker death: nothing was respawned for it.
        assert stats.pool["degraded"] == 0
