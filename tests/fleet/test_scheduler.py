"""Fleet scheduler tests: identity, placement, priority, hedging, failure.

The load-bearing property is the same one the worker pool pins: whatever
backend (or sequence of backends, after hedges and re-dispatches) runs a
fused extension batch, the records — and therefore every alignment a
fleet-backed service returns — must match the in-process engine byte for
byte.
"""

import threading
import time

import pytest

from repro.core.options import FastzOptions
from repro.core.pipeline import (
    ExtensionSpec,
    extend_suffixes_batched,
    prepare_fastz,
)
from repro.fleet import (
    BackendUnavailable,
    FleetError,
    FleetScheduler,
    InProcessBackend,
    PoolBackend,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    SimGpuBackend,
)
from repro.fleet.backends import _SLOW_ENV
from repro.genome import SegmentClass, build_pair
from repro.lastz.config import LastzConfig
from repro.scoring import default_scheme
from repro.service import AlignmentService

CONFIG = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))


def _pairs(n=3, length=8_000, seed=41):
    out = []
    for i in range(n):
        pair = build_pair(
            f"fleet{i}",
            target_length=length,
            query_length=length,
            classes=[SegmentClass("s", 4, 80, 250, divergence=0.05)],
            rng=seed + i,
        )
        out.append((pair.target, pair.query))
    return out


@pytest.fixture(scope="module")
def prep():
    target, query = _pairs(n=1, length=12_000)[0]
    return prepare_fastz(
        target.codes, query.codes, CONFIG, FastzOptions(engine="batched")
    )


@pytest.fixture(scope="module")
def expected(prep):
    return extend_suffixes_batched(
        prep.suffixes(), prep.scheme, prep.options, prep.tile
    )


def _spec(prep):
    return ExtensionSpec.fuse([(prep, None, None)])


def _submit(fleet, prep, **kwargs):
    return fleet.submit(
        _spec(prep), prep.scheme, prep.options, prep.tile,
        key="k", **kwargs,
    )


class TestIdentity:
    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda: InProcessBackend("cpu0"),
            lambda: SimGpuBackend("gpu0"),
        ],
        ids=["inprocess", "gpusim"],
    )
    def test_single_backend_matches_in_process(self, prep, expected, make_backend):
        with FleetScheduler([make_backend()], hedge_after_s=None) as fleet:
            got = _submit(fleet, prep).result(timeout=300)
        assert got == expected

    def test_mixed_fleet_matches_in_process(self, prep, expected):
        backends = [
            InProcessBackend("cpu0"),
            SimGpuBackend("gpu0"),
            SimGpuBackend("gpu1"),
        ]
        with FleetScheduler(backends, hedge_after_s=None) as fleet:
            futures = [_submit(fleet, prep) for _ in range(6)]
            results = [f.result(timeout=300) for f in futures]
        assert all(r == expected for r in results)

    def test_pool_backend_matches_in_process(self, prep, expected):
        with FleetScheduler(
            [PoolBackend("pool0", workers=2)], hedge_after_s=None
        ) as fleet:
            got = _submit(fleet, prep).result(timeout=300)
        assert got == expected


class TestPlacement:
    def test_prefers_idle_lane(self, prep):
        backends = [InProcessBackend("cpu0"), InProcessBackend("cpu1")]
        with FleetScheduler(backends, hedge_after_s=None) as fleet:
            lane0, lane1 = fleet._lanes
            # Pretend cpu0 has a deep queue: the model must route around it.
            with lane0.lock:
                lane0.queued_weight = 1e9
            unit_weight = 100.0
            chosen = fleet._place(
                type("U", (), {"weight": unit_weight})()
            )
            assert chosen is lane1
            with lane0.lock:
                lane0.queued_weight = 0.0

    def test_faster_device_wins_ties(self):
        from repro.gpusim import QV100_VOLTA, TITAN_X_PASCAL

        backends = [
            SimGpuBackend("slowgpu", device=TITAN_X_PASCAL),
            SimGpuBackend("fastgpu", device=QV100_VOLTA),
        ]
        with FleetScheduler(backends, hedge_after_s=None) as fleet:
            chosen = fleet._place(type("U", (), {"weight": 1e6})())
            assert chosen.name == "fastgpu"

    def test_idle_pool_lane_wins_over_idle_cpu(self, prep, expected):
        # Pool shards run on every live worker at once, so an idle
        # two-worker pool must model as faster than an idle single core
        # (declaration order would otherwise hand the tie to cpu0).
        backends = [InProcessBackend("cpu0"), PoolBackend("pool0", workers=2)]
        with FleetScheduler(backends, hedge_after_s=None) as fleet:
            got = _submit(fleet, prep).result(timeout=300)
            by_name = {b["name"]: b for b in fleet.stats()["backends"]}
        assert got == expected
        assert by_name["pool0"]["completed"] == 1
        assert by_name["cpu0"]["completed"] == 0

    def test_estimated_wait_inf_when_all_retired(self, prep):
        with FleetScheduler([InProcessBackend("cpu0")], hedge_after_s=None) as fleet:
            assert fleet.estimated_wait_s(100.0) < float("inf")
            fleet.kill_backend("cpu0")
            assert fleet.estimated_wait_s(100.0) == float("inf")


class TestPriority:
    def test_interactive_overtakes_batch(self, prep, expected, monkeypatch):
        # One single-slot backend, held busy long enough for both classes
        # to queue behind the running unit: the interactive unit must be
        # dequeued before the batch unit that was submitted first.
        monkeypatch.setenv(_SLOW_ENV, "cpu0:0.6")
        order = []
        with FleetScheduler([InProcessBackend("cpu0")], hedge_after_s=None) as fleet:
            blocker = _submit(fleet, prep)
            time.sleep(0.1)  # let the blocker start running
            batch = _submit(fleet, prep, priority=PRIORITY_BATCH)
            interactive = _submit(fleet, prep, priority=PRIORITY_INTERACTIVE)
            batch.add_done_callback(lambda f: order.append("batch"))
            interactive.add_done_callback(lambda f: order.append("interactive"))
            results = [
                f.result(timeout=300) for f in (blocker, batch, interactive)
            ]
        assert all(r == expected for r in results)
        assert order == ["interactive", "batch"]


class TestHedging:
    def test_straggler_is_hedged_to_idle_lane(self, prep, expected, monkeypatch):
        monkeypatch.setenv(_SLOW_ENV, "slow0:30.0")
        backends = [InProcessBackend("slow0"), InProcessBackend("fast0")]
        # Declaration order breaks the placement tie, so the unit lands on
        # slow0; after hedge_after_s it must be cloned onto idle fast0 and
        # resolve from there (the loser's cancel event ends its sleep).
        with FleetScheduler(
            backends, hedge_after_s=0.2, poll_s=0.02
        ) as fleet:
            start = time.monotonic()
            got = _submit(fleet, prep).result(timeout=300)
            elapsed = time.monotonic() - start
            stats = fleet.stats()
        assert got == expected
        assert elapsed < 25.0, "result should come from the hedge, not the sleep"
        assert stats["hedges"] >= 1
        assert stats["redispatched"] >= 1

    def test_no_hedge_when_disabled(self, prep, expected):
        backends = [InProcessBackend("cpu0"), InProcessBackend("cpu1")]
        with FleetScheduler(backends, hedge_after_s=None) as fleet:
            assert fleet._monitor is None
            got = _submit(fleet, prep).result(timeout=300)
            assert fleet.stats()["hedges"] == 0
        assert got == expected


class TestFailure:
    def test_killed_backend_mid_batch_redispatches(self, prep, expected, monkeypatch):
        monkeypatch.setenv(_SLOW_ENV, "victim:0.5")
        backends = [InProcessBackend("victim"), InProcessBackend("survivor")]
        with FleetScheduler(backends, hedge_after_s=None) as fleet:
            future = _submit(fleet, prep)
            time.sleep(0.1)  # unit is inside victim's injected delay
            fleet.kill_backend("victim")
            got = future.result(timeout=300)
            stats = fleet.stats()
        assert got == expected
        assert stats["redispatched"] >= 1
        by_name = {b["name"]: b for b in stats["backends"]}
        assert by_name["victim"]["open"] is False
        assert by_name["survivor"]["completed"] >= 1

    def test_queued_units_survive_backend_death(self, prep, expected, monkeypatch):
        # Several units stacked behind a single-slot backend: killing it
        # must re-place the queued ones, not strand them.
        monkeypatch.setenv(_SLOW_ENV, "victim:0.5")
        backends = [InProcessBackend("victim"), InProcessBackend("survivor")]
        with FleetScheduler(backends, hedge_after_s=None) as fleet:
            with fleet._lanes[1].lock:
                fleet._lanes[1].queued_weight = 1e9  # force placement on victim
            futures = [_submit(fleet, prep) for _ in range(3)]
            with fleet._lanes[1].lock:
                fleet._lanes[1].queued_weight = 0.0
            time.sleep(0.1)
            fleet.kill_backend("victim")
            results = [f.result(timeout=300) for f in futures]
        assert all(r == expected for r in results)

    def test_all_backends_dead_fails_with_fleet_error(self, prep, monkeypatch):
        monkeypatch.setenv(_SLOW_ENV, "only:0.5")
        with FleetScheduler([InProcessBackend("only")], hedge_after_s=None) as fleet:
            future = _submit(fleet, prep)
            time.sleep(0.1)
            fleet.kill_backend("only")
            with pytest.raises(FleetError):
                future.result(timeout=60)
            with pytest.raises(FleetError):
                _submit(fleet, prep)

    def test_poisoned_unit_fails_alone(self, prep, expected):
        with FleetScheduler([InProcessBackend("cpu0")], hedge_after_s=None) as fleet:
            bad = fleet.submit(
                ExtensionSpec((object(),), ((0, 0, 1, 1),)),
                prep.scheme, prep.options, prep.tile,
                key="bad", weight=1.0,
            )
            with pytest.raises(Exception) as excinfo:
                bad.result(timeout=60)
            assert not isinstance(excinfo.value, FleetError)
            # The backend survives a poisoned batch.
            got = _submit(fleet, prep).result(timeout=300)
        assert got == expected

    def test_closed_backend_raises_unavailable(self, prep):
        backend = InProcessBackend("cpu0")
        backend.close()
        with pytest.raises(BackendUnavailable):
            backend.run(_spec(prep), prep.scheme, prep.options, prep.tile, key="k")


class TestValidationAndLifecycle:
    def test_needs_backends_and_unique_names(self):
        with pytest.raises(ValueError):
            FleetScheduler([])
        with pytest.raises(ValueError):
            FleetScheduler(
                [InProcessBackend("x"), InProcessBackend("x")],
                hedge_after_s=None,
            )

    def test_submit_after_close_raises(self, prep):
        fleet = FleetScheduler([InProcessBackend("cpu0")], hedge_after_s=None)
        fleet.close()
        fleet.close()  # idempotent
        with pytest.raises(FleetError):
            _submit(fleet, prep)

    def test_stats_shape(self, prep):
        with FleetScheduler(
            [InProcessBackend("cpu0"), SimGpuBackend("gpu0")], hedge_after_s=None
        ) as fleet:
            _submit(fleet, prep).result(timeout=300)
            stats = fleet.stats()
        assert set(stats) == {
            "submitted", "hedges", "redispatched", "hedge_wasted", "backends",
        }
        assert stats["submitted"] == 1
        names = {b["name"]: b["kind"] for b in stats["backends"]}
        assert names == {"cpu0": "inprocess", "gpu0": "gpusim"}
        gpu = next(b for b in stats["backends"] if b["name"] == "gpu0")
        assert "device" in gpu and "sim_seconds" in gpu

    def test_metrics_families_rendered(self, prep):
        with FleetScheduler([InProcessBackend("cpu0")], hedge_after_s=None) as fleet:
            _submit(fleet, prep).result(timeout=300)
            text = fleet.registry.render()
        for family in (
            "repro_fleet_completed_total",
            "repro_fleet_redispatched_total",
            "repro_fleet_hedges_total",
            "repro_fleet_queue_depth",
        ):
            assert family in text


class TestServiceEquivalence:
    """The acceptance gate: fleet-routed service results are bit-identical."""

    def _run(self, pairs, **kwargs):
        outs = []
        with AlignmentService(max_wait_ms=1.0, config=CONFIG, **kwargs) as service:
            for target, query in pairs:
                result = service.align(target, query, timeout_s=300)
                outs.append(
                    [
                        (a.score, a.target_start, a.target_end,
                         a.query_start, a.query_end, a.cigar())
                        for a in result.unique_alignments()
                    ]
                )
            stats = service.stats()
        return outs, stats

    def test_bit_identical_across_backend_mixes(self):
        pairs = _pairs(n=3)
        baseline, base_stats = self._run(pairs)
        # Without fleet= the service runs one in-process lane.
        assert [b["name"] for b in base_stats.fleet["backends"]] == ["cpu0"]
        mixes = {
            "inprocess": lambda: [InProcessBackend("cpu0")],
            "gpus": lambda: [SimGpuBackend("gpu0"), SimGpuBackend("gpu1")],
            "mixed": lambda: [
                InProcessBackend("cpu0"),
                SimGpuBackend("gpu0"),
                SimGpuBackend("gpu1"),
            ],
            "pool+gpu": lambda: [
                PoolBackend("pool0", workers=2),
                SimGpuBackend("gpu0"),
            ],
        }
        for label, make in mixes.items():
            outs, stats = self._run(pairs, fleet=make())
            assert outs == baseline, f"fleet mix {label!r} diverged"
            assert stats.failed == 0
            assert stats.fleet is not None
            assert stats.fleet["submitted"] >= 1

    def test_backend_killed_mid_service_degrades_gracefully(self, monkeypatch):
        monkeypatch.setenv(_SLOW_ENV, "victim:0.5")
        pairs = _pairs(n=2)
        baseline, _ = self._run(pairs)
        fleet = FleetScheduler(
            [InProcessBackend("victim"), InProcessBackend("survivor")],
            hedge_after_s=None,
        )
        outs = []
        with AlignmentService(max_wait_ms=1.0, config=CONFIG, fleet=fleet) as service:
            killer = threading.Timer(0.15, fleet.kill_backend, args=("victim",))
            killer.start()
            try:
                for target, query in pairs:
                    result = service.align(target, query, timeout_s=300)
                    outs.append(
                        [
                            (a.score, a.target_start, a.target_end,
                             a.query_start, a.query_end, a.cigar())
                            for a in result.unique_alignments()
                        ]
                    )
            finally:
                killer.cancel()
            stats = service.stats()
        assert outs == baseline
        assert stats.failed == 0
        # Either the kill landed mid-unit (redispatch) or between units
        # (survivor just takes over); both count as graceful.
        by_name = {b["name"]: b for b in stats.fleet["backends"]}
        assert by_name["victim"]["open"] is False
        assert by_name["survivor"]["open"] is True
