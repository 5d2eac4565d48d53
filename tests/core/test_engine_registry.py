"""Engine-registry contract + registry-parametrized equivalence matrix.

Two things live here.  First, the registry API itself: built-ins are
always listed, unknown names fail with the valid names in the message,
custom engines round-trip through ``register_engine`` /
``unregister_engine`` and are immediately legal ``FastzOptions.engine``
values.  Second — the reason the registry exists — every registered
engine is pushed through the same bit-identity matrix against the scalar
baseline: direct pipeline, streamed slices, worker pool,
mixed fleet backends, a job's fused chunk tasks and the whole-genome job
runner.  Registering an engine buys you this suite for free; an engine that can't pass it doesn't
belong in the registry.
"""

from dataclasses import replace

import pytest

from repro.align.engines import (
    ExtensionEngine,
    get_engine,
    register_engine,
    registered_engines,
    unregister_engine,
)
from repro.core import FastzOptions, run_fastz
from repro.core.pipeline import ExtensionSpec, extend_suffixes_shard, prepare_fastz
from repro.fleet import FleetScheduler, InProcessBackend, SimGpuBackend
from repro.genome import SegmentClass, build_pair
from repro.jobs import JobOptions, run_wga
from repro.jobs.merge import sort_canonical
from repro.jobs.runner import _extend_handler, _owned_anchors
from repro.lastz import LastzConfig, run_gapped_lastz
from repro.lastz.pipeline import select_anchors
from repro.scoring import default_scheme
from repro.workloads.profiles import BENCH_OPTIONS, bench_config

from .test_pipeline_batched import _assert_runs_identical

BUILTINS = ("batched", "scalar", "wholebin")


class TestRegistryContract:
    def test_builtins_always_listed(self):
        assert set(BUILTINS) <= set(registered_engines())
        assert registered_engines() == tuple(sorted(registered_engines()))

    def test_get_engine_resolves_pipeline_callables(self):
        from repro.core import pipeline

        assert get_engine("scalar") is pipeline._extend_suffixes_scalar
        assert get_engine("batched") is pipeline.extend_suffixes_batched
        assert get_engine("wholebin") is pipeline.extend_suffixes_batched

    def test_engines_satisfy_protocol(self):
        for name in registered_engines():
            assert isinstance(get_engine(name), ExtensionEngine)

    def test_unknown_engine_lists_valid_names(self):
        with pytest.raises(ValueError, match="wholebin"):
            get_engine("gpu")
        with pytest.raises(ValueError, match="scalar"):
            get_engine("")

    def test_register_name_validation(self):
        with pytest.raises(ValueError):
            register_engine("")
        with pytest.raises(ValueError):
            register_engine(None)

    def test_builtins_cannot_be_unregistered(self):
        for name in BUILTINS:
            with pytest.raises(ValueError):
                unregister_engine(name)
        assert set(BUILTINS) <= set(registered_engines())

    def test_custom_engine_round_trip(self):
        """register -> listed -> options accept it -> dispatched -> gone."""
        calls = []

        @register_engine("test-echo")
        def echo(suffixes, scheme, options, tile):
            calls.append(len(suffixes))
            return get_engine("scalar")(suffixes, scheme, options, tile)

        try:
            assert "test-echo" in registered_engines()
            assert get_engine("test-echo") is echo
            options = FastzOptions(engine="test-echo")
            assert extend_suffixes_shard([], None, options, 16) == []
            # Empty shard short-circuits before dispatch elsewhere; call
            # the resolved engine directly to prove the wiring.
            assert get_engine(options.engine) is echo
        finally:
            unregister_engine("test-echo")
        assert "test-echo" not in registered_engines()
        with pytest.raises(ValueError):
            FastzOptions(engine="test-echo")
        with pytest.raises(ValueError):
            get_engine("test-echo")

    def test_options_error_tracks_registry(self):
        """The validation message is generated from the live registry, so
        a freshly registered name shows up in it immediately."""
        register_engine("zz-custom")(get_engine("scalar"))
        try:
            with pytest.raises(ValueError, match="zz-custom"):
                FastzOptions(engine="no-such-engine")
            FastzOptions(engine="zz-custom")  # and is itself accepted
        finally:
            unregister_engine("zz-custom")

    def test_unregister_unknown_is_noop(self):
        unregister_engine("never-registered")


# ---------------------------------------------------------------------------
# Equivalence matrix: every registered engine vs the scalar baseline.
# ---------------------------------------------------------------------------

ENGINES = registered_engines()


@pytest.fixture(scope="module")
def anchored(tiny_genome_pair):
    config = bench_config()
    lastz = run_gapped_lastz(tiny_genome_pair.target, tiny_genome_pair.query, config)
    return tiny_genome_pair, config, lastz.anchors


@pytest.fixture(scope="module")
def scalar_baseline(anchored):
    pair, config, anchors = anchored
    return run_fastz(
        pair.target, pair.query, config,
        replace(BENCH_OPTIONS, engine="scalar"), anchors=anchors,
    )


def _run(anchored, options, **kwargs):
    pair, config, anchors = anchored
    return run_fastz(pair.target, pair.query, config, options, anchors=anchors, **kwargs)


@pytest.fixture(scope="module")
def shard_prep():
    pair = build_pair(
        "registry",
        target_length=10_000,
        query_length=10_000,
        classes=[SegmentClass("s", 5, 80, 250, divergence=0.05)],
        rng=29,
    )
    config = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))
    prep = prepare_fastz(
        pair.target.codes, pair.query.codes, config, FastzOptions(engine="scalar")
    )
    expected = extend_suffixes_shard(
        prep.suffixes(), prep.scheme, prep.options, prep.tile
    )
    return prep, expected


@pytest.fixture(scope="module")
def chunk_setup():
    pair = build_pair(
        "registry-chunk",
        target_length=10_000,
        query_length=10_000,
        classes=[SegmentClass("m", 5, 80, 250, divergence=0.06, indel_rate=0.004)],
        rng=37,
    )
    config = LastzConfig(
        scheme=default_scheme(gap_extend=60, ydrop=2400), diag_band=150
    )
    anchors = select_anchors(pair.target, pair.query, config)
    by_pair = _owned_anchors(anchors, len(pair.target), len(pair.query), 4_096)
    payloads = [
        {
            "id": task_id,
            "at": anchors.target_pos[idxs].tolist(),
            "aq": anchors.query_pos[idxs].tolist(),
        }
        for task_id, idxs in sorted(by_pair.items())
    ]
    scalar = _extend_handler(
        (pair.target.codes, pair.query.codes, config, FastzOptions(engine="scalar")),
        payloads,
        1,
    )
    return pair, config, payloads, scalar


@pytest.fixture(scope="module")
def job_setup(chunk_setup):
    pair, config, _, _ = chunk_setup
    scalar = run_fastz(pair.target, pair.query, config, FastzOptions(engine="scalar"))
    return pair, config, sort_canonical(scalar.unique_alignments())


@pytest.mark.parametrize("engine", ENGINES)
class TestEngineMatrix:
    def test_pipeline_matches_scalar(self, anchored, scalar_baseline, engine):
        got = _run(anchored, replace(BENCH_OPTIONS, engine=engine))
        _assert_runs_identical(scalar_baseline, got)

    def test_streaming_matches_scalar(self, anchored, scalar_baseline, engine):
        """A streamed run resolves the same registry name per slice;
        slicing never changes results."""
        partials = []
        got = _run(
            anchored, replace(BENCH_OPTIONS, engine=engine, batch_size=8),
            on_partial=partials.append,
        )
        _assert_runs_identical(scalar_baseline, got)
        assert len(partials) >= 2

    def test_pool_matches_scalar(self, anchored, scalar_baseline, engine):
        """Pool workers receive the engine name via pickled options and
        resolve it through the same registry in the child process."""
        got = _run(anchored, replace(BENCH_OPTIONS, engine=engine), workers=2)
        _assert_runs_identical(scalar_baseline, got)

    def test_fleet_matches_scalar(self, shard_prep, engine):
        prep, expected = shard_prep
        backends = [InProcessBackend("cpu0"), SimGpuBackend("gpu0")]
        with FleetScheduler(backends, hedge_after_s=None) as fleet:
            futures = [
                fleet.submit(
                    ExtensionSpec.fuse([(prep, None, None)]), prep.scheme,
                    replace(prep.options, engine=engine), prep.tile,
                    key=f"registry-{engine}-{i}",
                )
                for i in range(2)
            ]
            results = [f.result(timeout=300) for f in futures]
        assert all(r == expected for r in results)

    def test_chunk_matches_scalar(self, chunk_setup, engine):
        """A job unit resolves the engine name for its one fused engine
        call; every chunk task's records are the scalar engine's."""
        pair, config, payloads, scalar = chunk_setup
        got = _extend_handler(
            (pair.target.codes, pair.query.codes, config, FastzOptions(engine=engine)),
            payloads,
            1,
        )
        assert len(payloads) > 1
        assert got == scalar

    def test_job_matches_scalar(self, job_setup, engine, tmp_path):
        """A whole-genome job's workers resolve the engine name per unit;
        its output is the scalar single pass's."""
        pair, config, reference = job_setup
        report = run_wga(
            pair.target, pair.query, config, FastzOptions(engine=engine),
            job=JobOptions(chunk_size=4_096, fsync=False), job_dir=tmp_path,
        )
        assert report.n_extend_tasks > 1
        assert report.complete and report.alignments == reference


class TestWholebinObservability:
    def test_per_bin_sweep_attribution(self, anchored):
        """A wholebin pipeline run must leave per-bin sweep counters:
        each executor bin reports its sweeps and slab/masked cell split,
        with masked <= slab (the dead-lane fraction is a fraction)."""
        from repro import obs
        from repro.obs import MetricsRegistry

        registry, _ = obs.enable(MetricsRegistry())
        try:
            _run(anchored, replace(BENCH_OPTIONS, engine="wholebin"))
            sweeps = dict_by_bin(registry.counter("repro_batch_bin_sweeps_total"))
            slab = dict_by_bin(registry.counter("repro_batch_bin_slab_cells_total"))
            masked = dict_by_bin(
                registry.counter("repro_batch_bin_masked_cells_total")
            )
            assert sweeps, "no per-bin sweep samples recorded"
            for bin_id, n in sweeps.items():
                assert n >= 1
                assert 0 <= masked.get(bin_id, 0) <= slab[bin_id]
        finally:
            obs.disable()

    def test_inspector_span_carries_sweep_ledger(self, anchored):
        """The inspector span gets the ledger the executor spans carry."""
        from repro import obs
        from repro.obs import MetricsRegistry

        _, tracer = obs.enable(MetricsRegistry())
        try:
            _run(anchored, replace(BENCH_OPTIONS, engine="wholebin"))
            (insp,) = tracer.last_root("fastz.run").find("fastz.inspector")
        finally:
            obs.disable()
        attrs = insp.attributes
        assert attrs["sweeps"] >= 1 and attrs["tail_rows"] >= 0
        assert 0 <= attrs["masked_fraction"] <= 1
        assert attrs["occupancy"] == pytest.approx(1 - attrs["masked_fraction"])

    def test_wholebin_blocks_capped_by_batch_size(self, anchored, monkeypatch):
        """``"wholebin"`` names the one lockstep engine: no lockstep block
        exceeds ``batch_size`` rows, and the extend span keeps the name."""
        from repro import obs
        from repro.align import batch
        from repro.obs import MetricsRegistry

        sizes = []
        lockstep = batch._extend_lockstep

        def spy(pairs, *args, **kwargs):
            sizes.append(len(pairs))
            return lockstep(pairs, *args, **kwargs)

        monkeypatch.setattr(batch, "_extend_lockstep", spy)
        _, tracer = obs.enable(MetricsRegistry())
        try:
            _run(anchored, replace(BENCH_OPTIONS, engine="wholebin", batch_size=8))
            (extend,) = tracer.last_root("fastz.run").find("fastz.extend")
        finally:
            obs.disable()
        assert sizes and max(sizes) == 8
        assert extend.attributes["engine"] == "wholebin"


def dict_by_bin(counter):
    return {
        dict(key).get("bin"): child.value
        for key, child in counter.samples()
    }
