"""Micro-benchmarks of the DP engines themselves (implementation health).

Not a paper figure: these time this library's extension engines on fixed
homologous extensions so regressions in the hot loops are visible, and
compare the scalar per-anchor loop against the lockstep struct-of-arrays
batch engine on a full >=500-anchor pipeline run (the host-side analogue
of the paper's inter-task parallelism).  The engine comparison appends a
trajectory point to ``bench_results/BENCH_engines.json``.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.align import (
    LockstepArena,
    batch_wavefront_extend,
    gotoh_extend,
    wavefront_extend,
    ydrop_extend,
)
from repro.genome import mutate, random_codes
from repro.scoring import default_scheme


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(99)
    core = random_codes(rng, 400)
    q_core = mutate(core, rng, divergence=0.07, indel_rate=0.005)
    target = np.concatenate([core, random_codes(rng, 800)])
    query = np.concatenate([q_core, random_codes(rng, 800)])
    scheme = default_scheme(gap_extend=60, ydrop=2400)
    return target, query, scheme


def test_ydrop_row_engine(benchmark, workload):
    target, query, scheme = workload
    result = benchmark(ydrop_extend, target, query, scheme)
    benchmark.extra_info["cells"] = result.stats.cells
    benchmark.extra_info["rows"] = result.stats.rows
    assert result.end_i > 300


def test_wavefront_engine(benchmark, workload):
    target, query, scheme = workload
    result = benchmark(wavefront_extend, target, query, scheme)
    benchmark.extra_info["cells"] = result.stats.cells
    benchmark.extra_info["diagonals"] = result.stats.diagonals
    assert result.end_i > 300


def test_wavefront_with_traceback(benchmark, workload):
    target, query, scheme = workload
    result = benchmark(wavefront_extend, target, query, scheme, traceback=True)
    assert result.ops is not None


def test_gotoh_reference_small(benchmark, workload):
    target, query, scheme = workload
    result = benchmark(gotoh_extend, target[:80], query[:80], scheme)
    assert result.score > 0


def test_engines_agree(workload):
    target, query, scheme = workload
    w = wavefront_extend(target, query, scheme)
    y = ydrop_extend(target, query, scheme)
    assert (w.score, w.end_i, w.end_j) == (y.score, y.end_i, y.end_j)


# ---------------------------------------------------------------------------
# Scalar vs batched engine on a full pipeline workload
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suffix_batch():
    """A few hundred independent extension problems for the batch engine."""
    rng = np.random.default_rng(7)
    scheme = default_scheme(gap_extend=60, ydrop=2400)
    pairs = []
    for _ in range(256):
        core = random_codes(rng, int(rng.integers(20, 200)))
        q_core = mutate(core, rng, divergence=0.08, indel_rate=0.01)
        pairs.append(
            (
                np.concatenate([core, random_codes(rng, 300)]),
                np.concatenate([q_core, random_codes(rng, 300)]),
            )
        )
    return pairs, scheme


def test_batch_wavefront_engine(benchmark, suffix_batch):
    pairs, scheme = suffix_batch
    results = benchmark(
        batch_wavefront_extend, pairs, scheme, eager_tile=16, batch_size=256
    )
    benchmark.extra_info["tasks"] = len(results)
    assert len(results) == len(pairs)


def test_batch_wavefront_engine_warm_arena(benchmark, suffix_batch):
    """The steady-state service path: every sweep reuses one warm arena.

    One untimed pass warms the slabs, so the benchmark measures the
    allocation-free path the dispatcher thread and pool workers run;
    results must match the scalar engine exactly.
    """
    pairs, scheme = suffix_batch
    arena = LockstepArena()
    batch_wavefront_extend(
        pairs, scheme, eager_tile=16, batch_size=256, arena=arena
    )
    results = benchmark(
        batch_wavefront_extend,
        pairs,
        scheme,
        eager_tile=16,
        batch_size=256,
        arena=arena,
    )
    benchmark.extra_info["arena_allocs"] = arena.allocations
    benchmark.extra_info["arena_reuses"] = arena.reuses
    assert arena.reuses > 0
    for (t, q), got in zip(pairs[:32], results[:32]):
        ref = wavefront_extend(t, q, scheme, eager_tile=16)
        assert (got.score, got.end_i, got.end_j) == (ref.score, ref.end_i, ref.end_j)
        assert got.stats == ref.stats


def test_scalar_vs_batched_pipeline(emit, results_dir):
    """Acceptance gate: the batched engine must beat the per-anchor loop by
    >=3x on a >=500-anchor workload while staying bit-identical.

    Appends the measurement as a trajectory point to BENCH_engines.json so
    engine regressions are visible across sessions.

    ``REPRO_ENGINE_SMOKE=1`` (CI) shrinks the workload and keeps only the
    bit-identity assertions: shared runners make timing gates meaningless,
    and a smoke run must not pollute the recorded trajectory.
    """
    from dataclasses import replace

    from repro.core import run_fastz
    from repro.lastz import run_gapped_lastz
    from repro.workloads import build_benchmark_pair, get_benchmark
    from repro.workloads.profiles import BENCH_OPTIONS, bench_config

    smoke = os.environ.get("REPRO_ENGINE_SMOKE") == "1"
    spec = get_benchmark("D1_2R,2")
    pair = build_benchmark_pair(spec, 0.25 if smoke else 1.0)
    config = bench_config()
    anchors = run_gapped_lastz(pair.target, pair.query, config).anchors

    def timed(options, workers=None):
        start = time.perf_counter()
        result = run_fastz(
            pair.target, pair.query, config, options, anchors=anchors, workers=workers
        )
        return time.perf_counter() - start, result

    t_scalar, scalar = timed(replace(BENCH_OPTIONS, engine="scalar"))
    t_batched, batched = timed(replace(BENCH_OPTIONS, engine="batched"))
    # Repeat batched runs: the pipeline's thread-local arenas are warm
    # after the first pass, so these measure the steady-state
    # allocation-free sweep a long-lived service reaches
    # (`arena_seconds`, min-of-2 against single-core scheduler noise).
    t_arena, arena_run = timed(replace(BENCH_OPTIONS, engine="batched"))
    t_arena2, _ = timed(replace(BENCH_OPTIONS, engine="batched"))
    t_arena = min(t_arena, t_arena2)
    t_pool, pooled = timed(replace(BENCH_OPTIONS, engine="batched"), workers=2)

    n = len(scalar.tasks)
    if not smoke:
        assert n >= 500, f"workload too small for the acceptance gate ({n} anchors)"
    for ref, alt in (
        (batched, "batched"),
        (arena_run, "batched+warm-arena"),
        (pooled, "batched+pool"),
    ):
        assert ref.tasks == scalar.tasks, f"{alt}: task profiles diverged"
        assert [
            (a.target_start, a.target_end, a.query_start, a.query_end, a.score)
            for a in ref.alignments
        ] == [
            (a.target_start, a.target_end, a.query_start, a.query_end, a.score)
            for a in scalar.alignments
        ], f"{alt}: alignments diverged"

    if smoke:
        emit(
            "bench_engines_smoke",
            f"engine smoke on {spec.name} @ scale 0.25 ({n} anchors): "
            "scalar/batched/warm-arena/pool bit-identical "
            "(timing gates skipped)",
        )
        return

    trajectory_path = results_dir / "BENCH_engines.json"
    trajectory = (
        json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
    )
    prior = trajectory[-1] if trajectory else None

    cpus = os.cpu_count() or 1
    speedup = t_scalar / t_batched
    point = {
        "benchmark": spec.name,
        "n_tasks": n,
        "cpu_count": cpus,
        "scalar_seconds": round(t_scalar, 4),
        "batched_seconds": round(t_batched, 4),
        "arena_seconds": round(t_arena, 4),
        "pool_seconds": round(t_pool, 4),
        "speedup": round(speedup, 2),
        "arena_speedup": round(t_scalar / t_arena, 2),
        "pool_speedup": round(t_scalar / t_pool, 2),
        "batch_size": BENCH_OPTIONS.batch_size,
    }
    lines = [
        f"engine comparison on {spec.name} @ scale 1.0 ({n} anchors)",
        f"  scalar per-anchor loop: {t_scalar * 1e3:9.1f} ms",
        f"  batched lockstep:       {t_batched * 1e3:9.1f} ms  "
        f"({speedup:.1f}x)",
        f"  warm-arena lockstep:    {t_arena * 1e3:9.1f} ms  "
        f"({t_scalar / t_arena:.1f}x)",
        f"  batched + pool(2):      {t_pool * 1e3:9.1f} ms  "
        f"({t_scalar / t_pool:.1f}x)",
        "  results bit-identical across engines",
    ]
    # Cross-session gate: the arena engine against the previous entry's
    # batched time.  Prior entries were recorded on earlier sessions'
    # machines, so the ratio is only meaningful with real cores under it;
    # on a <2-core box the gate is skipped and the caveat recorded, as
    # BENCH_jobs/BENCH_service do for their scaling gates.
    if prior and "batched_seconds" in prior:
        vs_prior = prior["batched_seconds"] / t_arena
        point["arena_vs_prior_batched"] = round(vs_prior, 2)
        if cpus >= 2:
            assert vs_prior >= 2.0, (
                f"arena engine only {vs_prior:.2f}x over the prior session's "
                f"batched engine (gate: >= 2x)"
            )
            lines.append(
                f"  arena vs prior batched: {vs_prior:.1f}x (gate >= 2x passed)"
            )
        else:
            point["arena_gate"] = (
                f"skipped: {cpus} cpu visible; prior batched_seconds came from "
                "a different machine, single-core wall-clock ratios are not "
                "comparable (same-machine engine A/B is tracked in-session)"
            )
            lines.append(
                f"  arena vs prior batched: {vs_prior:.1f}x "
                f"(gate skipped: {cpus} cpu)"
            )
    trajectory.append(point)
    trajectory_path.write_text(json.dumps(trajectory, indent=2) + "\n")

    emit("bench_engines", "\n".join(lines))
    assert speedup >= 3.0, f"batched engine only {speedup:.2f}x vs scalar"
