"""Command-line interface: a LASTZ-style front end over the library.

Four subcommands:

``align``
    Align two FASTA files (target, query) with the gapped pipeline —
    sequential LASTZ semantics by default, ``--engine fastz`` for the
    inspector-executor pipeline, ``--engine ungapped`` for the
    ungapped-filter variant.  Output is LASTZ ``--format=general``-style
    tab-separated rows.

``synth``
    Synthesise a related chromosome pair with planted homology and write
    it to FASTA (handy for trying ``align`` without real genomes).

``bench``
    Build (or load) one registry benchmark's work profile and print the
    modelled speedup report for it.

``serve``
    Run the concurrent alignment service (:mod:`repro.service`) behind the
    asyncio front door's versioned JSON/HTTP endpoint: ``POST /v1/align``,
    ``GET /v1/stats``, ``GET /v1/metrics``, ``GET /v1/healthz`` (legacy
    unversioned paths 307-redirect).  Fused batches run on the fleet
    scheduler's lanes: ``cpu0``, plus ``pool0`` (``--workers N``, N
    persistent worker processes) and ``--fleet-gpus`` simulated GPUs, with
    bit-identical results on every lane.

``trace``
    Align one FASTA pair with observability enabled (:mod:`repro.obs`)
    and print the span tree of the run — seeding, inspector, per-bin
    executor dispatches, traceback — plus the paper-relevant ratios
    (eager fraction, per-bin task counts, memory traffic elided).

``wga``
    Durable whole-genome alignment job (:mod:`repro.jobs`): the anchors
    each chunk pair of a ``--chunk-size`` grid owns form one task, tasks
    run on a fault-tolerant worker pool, and every completed task is
    journaled under ``--job-dir`` — re-running the same command resumes
    where the last run stopped.
    Output is byte-identical to ``align --engine fastz`` at any worker
    count.

``refs``
    Manage a reference store (:mod:`repro.store`): ``refs add`` packs
    FASTA records into content-addressed 2-bit files, ``refs ls`` lists
    them, ``refs rm`` evicts one.  Everywhere ``align``, ``trace`` and
    ``wga`` take a FASTA path they also take ``ref:<digest-or-prefix>``,
    resolved against the store (``--store`` / ``$REPRO_STORE_DIR`` /
    ``.repro_store``).

Run ``python -m repro.cli <subcommand> --help`` for the options.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence as Seq

from .align.engines import registered_engines
from .core import FastzOptions, run_fastz, time_fastz, time_feng_baseline
from .genome import SegmentClass, build_pair, read_fasta, write_fasta
from .gpusim import ALL_DEVICES
from .lastz import (
    LastzConfig,
    multicore_seconds,
    run_gapped_lastz,
    run_ungapped_lastz,
    sequential_seconds,
)
from .scoring import default_scheme

__all__ = ["main", "build_parser"]


def _add_scoring_args(parser: argparse.ArgumentParser) -> None:
    """Scoring/seeding options shared by ``align``, ``serve`` and ``trace``."""
    parser.add_argument("--gap-open", type=int, default=400)
    parser.add_argument("--gap-extend", type=int, default=30)
    parser.add_argument("--ydrop", type=int, default=None)
    parser.add_argument("--hsp-threshold", type=int, default=3000)
    parser.add_argument("--gapped-threshold", type=int, default=3000)
    parser.add_argument("--seed-length", type=int, default=19)
    parser.add_argument("--collapse-window", type=int, default=500)
    parser.add_argument("--diag-band", type=int, default=150)


def _config_from_args(args: argparse.Namespace, **extra) -> LastzConfig:
    scheme = default_scheme(
        gap_open=args.gap_open,
        gap_extend=args.gap_extend,
        ydrop=args.ydrop,
        hsp_threshold=args.hsp_threshold,
        gapped_threshold=args.gapped_threshold,
    )
    return LastzConfig(
        scheme=scheme,
        seed_length=args.seed_length,
        collapse_window=args.collapse_window,
        diag_band=args.diag_band,
        **extra,
    )


def _store_root(args: argparse.Namespace) -> str:
    """Resolve the store directory: flag, then env, then ``.repro_store``."""
    return (
        getattr(args, "store", None)
        or os.environ.get("REPRO_STORE_DIR")
        or ".repro_store"
    )


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        help="reference store directory (default: $REPRO_STORE_DIR or "
        ".repro_store)",
    )


def _add_batch_size_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-size",
        type=int,
        default=FastzOptions.batch_size,
        help="rows per lockstep block (batched/wholebin; bounds slab memory)",
    )


def _load_side(spec: str, args: argparse.Namespace):
    """Resolve one sequence argument: FASTA path or ``ref:<digest-prefix>``.

    A ``ref:`` spec gives the stored handle itself, which goes wherever a
    sequence goes; as a target it seeds from its persisted table.
    """
    if spec.startswith("ref:"):
        from .store import ReferenceStore

        store = ReferenceStore(_store_root(args))
        return store.get(store.resolve(spec[len("ref:"):]))
    return read_fasta(spec)[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastz-repro",
        description="FastZ reproduction: gapped whole-genome alignment.",
    )
    from . import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    align = sub.add_parser("align", help="align two FASTA files")
    align.add_argument(
        "target", help="target FASTA (first record used) or ref:<digest>"
    )
    align.add_argument(
        "query", help="query FASTA (first record used) or ref:<digest>"
    )
    _add_store_arg(align)
    fastz_variants = tuple(f"fastz-{name}" for name in registered_engines())
    align.add_argument(
        "--engine",
        choices=("lastz", "fastz", "ungapped") + fastz_variants,
        default="lastz",
        help="pipeline variant (default: sequential gapped LASTZ; "
        "fastz-<engine> picks a registered extension engine, e.g. "
        "fastz-batched (or its other name, fastz-wholebin) for the "
        "lockstep engine)",
    )
    _add_batch_size_arg(align)
    align.add_argument(
        "--workers",
        type=int,
        default=0,
        help="extend anchors in N worker processes, in LPT-balanced shards "
        "(fastz engines, with or without --stream)",
    )
    align.add_argument(
        "--stream",
        action="store_true",
        help="extend anchors in slices of batch-size/2 (fastz engines); "
        "prints a progress line per slice on stderr, output unchanged",
    )
    _add_scoring_args(align)
    align.add_argument("--no-cigar", action="store_true", help="skip tracebacks")
    align.add_argument(
        "--format",
        choices=("general", "maf"),
        default="general",
        help="output format (maf requires tracebacks)",
    )
    align.add_argument("--output", default=None, help="write to a file instead of stdout")

    synth = sub.add_parser("synth", help="synthesise a related genome pair")
    synth.add_argument("--target-out", required=True)
    synth.add_argument("--query-out", required=True)
    synth.add_argument("--length", type=int, default=100_000)
    synth.add_argument("--segments", type=int, default=150)
    synth.add_argument("--segment-min", type=int, default=19)
    synth.add_argument("--segment-max", type=int, default=400)
    synth.add_argument("--divergence", type=float, default=0.05)
    synth.add_argument("--indel-rate", type=float, default=0.003)
    synth.add_argument("--rng-seed", type=int, default=0)

    bench = sub.add_parser("bench", help="modelled speedup report for a benchmark")
    bench.add_argument("--benchmark", default="C1_1,1")
    bench.add_argument("--scale", type=float, default=0.25)
    bench.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for uncached profile builds",
    )

    serve = sub.add_parser(
        "serve", help="JSON/HTTP alignment service with micro-batching"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="requests fused into one lockstep dispatch (1 = no batching)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="how long an under-full batch waits for stragglers",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="queued-request bound; beyond it submissions get HTTP 503",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=128,
        help="LRU result-cache capacity (0 disables caching)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="add a pool0 lane whose N persistent worker processes shard "
        "each fused batch (0 = the in-process cpu0 lane only)",
    )
    serve.add_argument(
        "--max-inflight-mb",
        type=int,
        default=256,
        help="admission-control bound on queued sequence megabytes; "
        "beyond it submissions get HTTP 503 + Retry-After (0 = unbounded)",
    )
    serve.add_argument(
        "--store",
        default=None,
        help="serve a reference store: enables POST /v1/references and "
        "align-by-digest (target_ref/query_ref)",
    )
    serve.add_argument(
        "--max-body-mb",
        type=int,
        default=64,
        help="largest raw /v1/align body accepted before HTTP 413 points "
        "the caller at POST /v1/references",
    )
    serve.add_argument(
        "--grace-s",
        type=float,
        default=5.0,
        help="graceful-drain bound on SIGTERM/SIGINT: seconds to wait for "
        "in-flight requests before force-closing their connections",
    )
    serve.add_argument(
        "--fleet",
        action="store_true",
        help="accepted for compatibility and ignored: serve always runs "
        "the asyncio front door over the fleet scheduler",
    )
    serve.add_argument(
        "--fleet-gpus",
        type=int,
        default=0,
        help="simulated-GPU backends added to the fleet beside cpu0 "
        "(and pool0 when --workers>0); extension batches are placed "
        "least-loaded-first with hedged re-dispatch",
    )
    serve.add_argument(
        "--fleet-gpu-device",
        default="qv100",
        help="device spec for simulated-GPU backends, e.g. qv100, "
        "titanx, rtx3080",
    )
    serve.add_argument(
        "--fleet-hedge-ms",
        type=float,
        default=500.0,
        help="straggler threshold before a unit is hedged onto an idle "
        "backend (multi-backend fleets); 0 disables hedging",
    )
    serve.add_argument(
        "--quota",
        default=None,
        help="per-tenant admission quotas as tenant=rate/burst pairs, "
        "e.g. 'default=10/20,alice=100/200'; tenants come from the "
        "X-API-Key header",
    )
    _add_scoring_args(serve)
    serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )

    trace = sub.add_parser(
        "trace",
        help="align one FASTA pair and print the instrumented span tree",
    )
    trace.add_argument(
        "target", help="target FASTA (first record used) or ref:<digest>"
    )
    trace.add_argument(
        "query", help="query FASTA (first record used) or ref:<digest>"
    )
    _add_store_arg(trace)
    trace.add_argument(
        "--engine",
        choices=registered_engines(),
        default="batched",
        help="extension engine to trace (default: batched)",
    )
    _add_batch_size_arg(trace)
    trace.add_argument(
        "--metrics",
        action="store_true",
        help="also print the Prometheus text rendering of the run's counters",
    )
    _add_scoring_args(trace)

    wga = sub.add_parser(
        "wga",
        help="segmented, checkpointed whole-genome alignment job",
    )
    wga.add_argument(
        "target", help="target FASTA (first record used) or ref:<digest>"
    )
    wga.add_argument(
        "query", help="query FASTA (first record used) or ref:<digest>"
    )
    _add_store_arg(wga)
    wga.add_argument(
        "--job-dir",
        required=True,
        help="durable state directory (journal lives here; rerun to resume)",
    )
    wga.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = run chunks inline in this process)",
    )
    wga.add_argument(
        "--chunk-size",
        type=int,
        default=32_768,
        help="core tile size per sequence, in bases: the ownership grid "
        "that keys extend tasks (extension runs on the whole sequences)",
    )
    wga.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per chunk task before it is quarantined",
    )
    wga.add_argument(
        "--engine",
        choices=registered_engines(),
        default="scalar",
        help="extension engine inside each chunk task",
    )
    _add_batch_size_arg(wga)
    wga.add_argument(
        "--fresh",
        action="store_true",
        help="discard any existing journal instead of resuming from it",
    )
    wga.add_argument(
        "--quiet", action="store_true", help="suppress per-chunk progress lines"
    )
    wga.add_argument(
        "--follow",
        action="store_true",
        help="print each alignment on stderr the moment the incremental "
        "merge finalizes it (mid-run, in anchor order); output unchanged",
    )
    wga.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when any chunk was quarantined (output has alignment "
        "gaps); default exits 0 and reports the gaps on stderr",
    )
    _add_scoring_args(wga)
    wga.add_argument(
        "--format",
        choices=("general", "maf"),
        default="general",
        help="output format",
    )
    wga.add_argument("--output", default=None, help="write to a file instead of stdout")

    refs = sub.add_parser("refs", help="manage the reference store")
    refs_sub = refs.add_subparsers(dest="refs_command", required=True)
    refs_add = refs_sub.add_parser(
        "add", help="register FASTA records (gzip ok) in the store"
    )
    refs_add.add_argument(
        "fasta", nargs="+", help="FASTA files (.fa or .fa.gz); every record "
        "in each file is registered"
    )
    _add_store_arg(refs_add)
    refs_add.add_argument(
        "--precompute-seeds",
        action="store_true",
        help="also build and cache the seed table for each reference",
    )
    refs_add.add_argument(
        "--seed-length", type=int, default=19,
        help="seed length for --precompute-seeds",
    )
    refs_ls = refs_sub.add_parser("ls", help="list registered references")
    _add_store_arg(refs_ls)
    refs_rm = refs_sub.add_parser(
        "rm", help="remove one reference (and its cached seed tables)"
    )
    refs_rm.add_argument("digest", help="digest or unique prefix")
    _add_store_arg(refs_rm)
    return parser


def _align_command(args: argparse.Namespace) -> int:
    target = _load_side(args.target, args)
    query = _load_side(args.query, args)
    config = _config_from_args(args, traceback=not args.no_cigar)

    fastz_like = args.engine == "fastz" or args.engine.startswith("fastz-")
    if args.stream and not fastz_like:
        print(
            "error: --stream requires a fastz engine (--engine fastz[-<name>])",
            file=sys.stderr,
        )
        return 2
    if fastz_like:
        from . import api

        on_partial = None
        if args.stream:
            def on_partial(partial):
                print(
                    f"# stream batch {partial.seq}: {partial.n_anchors} anchors "
                    f"({partial.done_anchors} done), "
                    f"{len(partial.alignments)} alignments, "
                    f"{partial.wall_s:.3f}s",
                    file=sys.stderr,
                )

        result = api.align(
            target,
            query,
            config,
            {
                "engine": args.engine[6:] if args.engine.startswith("fastz-") else "scalar",
                "batch_size": args.batch_size,
            },
            workers=args.workers or None,
            on_partial=on_partial,
        )
        alignments = result.unique_alignments()
    elif args.engine == "ungapped":
        alignments = run_ungapped_lastz(target, query, config).alignments
    else:
        alignments = run_gapped_lastz(target, query, config).alignments

    from .lastz.output import write_general, write_maf

    if args.format == "maf" and args.no_cigar:
        print("error: --format maf requires tracebacks (drop --no-cigar)",
              file=sys.stderr)
        return 2
    sink = open(args.output, "w", encoding="ascii") if args.output else sys.stdout
    try:
        if args.format == "maf":
            write_maf(sink, alignments, target, query)
        else:
            write_general(sink, alignments, target, query)
    finally:
        if args.output:
            sink.close()
    print(f"# {len(alignments)} alignments ({args.engine})", file=sys.stderr)
    return 0


def _synth_command(args: argparse.Namespace) -> int:
    pair = build_pair(
        "synth",
        target_length=args.length,
        query_length=args.length,
        classes=[
            SegmentClass(
                "planted",
                args.segments,
                args.segment_min,
                args.segment_max,
                divergence=args.divergence,
                indel_rate=args.indel_rate,
            )
        ],
        rng=args.rng_seed,
    )
    write_fasta(args.target_out, [pair.target])
    write_fasta(args.query_out, [pair.query])
    print(
        f"wrote {args.target_out} ({len(pair.target):,} bp) and "
        f"{args.query_out} ({len(pair.query):,} bp), "
        f"{len(pair.segments)} planted homologies",
        file=sys.stderr,
    )
    return 0


def _bench_command(args: argparse.Namespace) -> int:
    from .workloads import build_profile, get_benchmark
    from .workloads.profiles import BENCH_OPTIONS, bench_calibration

    profile = build_profile(
        get_benchmark(args.benchmark),
        scale=args.scale,
        workers=args.workers or None,
    )
    calib = bench_calibration()
    cpu = sequential_seconds(profile.cpu_cells)
    print(f"{args.benchmark} @ scale {args.scale}: {profile.n_anchors} anchors")
    print(f"  bins [eager,1-4]: {profile.fastz.bin_counts().tolist()}")
    print(f"  sequential LASTZ (modelled): {cpu * 1e3:.2f} ms")
    print(f"  multicore x32:   {cpu / multicore_seconds(profile.cpu_cells):6.1f}x")
    for dev in ALL_DEVICES:
        feng = cpu / time_feng_baseline(profile.arrays, dev, calib)
        t = time_fastz(
            profile.arrays,
            dev,
            BENCH_OPTIONS,
            calib,
            transfer_bytes=profile.transfer_bytes,
        )
        print(
            f"  {dev.name:<10} GPU-baseline {feng:5.2f}x   "
            f"FastZ {cpu / t.total_seconds:6.1f}x"
        )
    return 0


def _build_fleet(args: argparse.Namespace):
    """The backend roster + scheduler ``serve`` dispatches through."""
    from .fleet import FleetScheduler, InProcessBackend, PoolBackend, SimGpuBackend
    from .gpusim import device_by_name
    from .obs import MetricsRegistry

    # One registry for the scheduler and the pool: the service splices it
    # into /v1/metrics.
    registry = MetricsRegistry()
    backends = [InProcessBackend("cpu0")]
    if args.workers > 0:
        backends.append(
            PoolBackend("pool0", workers=args.workers, registry=registry)
        )
    device = device_by_name(args.fleet_gpu_device)
    for i in range(max(0, args.fleet_gpus)):
        backends.append(SimGpuBackend(f"gpu{i}", device=device))
    hedge_s = args.fleet_hedge_ms / 1000.0 if args.fleet_hedge_ms > 0 else None
    return FleetScheduler(backends, registry=registry, hedge_after_s=hedge_s)


def _serve_command(args: argparse.Namespace) -> int:
    from . import obs
    from .fleet import TenantQuotas, serve_fleet
    from .service import AlignmentService

    # Process-wide observability: /v1/metrics appends the global registry,
    # which is where the pipeline and lockstep-engine families (batch
    # occupancy, arena reuse) land.  The tracer bounds itself to the last
    # 32 root spans, so a long-lived server cannot grow without limit.
    obs.enable()
    fleet = _build_fleet(args)
    service = AlignmentService(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        max_inflight_bytes=(args.max_inflight_mb * 1024 * 1024) or None,
        cache_entries=args.cache_entries,
        config=_config_from_args(args),
        store=args.store,
        fleet=fleet,
    )
    quotas = TenantQuotas.from_spec(args.quota) if args.quota else None

    def _on_ready(host: str, port: int) -> None:
        roster = ",".join(backend.name for backend in fleet.backends)
        print(
            f"serving alignments on http://{host}:{port}/v1 "
            f"(fleet=[{roster}], hedge={args.fleet_hedge_ms:g}ms, "
            f"quota={args.quota or 'off'}, max_batch={args.max_batch}, "
            f"store={args.store or 'none'})",
            file=sys.stderr,
        )

    # SIGTERM/SIGINT begin a *bounded graceful drain*: new requests get
    # 503, in-flight streams close with a terminal error record, and
    # connections still open after --grace-s are force-closed.
    def _on_drain() -> None:
        print(
            f"draining and shutting down (grace {args.grace_s:g}s)...",
            file=sys.stderr,
        )

    try:
        serve_fleet(
            service,
            args.host,
            args.port,
            quotas=quotas,
            max_align_body=args.max_body_mb * 1024 * 1024,
            grace_s=args.grace_s,
            on_ready=_on_ready,
            on_drain=_on_drain,
            access_log=args.verbose,
        )
    finally:
        service.shutdown(drain=True)
    return 0


def _trace_command(args: argparse.Namespace) -> int:
    from . import obs
    from .analysis.traffic import traffic_report
    from .obs.tracing import render_span_tree

    # A store-backed target seeds from its persisted table: a cold run
    # builds and persists it (one fastz.seed_table span in the trace), a
    # warm run loads it and shows no build.
    target = _load_side(args.target, args)
    query = _load_side(args.query, args)
    config = _config_from_args(args)
    options = FastzOptions(engine=args.engine, batch_size=args.batch_size)

    registry, tracer = obs.enable()
    try:
        result = run_fastz(target, query, config, options)
        root = tracer.last_root("fastz.run")
    finally:
        obs.disable()

    if root is None:  # pragma: no cover - instrumentation always spans run
        print("error: no trace captured for the run", file=sys.stderr)
        return 1
    print(render_span_tree(root))

    bins = result.bin_counts().tolist()
    report = traffic_report(result.arrays)
    print(f"anchors:            {len(result.tasks)}")
    print(f"alignments:         {len(result.unique_alignments())}")
    print(
        f"eager fraction:     {result.eager_fraction:.4f} "
        f"({result.eager_count}/{len(result.tasks)} anchor tasks)"
    )
    print(f"bins [eager,1-4]:   {bins}")
    print(
        f"traffic elided:     score {100 * report.score_traffic_reduction:.1f}%, "
        f"overall {100 * report.overall_access_reduction:.1f}% "
        "(paper: >96% / ~97%)"
    )
    occupancy = registry.histogram("repro_batch_occupancy")
    if occupancy.count():
        acquires = registry.counter("repro_batch_arena_acquires_total").value()
        allocs = registry.counter("repro_batch_arena_allocs_total").value()
        print(
            f"batch occupancy:    {occupancy.sum() / occupancy.count():.3f} "
            f"mean live/slab cells over {occupancy.count()} lockstep sweeps; "
            f"arena: {int(allocs)} allocs / {int(acquires)} slab checkouts"
        )
    steps = registry.counter("repro_batch_sweep_steps_total").value()
    tail_rows = registry.counter("repro_batch_tail_rows_total").value()
    if steps or tail_rows:
        slab = registry.counter("repro_batch_sweep_slab_cells_total").value()
        alive = registry.counter("repro_batch_sweep_live_cells_total").value()
        tail_steps = registry.counter("repro_batch_tail_steps_total").value()
        masked = (1.0 - alive / slab) if slab else 0.0
        print(
            f"lockstep sweeps:    {int(steps)} anti-diagonal steps; "
            "masked dead-lane fraction "
            f"{100 * masked:.1f}% of {int(slab)} slab cells; row-kernel "
            f"tail {int(tail_rows)} rows / {int(tail_steps)} steps"
        )
    # Per-bin executor sweep ledger (visible without a profiler): sweeps
    # per bin and the dead-work share.
    bin_sweeps = {
        dict(key).get("bin", "?"): child.value
        for key, child in registry.counter("repro_batch_bin_sweeps_total").samples()
    }
    if bin_sweeps:
        bin_slab = {
            dict(key).get("bin", "?"): child.value
            for key, child in registry.counter(
                "repro_batch_bin_slab_cells_total"
            ).samples()
        }
        bin_masked = {
            dict(key).get("bin", "?"): child.value
            for key, child in registry.counter(
                "repro_batch_bin_masked_cells_total"
            ).samples()
        }
        parts = []
        for bin_id in sorted(bin_sweeps, key=str):
            slab = bin_slab.get(bin_id, 0.0)
            frac = (bin_masked.get(bin_id, 0.0) / slab) if slab else 0.0
            parts.append(
                f"bin {bin_id}: {int(bin_sweeps[bin_id])} sweeps, "
                f"{100 * frac:.1f}% masked"
            )
        print(f"executor bins:      {'; '.join(parts)}")
    if args.metrics:
        print()
        print(registry.render(), end="")
    return 0


def _wga_command(args: argparse.Namespace) -> int:
    from . import api
    from .jobs import JobOptions
    from .lastz.output import write_general, write_maf

    target = _load_side(args.target, args)
    query = _load_side(args.query, args)
    config = _config_from_args(args)
    say = (lambda _msg: None) if args.quiet else (
        lambda msg: print(f"# {msg}", file=sys.stderr)
    )

    on_alignment = None
    if args.follow:
        def on_alignment(a):
            print(
                f"# >> t {a.target_start}-{a.target_end} "
                f"q {a.query_start}-{a.query_end} score {a.score}",
                file=sys.stderr,
            )

    report = api.align_chunked(
        target,
        query,
        config,
        {"engine": args.engine, "batch_size": args.batch_size},
        job=JobOptions(
            chunk_size=args.chunk_size,
            workers=args.workers,
            max_attempts=args.max_attempts,
        ),
        job_dir=args.job_dir,
        fresh=args.fresh,
        log=say,
        on_alignment=on_alignment,
    )

    sink = open(args.output, "w", encoding="ascii") if args.output else sys.stdout
    try:
        if args.format == "maf":
            write_maf(sink, report.alignments, target, query)
        else:
            write_general(sink, report.alignments, target, query)
    finally:
        if args.output:
            sink.close()

    status = "complete" if report.complete else (
        f"complete with {len(report.quarantined)} quarantined chunk(s)"
    )
    print(
        f"# wga {status}: {len(report.alignments)} alignments, "
        f"{report.n_anchors} anchors, {report.retries} retries, "
        f"{report.worker_deaths} worker deaths, {report.elapsed_s:.2f}s"
        + (" (resumed)" if report.resumed else ""),
        file=sys.stderr,
    )
    for gap in report.quarantined:
        print(
            f"# wga gap: {gap.phase} task {gap.task_id} failed "
            f"{gap.attempts} attempts ({gap.error})",
            file=sys.stderr,
        )
    # Quarantined chunks are a *reported* gap, not a failure: the journal
    # keeps their tasks pending, so a rerun retries exactly those chunks.
    # --strict surfaces the gap in the exit status for scripted callers
    # that would otherwise mistake a gapped file for a complete run.
    if args.strict and not report.complete:
        return 3
    return 0


def _refs_command(args: argparse.Namespace) -> int:
    from .genome.alphabet import encode_with_mask
    from .store import ReferenceStore, StoreError

    store = ReferenceStore(_store_root(args))
    if args.refs_command == "add":
        from .genome.fasta import iter_fasta_records

        for path in args.fasta:
            for name, text in iter_fasta_records(path):
                codes, mask = encode_with_mask(text)
                digest = store.add(codes, name=name, mask=mask)
                if args.precompute_seeds:
                    store.seed_table(digest, k=args.seed_length)
                print(f"{digest}  {name}  {codes.size:,} bp")
        return 0
    if args.refs_command == "ls":
        rows = store.list()
        for row in rows:
            flag = "" if row.get("valid", True) else "  [corrupt]"
            print(f"{row['digest']}  {row['length']:>12,}  {row['name']}{flag}")
        if not rows:
            print(f"# empty store at {store.root}", file=sys.stderr)
        return 0
    # rm
    try:
        digest = store.resolve(args.digest)
        store.remove(digest)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"removed {digest}")
    return 0


def main(argv: Seq[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .store import StoreError

    try:
        if args.command == "align":
            return _align_command(args)
        if args.command == "synth":
            return _synth_command(args)
        if args.command == "serve":
            return _serve_command(args)
        if args.command == "trace":
            return _trace_command(args)
        if args.command == "wga":
            return _wga_command(args)
        if args.command == "refs":
            return _refs_command(args)
        return _bench_command(args)
    except StoreError as exc:
        # Unknown digests and corrupt store entries are user-facing
        # conditions, not crashes: print the actionable message cleanly.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
