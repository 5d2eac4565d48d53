"""The benchmark's three workloads.

Each workload takes a :class:`Run` and returns an :class:`Outcome`: the
operations attempted and failed, and its metrics -- end to end when the
run is untraced, per layer when it is traced.  Every operation's output is
checked against the scalar engine outside the timed window.  README.md
says why each workload exists and what it should move.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import api, obs
from repro.genome import SegmentClass, build_pair
from repro.genome.alphabet import decode
from repro.jobs import JobOptions
from repro.lastz.config import LastzConfig
from repro.obs import MetricsRegistry, Tracer
from repro.scoring import default_scheme
from repro.workloads import build_benchmark_pair, get_benchmark
from repro.workloads.profiles import BENCH_OPTIONS, bench_calibration, bench_config
from repro.workloads.registry import GENOMES

import common
import spans

HERE = Path(__file__).resolve().parent

#: The seed that reproduces the registry pairs.
DEFAULT_SEED = 0

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: Host engine of the in-process workloads (full FastZ, scaled bin edges).
OPTIONS = replace(BENCH_OPTIONS, engine="wholebin")

PAIR_BENCHMARK = "C1_5,5"
WGA_BENCHMARK = "D1_2R,2"
#: wga_chunked keeps D1_2R,2's segment classes at this scale, on
#: chromosomes shrunk this much beyond the registry's own 50x, so one job
#: takes about a second and a run holds some twenty of them.
WGA_SCALE = 0.125
WGA_SHRINK = 8
WGA_JOB = JobOptions(chunk_size=16_384, workers=1, fsync=False)

#: Digest of the scalar engine's alignments on the default-seed pairs at
#: full size (``common.rows_digest``); other seeds and sizes recompute it.
PINNED_DIGESTS = {
    "pair_tail": "c8d0810044fe600ffef40bd24f092c7cd38e5e4c9023d1b7ace0d00ada5e3507",
    "wga_chunked": "099799867173917b2951bd120d8e63e546748f4d5678d2ca73ebc625f835cdf7",
}

#: serve_pairs: one request per connection per tick.
TICK_S = 0.5
CONNECTIONS = 2
WARMUP_TICKS = 2
#: Traced serve runs alternate untraced and traced blocks of this many ticks.
BLOCK_TICKS = 8
#: The generator's speed probe runs this long after each tick, once the
#: tick's responses are usually in.
PROBE_AFTER_TICK_S = 0.35
#: Responses per run re-aligned in-process and compared field by field.
SERVE_SAMPLE = 6
#: Scoring flags given to the server; the in-process check uses the same.
SERVE_SCORING = {
    "gap-open": 400,
    "gap-extend": 60,
    "ydrop": 2400,
    "hsp-threshold": 3000,
    "gapped-threshold": 3000,
    "seed-length": 19,
    "collapse-window": 500,
    "diag-band": 150,
}

#: Every per-layer metric; a layer a workload never enters reads 0.
LAYER_METRICS = (
    "seeding.ms_per_op",
    "seeding.anchors_per_op",
    "align.inspector.ms_per_op",
    *(f"align.executor.bin{b}.ms_per_op" for b in spans.EXECUTOR_BINS),
    "align.calls_per_op",
    "align.ms_per_call",
    "align.eager_frac",
    "align.live_cell_frac",
    "align.sweep_steps_per_op",
    "align.arena_allocs_per_op",
    "core.finish.ms_per_op",
    "service.latency_ms_p50",
    "service.queue_wait_ms_mean",
    "service.batch_mean",
    "fleet.door_ms_p50",
    "fleet.hedges",
    "fleet.redispatched",
    "jobs.seed_phase_s",
    "jobs.extend_phase_s",
    "jobs.other_s",
    "jobs.tasks_per_op",
    "jobs.window_fallback_frac",
    "jobs.journal_kb_per_op",
    "store.register_s",
    "loadgen.late_ms_p90",
    "loadgen.sent",
    *(f"fig8.{kind}.{phase}" for kind in ("measured", "model", "residual")
      for phase in ("inspector", "executor", "other")),
    "trace.overhead_frac",
)


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    #: Self-test size: small inputs, one set-up.
    tiny: bool
    #: Self-test: damage one result before it is checked.
    corrupt: bool
    #: Scratch directory inside the checkout, removed after the run.
    work: Path

    @property
    def setup_repeats(self) -> int:
        return 1 if self.tiny else SETUP_REPEATS

    @property
    def block_ticks(self) -> int:
        return 1 if self.tiny else BLOCK_TICKS


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def registry_pair(name: str, seed: int, scale: float):
    """The registry pair at the default seed, a fresh draw of it otherwise.

    Another seed keeps the pair's segment classes (so the length-bin mix
    stays the workload's) and draws new sequences and placements.
    """
    spec = get_benchmark(name)
    if seed != DEFAULT_SEED:
        spec = replace(spec, seed=spec.seed + 7_919 * seed)
    return build_benchmark_pair(spec, scale)


def wga_pair(seed: int, tiny: bool):
    """D1_2R,2's segment classes on chromosomes shrunk ``WGA_SHRINK``-fold."""
    spec = get_benchmark(WGA_BENCHMARK)
    shrink = WGA_SHRINK * (4 if tiny else 1)
    return build_pair(
        spec.name,
        target_length=GENOMES[spec.target].scaled_basepairs // shrink,
        query_length=GENOMES[spec.query].scaled_basepairs // shrink,
        classes=spec.classes(0.05 if tiny else WGA_SCALE),
        rng=spec.seed + 7_919 * seed,
    )


def reference_digest(workload: str, run: Run, pair) -> str:
    """Digest of the scalar engine's single-pass alignments of ``pair``."""
    pinned = PINNED_DIGESTS.get(workload)
    if pinned and run.seed == DEFAULT_SEED and not run.tiny:
        return pinned
    scalar = api.align(
        pair.target, pair.query, bench_config(),
        replace(OPTIONS, engine="scalar"), workers=2,
    )
    return common.rows_digest(common.alignment_rows(scalar.unique_alignments()))


def counter_metrics(counters: dict[str, float], n_ops: float) -> dict[str, float]:
    """Engine ledger figures from the program's metric-counter deltas."""
    return {
        "align.eager_frac": common.ratio(
            counters.get("repro_pipeline_eager_total", 0.0),
            counters.get("repro_pipeline_anchors_total", 0.0),
        ),
        "align.live_cell_frac": common.ratio(
            counters.get("repro_batch_sweep_live_cells_total", 0.0),
            counters.get("repro_batch_sweep_slab_cells_total", 0.0),
        ),
        "align.sweep_steps_per_op": common.ratio(
            counters.get("repro_batch_sweep_steps_total", 0.0), n_ops
        ),
        "align.arena_allocs_per_op": common.ratio(
            counters.get("repro_batch_arena_allocs_total", 0.0), n_ops
        ),
    }


def span_totals(span_list: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Total seconds and count per span name."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for span in span_list:
        name = span["name"]
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]
        count[name] = count.get(name, 0) + 1
    return total, count


def executor_bins(span_list: list[dict]) -> dict[int, float]:
    """Seconds in ``fastz.executor`` spans per length bin."""
    out = dict.fromkeys(spans.EXECUTOR_BINS, 0.0)
    for span in span_list:
        if span["name"] == "fastz.executor":
            b = int(span["attrs"]["bin"])
            out[b] = out.get(b, 0.0) + span["end"] - span["start"]
    return out


def layer_metrics(span_list: list[dict], n_ops: float) -> dict[str, float]:
    """Per-operation layer figures from the program's spans.

    Every other layer reads 0.  Each engine call opens one
    ``fastz.extend`` span; a whole-genome chunk's own glue (suffix
    windows, seam guard) is the self time of its ``fastz.chunk`` span and
    counts with ``finish_fastz``.
    """
    total, count = span_totals(span_list)
    own = spans.self_times(span_list)
    calls = count.get("fastz.extend", 0)
    anchors = sum(
        s["attrs"].get("anchors", 0) for s in span_list if s["name"] == "fastz.prepare"
    )

    def per_op_ms(seconds: float) -> float:
        return common.ratio(seconds, n_ops) * 1e3

    out = dict.fromkeys(LAYER_METRICS, 0.0)
    out.update(
        {
            "seeding.ms_per_op": per_op_ms(total.get("fastz.prepare", 0.0)),
            "seeding.anchors_per_op": common.ratio(anchors, n_ops),
            "align.inspector.ms_per_op": per_op_ms(total.get("fastz.inspector", 0.0)),
            "align.calls_per_op": common.ratio(calls, n_ops),
            "align.ms_per_call": common.ratio(total.get("fastz.extend", 0.0), calls) * 1e3,
            "core.finish.ms_per_op": per_op_ms(
                total.get("fastz.finish", 0.0) + own.get("fastz.chunk", 0.0)
            ),
        }
    )
    for b, seconds in executor_bins(span_list).items():
        out[f"align.executor.bin{b}.ms_per_op"] = per_op_ms(seconds)
    return out


def self_ms_per_op(span_list: list[dict], n_ops: float) -> dict[str, float]:
    return {name: common.ratio(s, n_ops) * 1e3 for name, s in spans.self_times(span_list).items()}


class OpTracer:
    """Turns the program's tracer and metrics on for one op at a time."""

    def __init__(self, run: Run) -> None:
        self.out_dir = run.work / "spans"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer(keep_roots=None)
        self.registry = MetricsRegistry()
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.uninstall = spans.install_task_shipping(self.out_dir) if run.trace else None

    @contextmanager
    def op(self, index: int, traced: bool):
        if not traced:
            yield
            return
        obs.enable(registry=self.registry, tracer=self.tracer)
        before = spans.registry_totals()
        try:
            yield
        finally:
            after = spans.registry_totals()
            obs.disable()
            local = spans.flatten(self.tracer.roots)
            worker_spans, worker_counters = spans.collect_worker_files(self.out_dir)
            # A worker's task spans hang under the job phase that ran them.
            phases = [s for s in local if s["name"] in ("jobs.seed", "jobs.extend")]
            for span in worker_spans:
                if span["parent"] is None:
                    span["parent"] = next(
                        (p["id"] for p in phases
                         if p["start"] <= span["start"] and span["end"] <= p["end"]),
                        None,
                    )
            for span in [*local, *worker_spans]:
                self.spans.append({**span, "op": index})
            self.tracer.roots.clear()
            for delta in (spans.counter_delta(after, before), worker_counters):
                for name, value in delta.items():
                    self.counters[name] = self.counters.get(name, 0.0) + value

    def close(self) -> None:
        if self.uninstall is not None:
            self.uninstall()


def timed_setups(run: Run, set_up) -> tuple[float, list]:
    """Median time of ``run.setup_repeats`` calls of ``set_up(rep)``.

    Each call is one whole set-up (inputs, registration, warm-up op), so
    the median is of complete set-ups, each scaled by the speed probes
    taken around it.  Returns the median with every call's value.
    """
    times, values = [], []
    probe = common.speed_probe_s()
    for rep in range(run.setup_repeats):
        start = time.perf_counter()
        values.append(set_up(rep))
        elapsed = time.perf_counter() - start
        after = common.speed_probe_s()
        times.append(elapsed / common.speed_factor(probe, after))
        probe = after
    return statistics.median(times), values


def closed_loop(run: Run, tracer: OpTracer, do_op) -> list[dict]:
    """Call ``do_op(index)`` back to back for ``run.seconds``.

    A speed probe runs between ops; each op's ``speed`` is the mean of the
    probes on either side of it.  A traced run traces every second op, so
    traced and untraced ops interleave under the same machine conditions;
    their medians give the tracing overhead.
    """
    ops: list[dict] = []
    min_ops = 2 if run.trace else 1
    deadline = time.perf_counter() + run.seconds
    index = 0
    probe = common.speed_probe_s()
    while index < min_ops or time.perf_counter() < deadline:
        traced = run.trace and index % 2 == 1
        with tracer.op(index, traced):
            record = do_op(index)
        after = common.speed_probe_s()
        record["speed"] = common.speed_factor(probe, after)
        record["traced"] = traced
        ops.append(record)
        probe = after
        index += 1
    return ops


def closed_loop_metrics(ops: list[dict], setup_s: float, peak_rss_mb: float,
                        attempted: int, failed: int) -> dict[str, float]:
    latencies = [op["wall_s"] / op["speed"] * 1e3 for op in ops]
    return {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": common.tail(latencies),
        "anchors_per_s": sum(op["anchors"] for op in ops) / sum(latencies) * 1e3,
        "cpu_ms_per_op": statistics.fmean(op["cpu_s"] / op["speed"] for op in ops) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "ok_frac": (attempted - failed) / attempted,
    }


def tracing_overhead(ops: list[dict]) -> float:
    traced = [op["wall_s"] / op["speed"] for op in ops if op["traced"]]
    plain = [op["wall_s"] / op["speed"] for op in ops if not op["traced"]]
    return statistics.median(traced) / statistics.median(plain) - 1.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# pair_tail: one in-process caller, the heaviest long-bin tail
# ---------------------------------------------------------------------------


def pair_tail(run: Run) -> Outcome:
    scale = 0.05 if run.tiny else 1.0
    config = bench_config()
    tracer = OpTracer(run)
    state: dict = {}

    def do_op(index: int) -> dict:
        start, cpu = time.perf_counter(), time.process_time()
        result = api.align(state["pair"].target, state["pair"].query, config, OPTIONS)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        rows = common.alignment_rows(result.unique_alignments())
        if run.corrupt and index == 0:
            rows = common.damaged(rows)
        state["result"] = result
        return {"wall_s": wall, "cpu_s": cpu, "anchors": len(result.tasks),
                "digest": common.rows_digest(rows)}

    def set_up(rep: int) -> dict:
        state["pair"] = registry_pair(PAIR_BENCHMARK, run.seed, scale)
        return do_op(-1)

    try:
        setup_s, warmups = timed_setups(run, set_up)
        ops = closed_loop(run, tracer, do_op)
        peak = rss_mb(resource.RUSAGE_SELF)
    finally:
        tracer.close()
    pair = state["pair"]
    expected = reference_digest("pair_tail", run, pair)
    checked = [*warmups, *ops]
    failed = sum(op["digest"] != expected for op in checked)
    detail = {"ops": ops, "setup": {"warmups": warmups}, "expected_digest": expected}
    if not run.trace:
        metrics = closed_loop_metrics(ops, setup_s, peak, len(checked), failed)
        return Outcome(len(checked), failed, metrics, detail)

    traced = [op for op in ops if op["traced"]]
    n = len(traced)
    span_list = tracer.spans
    metrics = layer_metrics(span_list, n)
    metrics.update(counter_metrics(tracer.counters, n))
    metrics.update(figure8(span_list, sum(op["wall_s"] for op in traced),
                           state["result"], pair))
    metrics["trace.overhead_frac"] = tracing_overhead(ops)
    detail["self_ms_per_op"] = self_ms_per_op(span_list, n)
    detail["spans"] = span_list
    return Outcome(len(checked), failed, metrics, detail)


def figure8(span_list: list[dict], total: float, result, pair) -> dict[str, float]:
    """Measured inspector/executor/other split next to the model's."""
    from repro.core.perfmodel import time_fastz
    from repro.gpusim import RTX_3080_AMPERE

    seconds, _ = span_totals(span_list)
    inspector = seconds.get("fastz.inspector", 0.0)
    executor = seconds.get("fastz.executor", 0.0)
    measured = {
        "inspector": inspector / total,
        "executor": executor / total,
        "other": 1.0 - (inspector + executor) / total,
    }
    transfer = (
        len(pair.target) + len(pair.query)
        + 16 * len(result.tasks) + 64 * len(result.alignments)
    )
    model = time_fastz(
        result.arrays, RTX_3080_AMPERE, OPTIONS, bench_calibration(),
        transfer_bytes=transfer,
    ).breakdown()
    out = {}
    for phase in ("inspector", "executor", "other"):
        out[f"fig8.measured.{phase}"] = measured[phase]
        out[f"fig8.model.{phase}"] = model[phase]
        out[f"fig8.residual.{phase}"] = measured[phase] - model[phase]
    return out


# ---------------------------------------------------------------------------
# wga_chunked: one caller, the chunked job runner over a reference store
# ---------------------------------------------------------------------------


def wga_chunked(run: Run) -> Outcome:
    config = bench_config()
    tracer = OpTracer(run)
    state: dict = {}
    registers = []

    def do_op(index: int) -> dict:
        job_dir = run.work / f"job{index}"
        start, cpu, child = time.perf_counter(), time.process_time(), children_cpu_s()
        report = api.align_chunked(
            state["target"], state["query"], config, OPTIONS, job=WGA_JOB, job_dir=job_dir
        )
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu + children_cpu_s() - child
        journal_kb = (job_dir / "journal.jsonl").stat().st_size / 1024.0
        shutil.rmtree(job_dir)
        rows = common.alignment_rows(report.alignments)
        if run.corrupt and index == 0:
            rows = common.damaged(rows)
        return {
            "wall_s": wall, "cpu_s": cpu, "anchors": report.n_anchors,
            "digest": common.rows_digest(rows) if report.complete else "incomplete",
            "tasks": report.n_seed_tasks + report.n_extend_tasks,
            "window_fallbacks": report.window_fallbacks,
            "journal_kb": journal_kb,
        }

    def set_up(rep: int) -> dict:
        state["pair"] = wga_pair(run.seed, run.tiny)
        store = run.work / f"store{rep}"
        start = time.perf_counter()
        state["target"] = api.register_reference(state["pair"].target, store=store)
        state["query"] = api.register_reference(state["pair"].query, store=store)
        registers.append(time.perf_counter() - start)
        return do_op(-1)

    try:
        setup_s, warmups = timed_setups(run, set_up)
        ops = closed_loop(run, tracer, do_op)
        peak = rss_mb(resource.RUSAGE_SELF) + rss_mb(resource.RUSAGE_CHILDREN)
    finally:
        tracer.close()
    expected = reference_digest("wga_chunked", run, state["pair"])
    checked = [*warmups, *ops]
    failed = sum(op["digest"] != expected for op in checked)
    detail = {"ops": ops, "setup": {"register_s": registers, "warmups": warmups},
              "expected_digest": expected}
    if not run.trace:
        metrics = closed_loop_metrics(ops, setup_s, peak, len(checked), failed)
        return Outcome(len(checked), failed, metrics, detail)

    traced = [op for op in ops if op["traced"]]
    n = len(traced)
    span_list = tracer.spans
    seconds, _ = span_totals(span_list)
    seed_s = seconds.get("jobs.seed", 0.0) / n
    extend_s = seconds.get("jobs.extend", 0.0) / n
    anchors = sum(op["anchors"] for op in traced)
    metrics = layer_metrics(span_list, n)
    metrics.update(counter_metrics(tracer.counters, n))
    metrics.update(
        {
            "seeding.ms_per_op": seed_s * 1e3,
            "seeding.anchors_per_op": anchors / n,
            "jobs.seed_phase_s": seed_s,
            "jobs.extend_phase_s": extend_s,
            "jobs.other_s": sum(op["wall_s"] for op in traced) / n - seed_s - extend_s,
            "jobs.tasks_per_op": sum(op["tasks"] for op in traced) / n,
            "jobs.window_fallback_frac": common.ratio(
                sum(op["window_fallbacks"] for op in traced), anchors
            ),
            "jobs.journal_kb_per_op": sum(op["journal_kb"] for op in traced) / n,
            "store.register_s": statistics.median(registers),
            "trace.overhead_frac": tracing_overhead(ops),
        }
    )
    detail["self_ms_per_op"] = self_ms_per_op(span_list, n)
    detail["spans"] = span_list
    return Outcome(len(checked), failed, metrics, detail)


# ---------------------------------------------------------------------------
# serve_pairs: open loop over HTTP against `serve --fleet`
# ---------------------------------------------------------------------------


def serve_config() -> LastzConfig:
    s = SERVE_SCORING
    return LastzConfig(
        scheme=default_scheme(
            gap_open=s["gap-open"],
            gap_extend=s["gap-extend"],
            ydrop=s["ydrop"],
            hsp_threshold=s["hsp-threshold"],
            gapped_threshold=s["gapped-threshold"],
        ),
        seed_length=s["seed-length"],
        collapse_window=s["collapse-window"],
        diag_band=s["diag-band"],
    )


def request_pool(seed: int, n: int) -> list[tuple]:
    """``n`` unique 2.5-8 kb pairs, drawn as benchmarks/bench_service.py does.

    Lengths are spread evenly over the range, in seeded order, rather than
    bench_service's twelve steps: with six batch sizes of equal weight the
    median latency sat on the edge between two of them and jumped from run
    to run.  Every seed gets the same lengths, so only their order and the
    sequences change.
    """
    even = np.linspace(2_500, 8_000, n).round().astype(np.int64)
    lengths = np.random.default_rng(seed).permutation(even)
    pool = []
    for i, length in enumerate(lengths.tolist()):
        pair = build_pair(
            f"req{i}",
            target_length=length,
            query_length=length,
            classes=[SegmentClass("s", 3, 60, 200, divergence=0.05)],
            rng=1_000 + i + 100_003 * seed,
        )
        pool.append((pair, decode(pair.target.codes), decode(pair.query.codes)))
    return pool


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``repro serve --fleet --fleet-gpus 0`` in a child process."""

    def __init__(self, run: Run, trace_out: Path | None = None) -> None:
        port = _free_port()
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["serve", "--fleet", "--fleet-gpus", "0", "--host", "127.0.0.1",
                "--port", str(port), "--grace-s", "1"]
        for flag, value in SERVE_SCORING.items():
            cmd += [f"--{flag}", str(value)]
        self.url = f"http://127.0.0.1:{port}"
        self._log = open(run.work / "server.log", "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=self._log)

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout_s
        with api.Client(self.url, timeout_s=5.0) as client:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server exited with code {self.proc.returncode}")
                try:
                    if client.healthz().get("status") == "ok":
                        return
                except OSError:
                    pass
                if time.perf_counter() > deadline:
                    raise RuntimeError("server not healthy in time")
                time.sleep(0.02)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def toggle_tracing(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _well_formed(payload) -> bool:
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("alignments"), list)
        and isinstance(payload.get("anchors"), int)
        and isinstance(payload.get("count"), int)
    )


def _send(client: api.Client, entry) -> tuple[dict | None, str | None]:
    _, target, query = entry
    try:
        payload = client.align(target, query)
    except Exception as exc:  # noqa: BLE001 - a failed request is a data point
        return None, f"{type(exc).__name__}: {exc}"
    return (payload, None) if _well_formed(payload) else (None, "malformed response")


def drive(clients, pool, n_ticks: int, t0: float, server: Server | None,
          block_ticks: int) -> list[dict]:
    """Send one request per connection every tick from ``t0``.

    Each record keeps the tick's due time, so latency counts the wait a
    stall imposes on later requests, and the speed factor of the probe
    run ``PROBE_AFTER_TICK_S`` after its tick.  With ``server`` given,
    tracing in the server is toggled half a tick before each boundary
    between blocks of ``block_ticks`` ticks.
    """
    records: list[dict | None] = [None] * (n_ticks * len(clients))

    def sender(c: int) -> None:
        for k in range(n_ticks):
            idx = k * len(clients) + c
            due = t0 + k * TICK_S
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            payload, error = _send(clients[c], pool[idx])
            records[idx] = {"index": idx, "due": due, "sent": sent,
                            "done": time.perf_counter(), "payload": payload,
                            "error": error, "traced": (k // block_ticks) % 2 == 1}

    events = [(t0 + k * TICK_S + PROBE_AFTER_TICK_S, "probe") for k in range(n_ticks)]
    if server is not None:
        events += [(t0 + (block * block_ticks - 0.5) * TICK_S, "toggle")
                   for block in range(1, -(-n_ticks // block_ticks))]
    probes = []
    threads = [threading.Thread(target=sender, args=(c,)) for c in range(len(clients))]
    for thread in threads:
        thread.start()
    for at, action in sorted(events):
        delay = at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if action == "probe":
            probes.append(common.speed_probe_s())
        else:
            server.toggle_tracing()
    for thread in threads:
        thread.join()
    for record in records:
        record["speed"] = common.speed_factor(probes[record["index"] // len(clients)])
    return records


def serve_pairs(run: Run) -> Outcome:
    n_ticks = max(1, int(run.seconds / TICK_S))
    warm = WARMUP_TICKS * CONNECTIONS
    probe = common.speed_probe_s()
    start = time.perf_counter()
    pool = request_pool(run.seed, warm + n_ticks * CONNECTIONS)
    generate_s = time.perf_counter() - start
    after = common.speed_probe_s()
    generate_s /= common.speed_factor(probe, after)
    trace_out = run.work / "server-spans.jsonl" if run.trace else None

    # Each set-up starts a fresh server and warms it; the last one is
    # measured.  Each is scaled by the speed probes taken around it.
    setups, warmup = [], []
    server, clients = None, []
    try:
        for rep in range(run.setup_repeats):
            for client in clients:
                client.close()
            if server is not None:
                server.stop()
            probe = common.speed_probe_s()
            start = time.perf_counter()
            last = rep == run.setup_repeats - 1
            server = Server(run, trace_out if last else None)
            server.wait_healthy()
            clients = [api.Client(server.url, timeout_s=60.0) for _ in range(CONNECTIONS)]
            warmup += [_send(clients[i % CONNECTIONS], pool[i]) for i in range(warm)]
            elapsed = time.perf_counter() - start
            setups.append(elapsed / common.speed_factor(probe, common.speed_probe_s()))
        with api.Client(server.url, timeout_s=60.0) as control:
            stats0 = control.stats()
            counters0 = spans.counter_totals(control.metrics())
            cpu0 = server.cpu_s()
            t0 = time.perf_counter() + 0.1
            records = drive(clients, pool[warm:], n_ticks, t0,
                            server if run.trace else None, run.block_ticks)
            cpu_s = server.cpu_s() - cpu0
            stats1 = control.stats()
            counters = spans.counter_delta(spans.counter_totals(control.metrics()), counters0)
            peak = server.peak_rss_mb()
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()

    setup_s = generate_s + statistics.median(setups)
    ok = [r for r in records if r["error"] is None]
    failed = len(records) - len(ok) + sum(err is not None for _, err in warmup)
    failed += check_sample(run, pool[warm:], ok)
    attempted = len(records) + len(warmup)
    latencies = [(r["done"] - r["due"]) / r["speed"] * 1e3 for r in ok]
    server_cpu_s = cpu_s / statistics.median(r["speed"] for r in records)
    detail = {"setup": {"generate_s": generate_s, "start_and_warmup_s": setups},
              "errors": [r["error"] for r in records if r["error"]][:10],
              "latency_ms": latencies, "speed": [r["speed"] for r in records]}
    if not run.trace:
        metrics = {
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": common.tail(latencies),
            # The offered load is fixed, so per wall second this would only
            # echo it; per server CPU-second it shows the server's work.
            "anchors_per_s": sum(r["payload"]["anchors"] for r in ok) / server_cpu_s,
            "cpu_ms_per_op": server_cpu_s / max(len(ok), 1) * 1e3,
            "peak_rss_mb": peak,
            "setup_s": setup_s,
            "ok_frac": (attempted - failed) / attempted,
        }
        return Outcome(attempted, failed, metrics, detail)

    server_spans = spans.load_spans(trace_out)
    requests = sum(1 for s in server_spans if s["name"] == "fastz.prepare")
    metrics = layer_metrics(server_spans, requests)
    metrics.update(counter_metrics(counters, len(ok)))
    batches0 = {int(k): v for k, v in stats0["batch_histogram"].items()}
    batches = {int(k): v - batches0.get(int(k), 0)
               for k, v in stats1["batch_histogram"].items()}
    service_p50 = stats1["latency_p50_ms"]
    sent_latency = [(r["done"] - r["sent"]) * 1e3 for r in ok]
    traced_lat = [(r["done"] - r["due"]) / r["speed"] for r in ok if r["traced"]]
    plain_lat = [(r["done"] - r["due"]) / r["speed"] for r in ok if not r["traced"]]
    fleet1, fleet0 = stats1.get("fleet") or {}, stats0.get("fleet") or {}
    metrics.update(
        {
            "service.latency_ms_p50": service_p50,
            "service.queue_wait_ms_mean": common.ratio(
                counters.get("repro_service_queue_wait_seconds_sum", 0.0),
                counters.get("repro_service_queue_wait_seconds_count", 0.0),
            ) * 1e3,
            "service.batch_mean": common.ratio(
                sum(size * n for size, n in batches.items()), sum(batches.values())
            ),
            "fleet.door_ms_p50": statistics.median(sent_latency) - service_p50,
            "fleet.hedges": fleet1.get("hedges", 0) - fleet0.get("hedges", 0),
            "fleet.redispatched": fleet1.get("redispatched", 0) - fleet0.get("redispatched", 0),
            "loadgen.late_ms_p90": common.percentile(
                [(r["sent"] - r["due"]) * 1e3 for r in records], 0.9
            ),
            "loadgen.sent": float(len(records)),
            "trace.overhead_frac": (
                statistics.median(traced_lat) / statistics.median(plain_lat) - 1.0
                if traced_lat and plain_lat else 0.0
            ),
        }
    )
    detail["self_ms_per_op"] = self_ms_per_op(server_spans, requests)
    detail["spans"] = server_spans
    return Outcome(attempted, failed, metrics, detail)


def check_sample(run: Run, pool, ok: list[dict]) -> int:
    """Re-align a seeded sample of answered requests in-process; count mismatches."""
    if not ok:
        return 0
    rng = np.random.default_rng(run.seed)
    picks = rng.choice(len(ok), size=min(SERVE_SAMPLE, len(ok)), replace=False)
    config = serve_config()
    wrong = 0
    for n, pick in enumerate(sorted(int(p) for p in picks)):
        record = ok[pick]
        pair = pool[record["index"]][0]
        result = api.align(pair.target, pair.query, config)
        expected = {
            "count": len(result.alignments),
            "anchors": len(result.tasks),
            "alignments": [
                {"score": a.score, "target_start": a.target_start,
                 "target_end": a.target_end, "query_start": a.query_start,
                 "query_end": a.query_end, "cigar": a.cigar()}
                for a in result.unique_alignments()
            ],
        }
        got = {key: record["payload"][key] for key in expected}
        if run.corrupt and n == 0:
            got["count"] += 1
        wrong += got != expected
    return wrong


WORKLOADS = {
    "pair_tail": pair_tail,
    "wga_chunked": wga_chunked,
    "serve_pairs": serve_pairs,
}
