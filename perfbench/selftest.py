"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at self-test size, untraced and traced, and checks
that each run prints every metric BENCHMARK.json names with its unit, and
that a traced run reads non-zero on every layer its workload enters.
Then checks the failure paths: a run whose result was damaged before the
check must report it and exit non-zero, and a directory holding only the
benchmark (no program source) must exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pair_tail", "wga_chunked", "serve_pairs")

#: Per-layer metrics that must read non-zero in each workload's traced run:
#: the layers it enters.  A wrapper or span that stops firing shows here.
ENTERED = {
    "pair_tail": (
        "seeding.ms_per_op", "seeding.anchors_per_op", "align.inspector.ms_per_op",
        "align.executor.bin1.ms_per_op", "align.executor.bin3.ms_per_op",
        "align.executor.bin4.ms_per_op", "align.calls_per_op", "align.sweep_steps_per_op",
        "core.finish.ms_per_op", "fig8.measured.executor", "fig8.model.executor",
    ),
    "wga_chunked": (
        "seeding.ms_per_op", "align.inspector.ms_per_op", "align.calls_per_op",
        "align.sweep_steps_per_op", "core.finish.ms_per_op", "jobs.seed_phase_s",
        "jobs.extend_phase_s", "jobs.tasks_per_op", "jobs.journal_kb_per_op",
        "store.register_s",
    ),
    "serve_pairs": (
        "seeding.ms_per_op", "align.inspector.ms_per_op", "align.calls_per_op",
        "core.finish.ms_per_op", "service.latency_ms_p50", "service.batch_mean",
        "loadgen.sent",
    ),
}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    tiny = ("--seed", "1", "--seconds", "1", "--tiny")
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench("--workload", workload, "--trace", str(trace), *tiny)
            what = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None and result["correct"], f"{what}: correct")
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{what}: every {section} metric with its unit")
            expect(
                all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                f"{what}: numeric values",
            )
            if trace:
                silent = [m for m in ENTERED[workload] if not result["metrics"][m]["value"]]
                expect(not silent, f"{what}: layers entered read non-zero"
                       + (f" (zero: {', '.join(silent)})" if silent else ""))

    for workload in WORKLOADS:
        code, result = bench("--workload", workload, "--trace", "0", *tiny, "--corrupt")
        expect(
            code != 0 and result is not None and not result["correct"] and result["failed"] >= 1,
            f"{workload}: a damaged result is rejected",
        )

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = bench("--workload", "pair_tail", "--trace", "0", *tiny, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "no program source: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
