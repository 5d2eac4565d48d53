"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pair_tail --seed 0 --seconds 25 --trace 0

The program under test is the checkout's ``src/`` tree.  Every output is
checked against the scalar engine; the last line on stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``), each with its unit.  The exit code is 0 only
when every output was correct.  A record of the run -- fingerprint,
per-op samples, spans -- is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("pair_tail", "wga_chunked", "serve_pairs")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test input sizes")
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test: damage one result before it is checked",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import common
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    run = workloads.Run(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        corrupt=args.corrupt,
        work=ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}",
    )
    run.work.mkdir(parents=True)
    fingerprint = common.fingerprint(ROOT)
    probe_before = common.cpu_probe_ms()
    started = time.time()
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    fingerprint.update(
        probe_ms_before=probe_before,
        probe_ms_after=common.cpu_probe_ms(),
        loadavg_after=list(os.getloadavg()),
    )

    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}.json"
    record.write_text(
        json.dumps(
            {"args": vars(args), "fingerprint": fingerprint, "result": result,
             "detail": outcome.detail},
            default=str,
        )
    )
    print(f"fingerprint: {json.dumps(fingerprint)}", file=sys.stderr)
    for name, ms in sorted(outcome.detail.get("self_ms_per_op", {}).items()):
        print(f"self {name:27s} {ms:14.3f} ms/op", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.4f} {metric['unit']}", file=sys.stderr)
    print(f"run record: {record}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
