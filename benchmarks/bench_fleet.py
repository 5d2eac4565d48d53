"""Front-door + fleet sweep: connection scaling, single lane vs fleet.

Not a paper figure: this measures what the serving topology buys.  Two
axes are swept against real subprocess servers (`repro.cli serve`, the
asyncio front door):

* **front door** — 16/64/256 concurrent connections against one
  in-process lane.  Every request must complete; each point records the
  server process's peak OS thread count (from ``/proc/<pid>/status``)
  alongside RPS and latency percentiles — the event loop multiplexes
  every connection, so the thread count stays flat as connections grow.
* **backends** — the single in-process lane vs a fleet of cpu + 2
  simulated GPUs, at 64 connections.  Throughput is recorded.

The gate is **byte-identity**: the response bodies for a fixed probe set
must be identical at every concurrency and across every backend mix.

Results append a trajectory point to ``bench_results/BENCH_fleet.json``.
Run directly: ``PYTHONPATH=src python benchmarks/bench_fleet.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "bench_results"

#: Concurrency levels of the front-door sweep (the gate reads the last).
CONCURRENCY = (16, 64, 256)

#: Requests whose bodies are compared byte-for-byte across configurations.
IDENTITY_PROBES = 8

_READY = re.compile(r"http://([\d.]+):(\d+)/v1")


def build_bodies(n: int) -> list[bytes]:
    """``n`` distinct small request bodies over mixed lengths (2-4 kb)."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.genome import SegmentClass, build_pair

    bodies = []
    for i in range(n):
        length = 2_000 + (i % 8) * 250
        pair = build_pair(
            f"fleetbench{i}",
            target_length=length,
            query_length=length,
            classes=[SegmentClass("s", 2, 60, 200, divergence=0.05)],
            rng=7_000 + i,
        )
        bodies.append(
            json.dumps(
                {"target": pair.target.text(), "query": pair.query.text()}
            ).encode()
        )
    return bodies


class Server:
    """One ``repro.cli serve`` subprocess; parses the ready line."""

    def __init__(self, extra_args: list[str]):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import main; raise SystemExit(main())",
                "serve", "--port", "0", "--cache-entries", "0",
                "--gap-extend", "60", "--ydrop", "2400",
                *extra_args,
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stderr.readline()
        match = _READY.search(line)
        if match is None:
            self.proc.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_threads(self) -> int:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"Threads:\s*(\d+)", status).group(1))

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()


def drive(server: Server, bodies: list[bytes], concurrency: int) -> dict:
    """One connection per worker; measures RPS, latency, peak threads."""
    latencies: list[float] = []
    responses: dict[int, bytes] = {}
    errors: list[str] = []
    lock = threading.Lock()
    peak = [server.peak_threads()]
    stop_sampling = threading.Event()

    def sample() -> None:
        while not stop_sampling.wait(0.05):
            try:
                peak[0] = max(peak[0], server.peak_threads())
            except (OSError, AttributeError):
                return

    retries = [0]

    def worker(indices: list[int]) -> None:
        # A fresh-connection retry absorbs accept-backlog RSTs under the
        # connect burst; retries are counted — they are part of the result.
        conn = None
        try:
            for i in indices:
                start = time.perf_counter()
                for attempt in range(6):
                    if conn is None:
                        conn = http.client.HTTPConnection(
                            server.host, server.port, timeout=600
                        )
                    try:
                        conn.request(
                            "POST", "/v1/align", body=bodies[i],
                            headers={"Content-Type": "application/json"},
                        )
                        resp = conn.getresponse()
                        raw = resp.read()
                        break
                    except (ConnectionError, http.client.HTTPException, OSError):
                        conn.close()
                        conn = None
                        with lock:
                            retries[0] += 1
                        if attempt == 5:
                            raise
                        time.sleep(0.05 * (attempt + 1))
                elapsed = time.perf_counter() - start
                with lock:
                    if resp.status != 200:
                        errors.append(f"request {i}: HTTP {resp.status}")
                    latencies.append(elapsed)
                    if i < IDENTITY_PROBES:
                        responses[i] = raw
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            with lock:
                errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            if conn is not None:
                conn.close()

    shards = [list(range(w, len(bodies), concurrency)) for w in range(concurrency)]
    threads = [threading.Thread(target=worker, args=(s,)) for s in shards if s]
    sampler = threading.Thread(target=sample, daemon=True)
    start = time.perf_counter()
    sampler.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    stop_sampling.set()
    sampler.join(timeout=2)
    assert not errors, f"{len(errors)} request(s) failed: {errors[:3]}"
    latencies.sort()
    return {
        "concurrency": concurrency,
        "requests": len(bodies),
        "seconds": round(elapsed, 4),
        "requests_per_second": round(len(bodies) / elapsed, 2),
        "p50_ms": round(latencies[len(latencies) // 2] * 1e3, 1),
        "p95_ms": round(latencies[int(len(latencies) * 0.95) - 1] * 1e3, 1),
        "server_peak_threads": peak[0],
        "connections_per_thread": round(concurrency / peak[0], 2),
        "connect_retries": retries[0],
        "_responses": responses,
    }


def main() -> dict:
    front_sweep: list[dict] = []
    identity: dict[int, bytes] = {}

    for concurrency in CONCURRENCY:
        bodies = build_bodies(concurrency)
        server = Server([])
        try:
            point = drive(server, bodies, concurrency)
        finally:
            server.stop()
        responses = point.pop("_responses")
        for i, raw in responses.items():
            if i in identity:
                assert raw == identity[i], (
                    f"probe {i} diverged at concurrency {concurrency}"
                )
            else:
                identity[i] = raw
        front_sweep.append(point)
        print(
            f"front door, {concurrency:>3} conns: "
            f"{point['seconds']:.2f}s ({point['requests_per_second']}/s, "
            f"p95 {point['p95_ms']}ms, {point['server_peak_threads']} "
            f"server threads)"
        )

    backend_sweep = []
    for label, extra in (
        ("single", []),
        ("fleet-cpu+2gpu", ["--fleet-gpus", "2"]),
    ):
        bodies = build_bodies(64)
        server = Server(extra)
        try:
            point = drive(server, bodies, 64)
        finally:
            server.stop()
        responses = point.pop("_responses")
        for i, raw in responses.items():
            assert raw == identity[i], f"backend mix {label!r} diverged on probe {i}"
        point["backends"] = label
        backend_sweep.append(point)
        print(
            f"{label:>15}: {point['seconds']:.2f}s "
            f"({point['requests_per_second']}/s)"
        )

    cpus = os.cpu_count() or 1
    entry = {
        "cpu_count": cpus,
        "identity_probes": len(identity),
        "front_door": front_sweep,
        "backends": backend_sweep,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "BENCH_fleet.json"
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(entry)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(f"wrote {out}")
    return entry


if __name__ == "__main__":
    main()
