"""Shared helpers: statistics, result digests and the run fingerprint."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from pathlib import Path


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the service's own definition)."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail(values) -> float:
    """The p90 when at least ten samples lie beyond it, else the median.

    Closed-loop runs hold a few dozen slow operations at most, too few
    for a p90 that means anything; they report their median here.
    """
    if len(values) >= 100:
        return percentile(values, 0.9)
    return statistics.median(values)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def alignment_rows(alignments) -> list[tuple]:
    """Order-free rendering of an alignment set, for comparison."""
    return sorted(
        (a.target_start, a.target_end, a.query_start, a.query_end, a.score, a.cigar())
        for a in alignments
    )


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def damaged(rows: list[tuple]) -> list[tuple]:
    """``rows`` with the first alignment's score off by one (self-test)."""
    if not rows:
        return [(0, 0, 0, 0, 1, "")]
    first = rows[0]
    return [first[:4] + (first[4] + 1,) + first[5:], *rows[1:]]


#: Time :func:`speed_probe_s` takes on the reference machine.  Timing
#: metrics are scaled to it: a time measured while the probe took twice
#: this long is reported halved.
PROBE_REF_S = 0.015


def speed_probe_s() -> float:
    """Wall time of a short fixed pure-Python loop: the machine's speed now.

    On a shared VM the interpreter's speed swings by tens of percent from
    one minute to the next, and the program's operations swing with it;
    this loop tracks those swings far more closely than a NumPy loop does.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def speed_factor(*probes: float) -> float:
    """How many times slower than the reference the machine ran."""
    return statistics.fmean(probes) / PROBE_REF_S


def cpu_probe_ms() -> float:
    """Ten speed probes back to back, in ms: the run fingerprint's record."""
    return sum(speed_probe_s() for _ in range(10)) * 1e3


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path) -> dict:
    """What the run's figures depend on besides the code under test."""
    import numpy

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
