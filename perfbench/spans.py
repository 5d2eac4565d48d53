"""Span records read from the program's own tracer.

The program already opens a span at every layer the benchmark reports:
``fastz.prepare`` (seeding), ``fastz.extend`` (one per engine call),
``fastz.inspector``, ``fastz.executor`` (with its length ``bin``),
``fastz.finish``, ``fastz.chunk``, ``jobs.seed``/``jobs.extend`` and
``service.*``.  A traced run enables ``repro.obs`` with a
:class:`~repro.obs.Tracer` that keeps every root span, and :func:`flatten`
turns those trees into records ``{id, name, start, end, parent, op, pid,
attrs}``.

The tracer cannot see into a job worker process: the worker is forked
with a copy of it, and the copy dies with the worker.  So
:func:`install_task_shipping` wraps the job task handlers; after every
task a worker appends the task's spans, with its metric-counter deltas,
to ``worker-<pid>.jsonl``, and :func:`collect_worker_files` folds them
back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from pathlib import Path

#: Length bins of the executor (``fastz.executor`` spans carry ``bin``).
EXECUTOR_BINS = (1, 2, 3, 4)

_ids = itertools.count(1)


def flatten(roots) -> list[dict]:
    """Span trees as flat records, parents before their children."""
    pid = os.getpid()
    out: list[dict] = []

    def walk(span, parent: str | None) -> None:
        span_id = f"{pid}:{next(_ids)}"
        start = span._t0  # the tracer's perf_counter at span entry
        out.append(
            {
                "id": span_id,
                "name": span.name,
                "start": start,
                "end": start + span.wall_s,
                "parent": parent,
                "op": None,
                "pid": pid,
                "attrs": dict(span.attributes),
            }
        )
        for child in span.children:
            walk(child, span_id)

    for root in list(roots):
        walk(root, None)
    return out


def load_spans(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def dump_spans(path: Path, spans: list[dict]) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def counter_totals(text: str) -> dict[str, float]:
    """Sum a Prometheus text exposition by sample name (labels folded)."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name = head.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


def registry_totals() -> dict[str, float]:
    """Counter totals of the process-wide ``repro.obs`` registry."""
    from repro import obs

    return counter_totals(obs.get_registry().render())


def counter_delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time in seconds per span name.

    A span's self time is its duration minus the part of its interval its
    child spans cover.  Children of one parent can overlap (spans adopted
    across threads), so the covered part is the union of their intervals.
    """
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["name"]] = out.get(span["name"], 0.0) + (end - start - covered)
    return out


def _shipping(fn, out_dir: Path, parent_pid: int):
    """A job task handler that ships a worker's spans and counters to a file."""

    @functools.wraps(fn)
    def wrapper(state, payload, attempt):
        from repro import obs

        tracer = obs.get_tracer()
        if os.getpid() == parent_pid or not hasattr(tracer, "roots"):
            return fn(state, payload, attempt)
        # The worker inherits the forking thread's open spans, so the
        # task's spans land under the innermost of them, not as roots.
        home = tracer.current()
        landed = home.children if home is not None else tracer.roots
        mark = len(landed)
        before = registry_totals()
        out = fn(state, payload, attempt)
        record = {
            "spans": flatten(list(landed)[mark:]),
            "counters": counter_delta(registry_totals(), before),
        }
        if home is not None:
            del home.children[mark:]
        else:
            tracer.roots.clear()
        with open(out_dir / f"worker-{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(record) + "\n")
        return out

    return wrapper


def install_task_shipping(out_dir: Path):
    """Wrap the job task handlers; returns a callable that restores them."""
    import repro.jobs.runner as runner

    originals = {name: getattr(runner, name) for name in ("_seed_handler", "_extend_handler")}
    for name, fn in originals.items():
        setattr(runner, name, _shipping(fn, out_dir, os.getpid()))

    def uninstall() -> None:
        for name, fn in originals.items():
            setattr(runner, name, fn)

    return uninstall


def collect_worker_files(out_dir: Path) -> tuple[list[dict], dict[str, float]]:
    """Spans and counter deltas the job workers shipped; the files are removed."""
    span_list: list[dict] = []
    deltas: dict[str, float] = {}
    for path in sorted(out_dir.glob("worker-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            span_list.extend(record["spans"])
            for name, value in record["counters"].items():
                deltas[name] = deltas.get(name, 0.0) + value
        path.unlink()
    return span_list, deltas
