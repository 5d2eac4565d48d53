"""Kill-and-resume test: a SIGKILLed job resumes from its journal.

Runs the job in a subprocess with ``REPRO_WGA_TEST_EXIT_AFTER=K``, which
``os._exit(137)``s the coordinator right after the K-th task record is
journaled — the exact effect of a SIGKILL mid-run (no cleanup, no flush
beyond what already hit the journal).  The resumed job must re-execute
only the unfinished tasks and end with output identical to an
uninterrupted run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.pipeline import run_fastz
from repro.genome import SegmentClass, build_pair
from repro.jobs import JobOptions, run_wga
from repro.jobs.merge import sort_canonical
from repro.lastz import LastzConfig
from repro.scoring import default_scheme

EXIT_AFTER = 5

# The subprocess re-creates the same deterministic job and gets killed by
# the env hook partway through.
_KILLED_JOB = """
import sys
from repro.genome import SegmentClass, build_pair
from repro.jobs import JobOptions, run_wga
from repro.lastz import LastzConfig
from repro.scoring import default_scheme

pair = build_pair(
    "wga", target_length=24_000, query_length=24_000,
    classes=[SegmentClass("mid", 10, 80, 300, divergence=0.06, indel_rate=0.004)],
    rng=7,
)
run_wga(
    pair.target, pair.query,
    LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400), diag_band=150),
    job=JobOptions(chunk_size=8_192, workers=int(sys.argv[2]), fsync=False),
    job_dir=sys.argv[1],
    log=lambda line: print(line, file=sys.stderr, flush=True),
)
"""


@pytest.fixture(scope="module")
def pair():
    return build_pair(
        "wga",
        target_length=24_000,
        query_length=24_000,
        classes=[
            SegmentClass("mid", 10, 80, 300, divergence=0.06, indel_rate=0.004)
        ],
        rng=7,
    )


@pytest.fixture(scope="module")
def config():
    return LastzConfig(
        scheme=default_scheme(gap_extend=60, ydrop=2400), diag_band=150
    )


def task_records(job_dir: Path):
    lines = (job_dir / "journal.jsonl").read_text().splitlines()
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # possible torn final line — exactly what replay drops
    return [r for r in records if r.get("type") in ("seeds", "chunk")]


def run_killed_job(job_dir: Path, exit_after: int, workers: int):
    env = dict(
        os.environ,
        REPRO_WGA_TEST_EXIT_AFTER=str(exit_after),
        PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[2] / "src"),
            os.environ.get("PYTHONPATH", ""),
        ])),
    )
    return subprocess.run(
        [sys.executable, "-c", _KILLED_JOB, str(job_dir), str(workers)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_sigkilled_job_resumes_without_rework(pair, config, tmp_path):
    proc = run_killed_job(tmp_path, EXIT_AFTER, workers=2)
    assert proc.returncode == 137, proc.stderr

    done_before = task_records(tmp_path)
    assert len(done_before) == EXIT_AFTER

    report = run_wga(
        pair.target,
        pair.query,
        config,
        job=JobOptions(chunk_size=8_192, workers=2, fsync=False),
        job_dir=tmp_path,
    )
    assert report.resumed
    # Exactly the journaled tasks were skipped...
    assert report.seed_skipped + report.extend_skipped == EXIT_AFTER
    # ...and no journaled task ran twice (ids stay unique after resume).
    done_after = task_records(tmp_path)
    ids = [(r["type"], r["task"]) for r in done_after]
    assert len(ids) == len(set(ids))
    assert len(done_after) == report.n_seed_tasks + report.n_extend_tasks

    # Final output identical to an uninterrupted single-pass run.
    reference = sort_canonical(
        run_fastz(pair.target, pair.query, config).unique_alignments()
    )
    assert report.alignments == reference


def test_kill_inside_a_fused_unit_reruns_only_its_missing_tasks(
    pair, config, tmp_path
):
    # One worker: the extend phase is one unit of every chunk task, and
    # the kill lands right after that unit's second journaled record.
    reference = run_wga(
        pair.target, pair.query, config,
        job=JobOptions(chunk_size=8_192, fsync=False),
        job_dir=tmp_path / "reference",
    )
    n_seed, n_extend = reference.n_seed_tasks, reference.n_extend_tasks
    assert n_extend > 2
    job_dir = tmp_path / "killed"
    proc = run_killed_job(job_dir, n_seed + 2, workers=1)
    assert proc.returncode == 137, proc.stderr
    assert f"[extend] {n_extend} tasks in 1 units" in proc.stderr
    done_before = task_records(job_dir)
    assert [r["type"] for r in done_before] == ["seeds"] * n_seed + ["chunk"] * 2

    report = run_wga(
        pair.target,
        pair.query,
        config,
        job=JobOptions(chunk_size=8_192, workers=1, fsync=False),
        job_dir=job_dir,
    )
    assert report.resumed
    assert report.seed_skipped == n_seed and report.extend_skipped == 2
    done_after = task_records(job_dir)
    ids = [(r["type"], r["task"]) for r in done_after]
    assert len(ids) == len(set(ids)) == n_seed + n_extend
    assert report.alignments == reference.alignments == sort_canonical(
        run_fastz(pair.target, pair.query, config).unique_alignments()
    )


def test_resuming_a_completed_job_costs_under_10pct_of_a_single_pass(
    config, tmp_path
):
    """A completed job re-runs from its journal alone.

    Every task is skipped, the output matches the single pass, and the
    replay takes under 10% of the single pass's time on a 120 kbp pair
    in 16 kbp chunks.
    """
    pair = build_pair(
        "bench-jobs",
        target_length=120_000,
        query_length=120_000,
        classes=[
            SegmentClass("mid", 40, 80, 300, divergence=0.06, indel_rate=0.004),
            SegmentClass("long", 4, 400, 900, divergence=0.08, indel_rate=0.003),
        ],
        rng=42,
    )
    start = time.perf_counter()
    reference = sort_canonical(
        run_fastz(pair.target, pair.query, config).unique_alignments()
    )
    single_pass_s = time.perf_counter() - start
    job = JobOptions(chunk_size=16_384, workers=8, fsync=False)
    run_wga(pair.target, pair.query, config, job=job, job_dir=tmp_path)

    start = time.perf_counter()
    resumed = run_wga(pair.target, pair.query, config, job=job, job_dir=tmp_path)
    resume_s = time.perf_counter() - start
    assert resumed.resumed and resumed.alignments == reference
    assert resumed.seed_skipped == resumed.n_seed_tasks
    assert resumed.extend_skipped == resumed.n_extend_tasks
    assert resume_s < 0.10 * single_pass_s, (
        f"resume {resume_s:.3f}s vs single pass {single_pass_s:.2f}s (gate < 10%)"
    )
