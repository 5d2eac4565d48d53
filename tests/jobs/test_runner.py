"""End-to-end tests for ``run_wga``: equivalence, resume, fault tolerance.

The acceptance bar for the job runner is *byte-identity*: a job — at any
worker count, with any resume history — must produce exactly the
alignments of a single-pass ``run_fastz``, including alignments that span
chunk seams.
"""

import functools
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.core import pool
from repro.core.pipeline import run_fastz
from repro.genome import SegmentClass, build_pair
from repro.jobs import JobDigestMismatch, JobOptions, replay, run_wga, runner
from repro.jobs.merge import sort_canonical
from repro.lastz import LastzConfig, select_anchors, write_general, write_maf
from repro.obs import Tracer
from repro.scoring import default_scheme
from repro.seeding import LASTZ_SPACED_SEED

CHUNK = 8_192


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


@pytest.fixture(scope="module")
def reference(pair, config):
    result = run_fastz(pair.target, pair.query, config)
    return sort_canonical(result.unique_alignments())


def options(**kw):
    kw.setdefault("chunk_size", CHUNK)
    kw.setdefault("fsync", False)
    kw.setdefault("backoff_s", 0.001)
    return JobOptions(**kw)


_REAL_EXTEND_HANDLER = runner._extend_handler


def _counting_extend_handler(state, payloads, attempt):
    """The real extend handler, appending its engine-call count to a file.

    Module-level so a pool worker can unpickle it; the file named by
    ``ENGINE_CALLS_FILE`` carries the count out of the worker process.
    """
    tracer = Tracer()
    obs.enable(tracer=tracer)
    try:
        values = _REAL_EXTEND_HANDLER(state, payloads, attempt)
    finally:
        obs.disable()
    calls = sum(len(root.find("fastz.extend")) for root in tracer.roots)
    with open(os.environ["ENGINE_CALLS_FILE"], "a") as handle:
        handle.write(f"{calls}\n")
    return values


def _lethal_extend_handler(state, payloads, attempt):
    """The real extend handler, except that ``LETHAL_TASK`` kills its worker.

    Module-level: workers inherit it by fork, as in ``test_scheduler.py``.
    """
    if any(p["id"] == os.environ["LETHAL_TASK"] for p in payloads):
        os._exit(1)
    return _REAL_EXTEND_HANDLER(state, payloads, attempt)


def _pid_logging(fn):
    """``fn``, appending its name and its process id to ``HANDLER_PIDS_FILE``.

    The wrapper keeps ``fn``'s module and name, so once it replaces ``fn``
    on the runner module a message pickles it by reference and a forked
    worker finds it there.
    """

    @functools.wraps(fn)
    def wrapper(state, payloads, attempt):
        with open(os.environ["HANDLER_PIDS_FILE"], "a") as handle:
            handle.write(f"{fn.__name__} {os.getpid()}\n")
        return fn(state, payloads, attempt)

    return wrapper


def journal_task_records(job_dir):
    lines = (job_dir / "journal.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    return [r for r in records if r["type"] in ("seeds", "chunk")]


class TestEquivalence:
    def test_inline_matches_single_pass(self, pair, config, reference, tmp_path):
        report = run_wga(
            pair.target, pair.query, config, job=options(), job_dir=tmp_path
        )
        assert report.alignments == reference
        assert report.complete and not report.resumed

    def test_seam_spanning_alignments_survive_tiny_overlap(
        self, pair, config, reference, tmp_path
    ):
        # Cores meet with no overlap at all, and extension never sees them,
        # so an alignment that crosses a core seam is the single pass's.
        chunk = 1_024

        def crosses(start, end, length):
            owner = runner._owner_index(np.array([start, end - 1]), length, chunk)
            return owner[0] != owner[1]

        assert any(
            crosses(a.target_start, a.target_end, len(pair.target))
            or crosses(a.query_start, a.query_end, len(pair.query))
            for a in reference
        )
        report = run_wga(
            pair.target,
            pair.query,
            config,
            job=options(chunk_size=chunk),
            job_dir=tmp_path,
        )
        assert report.n_extend_tasks > 1
        assert report.alignments == reference

    def test_worker_counts_byte_identical(self, pair, config, tmp_path):
        outputs = {}
        for workers in (0, 2, 4, 8):
            job_dir = tmp_path / f"w{workers}"
            report = run_wga(
                pair.target,
                pair.query,
                config,
                job=options(workers=workers),
                job_dir=job_dir,
            )
            general = job_dir / "out.tsv"
            maf = job_dir / "out.maf"
            write_general(general, report.alignments, pair.target, pair.query)
            write_maf(maf, report.alignments, pair.target, pair.query)
            outputs[workers] = (general.read_bytes(), maf.read_bytes())
        for workers in (2, 4, 8):
            assert outputs[workers] == outputs[0], f"workers={workers} diverged"


class TestSeedPhase:
    """The seed phase is one ``select_anchors`` task, journaled once."""

    @pytest.mark.parametrize("spaced_pattern", [None, LASTZ_SPACED_SEED])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_seeds_record_holds_the_single_pass_anchors(
        self, pair, workers, spaced_pattern, tmp_path
    ):
        config = LastzConfig(
            scheme=default_scheme(gap_extend=60, ydrop=2400),
            diag_band=150,
            spaced_pattern=spaced_pattern,
        )
        report = run_wga(
            pair.target, pair.query, config,
            job=options(workers=workers), job_dir=tmp_path,
        )
        expected = select_anchors(pair.target, pair.query, config)
        seeds = [
            r for r in journal_task_records(tmp_path) if r["type"] == "seeds"
        ]
        assert report.n_seed_tasks == 1
        assert [r["task"] for r in seeds] == ["anchors"]
        assert seeds[0]["at"] == expected.target_pos.tolist()
        assert seeds[0]["aq"] == expected.query_pos.tolist()
        assert report.n_anchors == len(expected) > 0
        assert report.alignments == sort_canonical(
            run_fastz(pair.target, pair.query, config).unique_alignments()
        )

    def test_seed_fault_hook_retries_quarantines_and_resumes(
        self, pair, config, reference, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WGA_TEST_FAIL", "s:anchors=1")
        retried = run_wga(
            pair.target, pair.query, config,
            job=options(), job_dir=tmp_path / "retried",
        )
        assert retried.retries == 1 and retried.complete
        assert retried.alignments == reference

        monkeypatch.setenv("REPRO_WGA_TEST_FAIL", "s:anchors=-1")
        gapped = run_wga(
            pair.target, pair.query, config,
            job=options(max_attempts=2), job_dir=tmp_path / "gapped",
        )
        assert [(g.phase, g.task_id) for g in gapped.quarantined] == [
            ("seed", "anchors")
        ]
        assert gapped.n_anchors == 0 and gapped.alignments == []

        monkeypatch.delenv("REPRO_WGA_TEST_FAIL")
        healed = run_wga(
            pair.target, pair.query, config,
            job=options(), job_dir=tmp_path / "gapped",
        )
        assert healed.resumed and healed.complete
        assert healed.seed_skipped == 0
        assert healed.alignments == reference

class TestFusedExtend:
    """A worker runs its unit of extend tasks through one engine call."""

    def test_one_worker_makes_one_engine_call(
        self, pair, config, reference, tmp_path, monkeypatch
    ):
        calls = tmp_path / "engine_calls"
        monkeypatch.setenv("ENGINE_CALLS_FILE", str(calls))
        monkeypatch.setattr(runner, "_extend_handler", _counting_extend_handler)
        report = run_wga(
            pair.target, pair.query, config,
            job=options(workers=1), job_dir=tmp_path / "job",
        )
        assert report.alignments == reference
        assert report.n_extend_tasks > 1
        # One unit of every extend task, one fastz.extend span.
        assert calls.read_text().split() == ["1"]

class TestWorkerGroup:
    """A job forks its workers once: both phases run on one group."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_group_runs_seed_and_extend(
        self, pair, config, reference, workers, tmp_path, monkeypatch
    ):
        groups = []
        init = pool.ProcessSlots.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            groups.append(self.pids)

        monkeypatch.setattr(pool.ProcessSlots, "__init__", recording_init)
        ran = tmp_path / "pids"
        monkeypatch.setenv("HANDLER_PIDS_FILE", str(ran))
        for name in ("_seed_handler", "_extend_handler"):
            monkeypatch.setattr(runner, name, _pid_logging(getattr(runner, name)))
        report = run_wga(
            pair.target, pair.query, config,
            job=options(workers=workers), job_dir=tmp_path / "job",
        )
        assert report.alignments == reference
        assert len(groups) == 1 and len(groups[0]) == workers
        calls = [line.split() for line in ran.read_text().splitlines()]
        assert {name for name, _ in calls} == {"_seed_handler", "_extend_handler"}
        assert {int(pid) for _, pid in calls} <= set(groups[0])
        # A rerun finds every task journaled and forks no workers.
        groups.clear()
        resumed = run_wga(
            pair.target, pair.query, config,
            job=options(workers=workers), job_dir=tmp_path / "job",
        )
        assert resumed.resumed and resumed.alignments == reference
        assert groups == []


class TestResume:
    def test_completed_job_skips_everything(self, pair, config, tmp_path):
        first = run_wga(
            pair.target, pair.query, config, job=options(), job_dir=tmp_path
        )
        n_tasks = len(journal_task_records(tmp_path))
        second = run_wga(
            pair.target, pair.query, config, job=options(), job_dir=tmp_path
        )
        assert second.resumed
        assert second.seed_skipped == second.n_seed_tasks
        assert second.extend_skipped == second.n_extend_tasks
        assert second.alignments == first.alignments
        # No task was re-executed: the journal gained no task records.
        assert len(journal_task_records(tmp_path)) == n_tasks

    def test_digest_mismatch_rejected(self, pair, config, tmp_path):
        run_wga(pair.target, pair.query, config, job=options(), job_dir=tmp_path)
        other = LastzConfig(
            scheme=default_scheme(gap_extend=30, ydrop=2400), diag_band=150
        )
        with pytest.raises(JobDigestMismatch):
            run_wga(pair.target, pair.query, other, job=options(), job_dir=tmp_path)

    def test_older_journal_version_refused_and_fresh_rotates_it(
        self, pair, config, tmp_path, monkeypatch
    ):
        # The digest hashes the journal version, so a journal written under
        # an older schema is refused at its header, never misread.
        with monkeypatch.context() as patch:
            patch.setattr(runner, "JOURNAL_VERSION", 1)
            run_wga(pair.target, pair.query, config, job=options(), job_dir=tmp_path)
        with pytest.raises(JobDigestMismatch):
            run_wga(pair.target, pair.query, config, job=options(), job_dir=tmp_path)
        report = run_wga(
            pair.target, pair.query, config,
            job=options(), job_dir=tmp_path, fresh=True,
        )
        assert not report.resumed
        assert len(list(tmp_path.glob("journal.jsonl.stale-*"))) == 1
        header = next(replay(tmp_path / "journal.jsonl"))
        assert header["version"] == 2 and "overlap" not in header
        for record in journal_task_records(tmp_path):
            assert "window_fallbacks" not in record

    def test_fresh_discards_mismatched_journal(self, pair, config, tmp_path):
        run_wga(pair.target, pair.query, config, job=options(), job_dir=tmp_path)
        other = LastzConfig(
            scheme=default_scheme(gap_extend=30, ydrop=2400), diag_band=150
        )
        report = run_wga(
            pair.target, pair.query, other,
            job=options(), job_dir=tmp_path, fresh=True,
        )
        assert not report.resumed
        assert list(tmp_path.glob("journal.jsonl.stale-*"))

    def test_stale_rotation_names_never_collide(self, tmp_path):
        # A wall-clock-seconds stamp collides when two fresh runs rotate
        # within the same second; the digest+pid+monotonic stamp must not.
        from repro.jobs.runner import _stale_journal_name

        journal = tmp_path / "journal.jsonl"
        digest = "abcdef0123456789"
        names = {_stale_journal_name(journal, digest) for _ in range(64)}
        assert len(names) == 64
        for name in names:
            assert digest[:12] in name.name

    def test_back_to_back_fresh_runs_keep_both_rotations(
        self, pair, config, tmp_path
    ):
        run_wga(pair.target, pair.query, config, job=options(), job_dir=tmp_path)
        for _ in range(2):
            run_wga(
                pair.target, pair.query, config,
                job=options(), job_dir=tmp_path, fresh=True,
            )
        # Three journals existed; the two discarded ones both survive.
        assert len(list(tmp_path.glob("journal.jsonl.stale-*"))) == 2


class TestIncrementalAlignments:
    def test_on_alignment_streams_the_final_set(
        self, pair, config, reference, tmp_path
    ):
        streamed = []
        report = run_wga(
            pair.target, pair.query, config,
            job=options(), job_dir=tmp_path, on_alignment=streamed.append,
        )
        assert report.alignments == reference
        assert sort_canonical(streamed) == report.alignments


class TestFaultTolerance:
    @pytest.fixture()
    def extend_task_id(self, pair, config, tmp_path_factory):
        """A chunk-task id that actually exists for this pair/geometry."""
        probe = tmp_path_factory.mktemp("probe")
        run_wga(pair.target, pair.query, config, job=options(), job_dir=probe)
        chunk_tasks = [
            r["task"] for r in journal_task_records(probe) if r["type"] == "chunk"
        ]
        assert chunk_tasks
        return sorted(chunk_tasks)[0]

    def test_transient_failure_retried(
        self, pair, config, reference, tmp_path, monkeypatch, extend_task_id
    ):
        monkeypatch.setenv("REPRO_WGA_TEST_FAIL", f"e:{extend_task_id}=1")
        report = run_wga(
            pair.target, pair.query, config, job=options(), job_dir=tmp_path
        )
        assert report.retries == 1
        assert report.complete
        assert report.alignments == reference

    def test_persistent_failure_quarantined(
        self, pair, config, reference, tmp_path, monkeypatch, extend_task_id
    ):
        monkeypatch.setenv("REPRO_WGA_TEST_FAIL", f"e:{extend_task_id}=-1")
        report = run_wga(
            pair.target,
            pair.query,
            config,
            job=options(max_attempts=2),
            job_dir=tmp_path,
        )
        # The job completes and reports the gap instead of crashing.
        assert not report.complete
        (gap,) = report.quarantined
        assert gap.task_id == extend_task_id
        assert gap.phase == "extend"
        assert gap.attempts == 2
        assert 0 < len(report.alignments) < len(reference)

    def test_quarantined_chunk_retried_on_resume(
        self, pair, config, reference, tmp_path, monkeypatch, extend_task_id
    ):
        monkeypatch.setenv("REPRO_WGA_TEST_FAIL", f"e:{extend_task_id}=-1")
        first = run_wga(
            pair.target,
            pair.query,
            config,
            job=options(max_attempts=2),
            job_dir=tmp_path,
        )
        assert first.quarantined
        monkeypatch.delenv("REPRO_WGA_TEST_FAIL")
        healed = run_wga(
            pair.target, pair.query, config, job=options(), job_dir=tmp_path
        )
        assert healed.resumed and healed.complete
        assert healed.alignments == reference

    def test_quarantining_death_is_not_a_retry(
        self, pair, config, tmp_path, monkeypatch, extend_task_id
    ):
        # One worker runs the extend phase as one unit: its death splits
        # the unit, then the lethal task dies alone and, with one attempt,
        # is quarantined.  Neither death re-queues a task.
        monkeypatch.setenv("LETHAL_TASK", extend_task_id)
        monkeypatch.setattr(runner, "_extend_handler", _lethal_extend_handler)
        lines = []
        report = run_wga(
            pair.target, pair.query, config,
            job=options(workers=1, max_attempts=1), job_dir=tmp_path,
            log=lines.append,
        )
        assert report.retries == 0
        assert report.worker_deaths == 2
        assert [gap.task_id for gap in report.quarantined] == [extend_task_id]
        assert not [line for line in lines if "re-queued" in line]

    def test_pool_retry_in_worker(
        self, pair, config, reference, tmp_path, monkeypatch, extend_task_id
    ):
        # Workers inherit the environment, so the fault fires inside a
        # spawned process and the retry crosses the pool boundary.
        monkeypatch.setenv("REPRO_WGA_TEST_FAIL", f"e:{extend_task_id}=1")
        report = run_wga(
            pair.target,
            pair.query,
            config,
            job=options(workers=2),
            job_dir=tmp_path,
        )
        assert report.retries == 1
        assert report.complete
        assert report.alignments == reference
