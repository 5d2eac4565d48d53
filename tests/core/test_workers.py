"""``workers=`` on barrier and streamed runs.

Both run their extensions through one per-call
:class:`~repro.core.pool.WorkerPool` (a streamed run sends it one slice
of anchors at a time): a worker that dies has its shard
re-dispatched to a replacement, and a shard that raises re-raises its own
exception, exactly as the in-process engine would.  The death tests run
the pipeline in a subprocess with a timeout, so a pool that never
notices a death fails the test instead of hanging the suite.
"""

import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import run_fastz
from repro.core.pool import ProcessSlots
from repro.seeding import Anchors
from repro.workloads.profiles import BENCH_OPTIONS, bench_config

from .test_pipeline_batched import _assert_runs_identical

# (options, run_fastz kwargs) per mode; a streamed run gets a small
# batch_size so it is several slices.
RUNS = {
    "barrier": (BENCH_OPTIONS, {}),
    "stream": (
        replace(BENCH_OPTIONS, batch_size=8),
        {"on_partial": lambda partial: None},
    ),
}

# Runs one pipeline with workers=2 and pickles back the result plus the
# stats of every pool the run closed.
_KILLED_RUN = """
import pickle, sys
from dataclasses import replace
from repro.core import pool, run_fastz
from repro.workloads.profiles import BENCH_OPTIONS, bench_config

stats = []
close = pool.WorkerPool.close

def recording_close(self, *args, **kwargs):
    stats.append(self.stats())
    close(self, *args, **kwargs)

pool.WorkerPool.close = recording_close
path, mode = sys.argv[1:]
with open(path, "rb") as handle:
    target, query = pickle.load(handle)
if mode == "stream":
    options = replace(BENCH_OPTIONS, batch_size=8)
    kwargs = {"on_partial": lambda partial: None}
else:
    options, kwargs = BENCH_OPTIONS, {}
result = run_fastz(target, query, bench_config(), options, workers=2, **kwargs)
with open(path, "wb") as handle:
    pickle.dump((result, stats), handle)
"""


@pytest.fixture(scope="module")
def scalar_run(tiny_genome_pair):
    return run_fastz(
        tiny_genome_pair.target,
        tiny_genome_pair.query,
        bench_config(),
        replace(BENCH_OPTIONS, engine="scalar"),
    )


@pytest.mark.parametrize("mode", RUNS)
def test_worker_death_mid_run_completes(tiny_genome_pair, scalar_run, mode, tmp_path):
    # Worker 0 hard-exits on its first shard: the run must replace it,
    # re-dispatch the shard and still match the scalar engine.
    path = tmp_path / "run.pkl"
    path.write_bytes(pickle.dumps((tiny_genome_pair.target, tiny_genome_pair.query)))
    env = dict(
        os.environ,
        REPRO_POOL_TEST_KILL_WORKER="0",
        PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[2] / "src"),
            os.environ.get("PYTHONPATH", ""),
        ])),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_RUN, str(path), mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result, stats = pickle.loads(path.read_bytes())
    _assert_runs_identical(scalar_run, result)
    assert len(stats) == 1
    assert stats[0]["respawns"] >= 1
    assert stats[0]["redispatches"] >= 1


@pytest.mark.parametrize("mode", RUNS)
def test_shard_exception_keeps_its_type(mode):
    # Out-of-alphabet codes raise IndexError in the engine; through the
    # pool the caller sees the same exception, not a flattened one.
    codes = np.random.default_rng(3).integers(0, 4, 2_000, dtype=np.uint8)
    codes[500:600] = 99
    anchors = Anchors(np.array([520, 550]), np.array([520, 550]))
    options, kwargs = RUNS[mode]
    with pytest.raises(IndexError, match="alphabet"):
        run_fastz(
            codes, codes, bench_config(), options, anchors=anchors, workers=2,
            **kwargs,
        )


def test_streamed_slices_ship_handles_not_codes(tiny_genome_pair, monkeypatch):
    # The pair is published to shared memory once per call: every slice's
    # shard message carries two handles and its rows, never the codes.
    shipped = []
    send = ProcessSlots.send

    def spy(self, slot, tag, item):
        _handler, payloads, _attempt = item
        for _params, work in payloads:
            shipped.append(pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL))
        return send(self, slot, tag, item)

    monkeypatch.setattr(ProcessSlots, "send", spy)
    pair = tiny_genome_pair
    options, kwargs = RUNS["stream"]
    barrier = run_fastz(pair.target, pair.query, bench_config(), options)
    streamed = run_fastz(
        pair.target, pair.query, bench_config(), options, workers=2, **kwargs
    )
    _assert_runs_identical(barrier, streamed)
    slices = -(-len(streamed.tasks) // max(1, options.batch_size // 2))
    assert slices > 1 and len(shipped) >= slices
    names = set()
    for message in shipped:
        sources, _rows = pickle.loads(message)
        assert [src[0] for src in sources] == ["shm", "shm"]
        names.update(src[1] for src in sources)
        assert len(message) < 4096
    assert len(names) == 2
