"""Multicore LASTZ: functional multi-process partitioning + timing model.

The paper's multicore baseline partitions the seed list across 32 processes,
each running the default sequential DP (paper §3.4: none of FastZ's GPU
innovations apply to multicores).  Two things are provided here:

* :func:`run_multicore_lastz` — a *functional* partitioned run: anchors are
  dealt round-robin to ``processes`` logical workers, each worker runs the
  sequential pipeline with its own (partition-local) work-reduction index,
  and results are merged.  Cross-partition work reduction is lost, exactly
  as in the real multi-process implementation.
* the timing model lives in :mod:`repro.lastz.cpu_model` and consumes this
  run's per-worker work profile.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from ..genome.sequence import Sequence, as_codes
from ..seeding import Anchors
from ..store import StoredReference
from .config import LastzConfig
from .cpu_model import CpuSpec, RYZEN_3950X, multicore_seconds, sequential_seconds
from .pipeline import LastzResult, run_gapped_lastz, select_anchors

__all__ = ["MulticoreResult", "run_multicore_lastz"]


@dataclass
class MulticoreResult:
    """Merged output of the partitioned run."""

    worker_results: list[LastzResult]
    processes: int

    @property
    def alignments(self):
        out = []
        for res in self.worker_results:
            out.extend(res.alignments)
        return out

    @property
    def cells_per_task(self) -> np.ndarray:
        parts = [r.cells_per_task for r in self.worker_results]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    @property
    def total_cells(self) -> int:
        return int(self.cells_per_task.sum())

    def worker_loads(self) -> np.ndarray:
        """DP cells per worker — the load-balance view."""
        return np.array([r.total_cells for r in self.worker_results], dtype=np.int64)

    def modelled_seconds(self, cpu: CpuSpec = RYZEN_3950X) -> float:
        return multicore_seconds(self.cells_per_task, cpu, processes=self.processes)

    def modelled_speedup(
        self, sequential_cells: np.ndarray, cpu: CpuSpec = RYZEN_3950X
    ) -> float:
        """Speedup over a sequential run with the given work profile."""
        seq = sequential_seconds(sequential_cells, cpu)
        par = self.modelled_seconds(cpu)
        return seq / par if par > 0 else float("inf")


def _run_partitions(state, payloads: list, _attempt: int) -> list[LastzResult]:
    """Run the sequential pipeline on each partition's anchors.

    A :func:`~repro.core.pool.run_tasks` handler (module-level, so workers
    get it by reference); ``state`` is ``(t_codes, q_codes, config)``.
    """
    t_codes, q_codes, config = state
    return [
        run_gapped_lastz(t_codes, q_codes, config, anchors=part) for part in payloads
    ]


def run_multicore_lastz(
    target: Sequence | StoredReference | np.ndarray,
    query: Sequence | StoredReference | np.ndarray,
    config: LastzConfig | None = None,
    *,
    anchors: Anchors | None = None,
    processes: int = 32,
    use_os_processes: bool = False,
) -> MulticoreResult:
    """Functional partitioned run.

    By default workers execute in-process (deterministic and cheap): the
    point is the *partitioning semantics* — who extends what, which work
    reduction survives.  With ``use_os_processes=True`` the partitions run
    as one :func:`~repro.core.pool.run_tasks` call on a group of up to 8
    worker processes, which is the actual deployment shape of the paper's
    multicore baseline (results are identical; wall-clock depends on the
    host, which is why speedups come from the cost model rather than from
    timing this Python code).  A partition that fails raises.
    """
    if processes <= 0:
        raise ValueError("processes must be positive")
    config = config or LastzConfig()
    if anchors is None:
        anchors = select_anchors(target, query, config)
    state = (as_codes(target), as_codes(query), config)
    n = len(anchors)
    parts = [anchors.take(np.arange(w, n, processes)) for w in range(processes)]

    if use_os_processes:
        # Imported here: repro.core imports this package.
        from ..core.pool import TaskSpec, open_slots, run_tasks

        tasks = [TaskSpec(str(w), part) for w, part in enumerate(parts)]
        # At most 8 processes: don't oversubscribe the host.
        slots = open_slots(min(processes, 8), state, name="repro-multicore")
        with closing(slots):
            outcomes = run_tasks(tasks, _run_partitions, slots)
        failed = [outcome for outcome in outcomes.values() if not outcome.ok]
        if failed:
            raise RuntimeError(
                f"partition {failed[0].task_id} failed: {failed[0].error}"
            )
        worker_results = [outcomes[task.task_id].value for task in tasks]
    else:
        worker_results = _run_partitions(state, parts, 1)
    return MulticoreResult(worker_results=worker_results, processes=processes)
