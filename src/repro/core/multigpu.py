"""Multi-GPU extension (paper §6, "Multi-GPU/node extension").

The paper defers this to future work but notes the approach directly:
"the seeds can be partitioned easily.  As such, each partition can be
assigned to different GPUs and/or nodes for parallel execution."

This module models exactly that: anchors are dealt round-robin across
``n_gpus`` identical devices, each partition runs the full FastZ schedule
independently (inspector, executor bins, streams), and the wall-clock is
the slowest device — plus a host-side scatter/gather term, since the
sequences must be broadcast and the alignments collected once per device.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpusim.calibration import Calibration, DEFAULT_CALIBRATION
from ..gpusim.device import DeviceSpec
from .options import FASTZ_FULL, FastzOptions
from .perfmodel import FastzTiming, time_fastz
from .task import TaskArrays

__all__ = [
    "MultiGpuTiming",
    "greedy_partition",
    "partition_arrays",
    "partition_loads",
    "time_fastz_multi_gpu",
]


@dataclass(frozen=True)
class MultiGpuTiming:
    """Modelled multi-GPU execution of one FastZ run."""

    per_gpu: tuple[FastzTiming, ...]
    broadcast_seconds: float
    n_gpus: int

    @property
    def total_seconds(self) -> float:
        slowest = max((t.total_seconds for t in self.per_gpu), default=0.0)
        return slowest + self.broadcast_seconds

    def scaling_efficiency(self, single: FastzTiming) -> float:
        """(single-GPU time / n) / multi-GPU time: 1.0 = perfect scaling."""
        if self.total_seconds <= 0:
            return 0.0
        return single.total_seconds / (self.n_gpus * self.total_seconds)


def _take(arrays: TaskArrays, idx: np.ndarray) -> TaskArrays:
    """Select a subset of tasks (task indices) from a TaskArrays."""
    side_idx = np.empty(2 * idx.shape[0], dtype=np.int64)
    side_idx[0::2] = 2 * idx
    side_idx[1::2] = 2 * idx + 1
    kwargs = {}
    for name in TaskArrays.__dataclass_fields__:
        value = getattr(arrays, name)
        kwargs[name] = value[side_idx] if name.startswith("side_") else value[idx]
    return TaskArrays(**kwargs)


def partition_arrays(arrays: TaskArrays, n_parts: int) -> list[TaskArrays]:
    """Round-robin partition of tasks (the paper's easy seed split)."""
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    n = len(arrays)
    return [_take(arrays, np.arange(p, n, n_parts)) for p in range(n_parts)]


def greedy_partition(weights, n_parts: int) -> list[list[int]]:
    """Weight-balanced partition: longest-processing-time-first greedy.

    Items (by index into ``weights``) are assigned heaviest-first to the
    currently lightest part — the classic LPT heuristic, guaranteed within
    4/3 of the optimal makespan.  This is the load-balance step SaLoBa
    identifies as dominant for segmented GPU alignment: the whole-genome
    job scheduler weights chunk-pair tasks by anchor count and uses the
    resulting order (and the per-part plan, for its progress estimate) so
    one repeat-dense chunk pair cannot serialise the tail of a run.

    Deterministic: ties broken by part index, then by item index.
    Returns ``n_parts`` lists of item indices (some possibly empty).
    """
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    w = np.asarray(list(weights), dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if w.size and w.min() < 0:
        raise ValueError("weights must be non-negative")
    parts: list[list[int]] = [[] for _ in range(n_parts)]
    loads = np.zeros(n_parts, dtype=np.float64)
    # Stable heaviest-first order: equal weights keep their input order.
    order = np.argsort(-w, kind="stable")
    for idx in order:
        p = int(np.argmin(loads))  # argmin takes the first minimum: ties by part
        parts[p].append(int(idx))
        loads[p] += w[idx]
    return parts


def partition_loads(weights, n_parts: int) -> tuple[list[list[int]], list[float]]:
    """:func:`greedy_partition` plus the per-part load sums.

    The job runner deals extend tasks into units with it and logs the
    projected per-worker load alongside the assignment.
    """
    w = [float(x) for x in weights]
    parts = greedy_partition(w, n_parts)
    loads = [sum(w[i] for i in part) for part in parts]
    return parts, loads


def time_fastz_multi_gpu(
    arrays: TaskArrays,
    device: DeviceSpec,
    n_gpus: int,
    options: FastzOptions = FASTZ_FULL,
    calib: Calibration = DEFAULT_CALIBRATION,
    *,
    transfer_bytes: float = 0.0,
) -> MultiGpuTiming:
    """Model a FastZ run partitioned across ``n_gpus`` identical devices.

    Each device receives every sequence (broadcast over PCIe, serialised at
    the host) and a round-robin share of the anchors; completion is
    bulk-synchronous across devices.
    """
    parts = partition_arrays(arrays, n_gpus)
    timings = tuple(
        time_fastz(
            part,
            device,
            options,
            calib,
            # Sequences go to every GPU; anchors/results split.
            transfer_bytes=transfer_bytes / n_gpus,
        )
        for part in parts
    )
    broadcast = (n_gpus - 1) * transfer_bytes / (device.pcie_gbs * 1e9)
    return MultiGpuTiming(per_gpu=timings, broadcast_seconds=broadcast, n_gpus=n_gpus)
