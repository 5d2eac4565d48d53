"""FastZ core: inspector-executor pipeline, binning, performance model."""

from .binning import assign_bin, assign_bins, bin_histogram, bin_labels
from .multigpu import (
    MultiGpuTiming,
    greedy_partition,
    partition_arrays,
    time_fastz_multi_gpu,
)
from .options import FASTZ_FULL, FastzOptions, ablation_ladder
from .perfmodel import (
    FastzTiming,
    ablation_times,
    time_fastz,
    time_feng_baseline,
)
from .pipeline import FastzResult, StreamAborted, StreamPartial, run_fastz
from .task import FastzTask, TaskArrays, tasks_to_arrays

__all__ = [
    "FASTZ_FULL",
    "FastzOptions",
    "FastzResult",
    "FastzTask",
    "FastzTiming",
    "MultiGpuTiming",
    "StreamAborted",
    "StreamPartial",
    "greedy_partition",
    "partition_arrays",
    "time_fastz_multi_gpu",
    "TaskArrays",
    "ablation_ladder",
    "ablation_times",
    "assign_bin",
    "assign_bins",
    "bin_histogram",
    "bin_labels",
    "run_fastz",
    "tasks_to_arrays",
    "time_fastz",
    "time_feng_baseline",
]
