"""FastZ performance model: profile replay on simulated GPUs.

Converts the per-task work profiles (:class:`~repro.core.task.TaskArrays`)
into :class:`~repro.gpusim.TaskCost` streams for the inspector and executor
phases under any ablation variant of
:class:`~repro.core.options.FastzOptions`, schedules them on a
:class:`~repro.gpusim.DeviceSpec`, and adds the host ("other") component —
yielding the three-way breakdown of the paper's Figure 8 and the speedups
of Figures 7/9/11.

Each *one-sided* extension is its own warp task (left and right extensions
are independent DP problems).  Cost accounting follows the paper's books:

* compute: one warp-step per 32-cell diagonal strip, 23 diverged ops plus
  kernel overhead cycles (calibrated once, globally);
* memory, naive buffers: 32 score bytes per cell (8 accesses x 4 B, §2.2),
  amplified by cache-thrashing scan traffic;
* memory, cyclic buffers: 12 bytes per strip-boundary cell (§3.2/§6);
* executor adds 1 traceback byte per cell (§3.1.3) and a serial traceback
  walk on one thread (§3.1.3 "Traceback Parallelism");
* untrimmed executors allocate search-space-sized matrices (huge
  footprints -> occupancy collapse), trimmed executors allocate exactly
  the optimal region (§3.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpusim.calibration import Calibration, DEFAULT_CALIBRATION
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import TaskCost
from ..gpusim.streams import simulate_stream_schedule
from .binning import assign_bins
from .options import FASTZ_FULL, FastzOptions, ablation_ladder
from .task import TaskArrays

__all__ = [
    "FastzTiming",
    "ablation_times",
    "anchor_weights",
    "estimate_extension_seconds",
    "extension_weight",
    "time_fastz",
    "time_feng_baseline",
]

#: Modelled host throughput for the quick cost estimate, in extension
#: weight units (wavefront-extent bases) per second.  Calibrated against
#: the lockstep NumPy engine on one core; the absolute value only
#: anchors the scale — fleet placement compares backends *relatively*.
HOST_WEIGHT_PER_SECOND = 5.0e6


def anchor_weights(lengths, rows) -> list[int]:
    """Per-anchor extension weight of spec rows over sources of ``lengths``.

    Row ``(ti, qi, t, q)`` weighs the wavefront's reachable extent,
    ``min(len(t), len(q))``, of its right and its left one-sided problem
    — the weight pool shards are LPT-balanced on, computed from lengths
    alone without touching the codes.
    """
    return [
        min(lengths[ti] - t, lengths[qi] - q) + min(t, q)
        for ti, qi, t, q in rows
    ]


def extension_weight(spec) -> float:
    """Total extension weight of one fused batch (an ``ExtensionSpec``).

    The sum of :func:`anchor_weights`, so fleet placement and the pool's
    shard plan read one number.
    """
    return float(sum(anchor_weights([len(c) for c in spec.codes], spec.rows)))


def estimate_extension_seconds(
    weight: float,
    device: DeviceSpec | None = None,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> float:
    """Closed-form cost estimate for ``weight`` units of extension work.

    The fleet scheduler's placement policy runs this per submission, so
    it must stay O(1): no TaskArrays, no stream simulation.  On a GPU
    backend each weight unit is one cell of a 32-lane warp strip —
    issue-bound at ``step_cycles_cyclic`` cycles per 32-cell strip step
    across ``sms x warp_issue_width`` concurrent warp slots.  On the
    host (``device=None``) the lockstep NumPy engine is modelled as a
    flat :data:`HOST_WEIGHT_PER_SECOND` throughput.  Both are estimates
    of *relative* load, not promises of wall-clock.
    """
    if weight < 0:
        raise ValueError("weight must be non-negative")
    if device is None:
        return weight / HOST_WEIGHT_PER_SECOND
    strip_steps = weight / 32.0
    cycles = strip_steps * calib.step_cycles_cyclic
    issue_rate = device.sms * device.warp_issue_width * device.clock_ghz * 1e9
    return cycles / issue_rate


@dataclass(frozen=True)
class FastzTiming:
    """Modelled execution time of one FastZ run on one device."""

    inspector_seconds: float
    executor_seconds: float
    other_seconds: float
    device: str
    options: FastzOptions

    @property
    def total_seconds(self) -> float:
        return self.inspector_seconds + self.executor_seconds + self.other_seconds

    def breakdown(self) -> dict[str, float]:
        """Fractions of total time per phase (Figure 8)."""
        total = self.total_seconds
        if total <= 0:
            return {"inspector": 0.0, "executor": 0.0, "other": 0.0}
        return {
            "inspector": self.inspector_seconds / total,
            "executor": self.executor_seconds / total,
            "other": self.other_seconds / total,
        }


def _as_costs(
    compute: np.ndarray,
    bytes_dram: np.ndarray,
    footprint: np.ndarray,
    critical_fraction: float,
    serial: np.ndarray | None = None,
) -> list[TaskCost]:
    n = compute.shape[0]
    ser = serial if serial is not None else np.zeros(n)
    return [
        TaskCost(
            compute_cycles=float(compute[i]),
            critical_cycles=float(compute[i]) * critical_fraction,
            bytes_dram=float(bytes_dram[i]),
            footprint_bytes=float(footprint[i]),
            serial_cycles=float(ser[i]),
        )
        for i in range(n)
    ]


def _inspector_costs(
    arrays: TaskArrays,
    options: FastzOptions,
    calib: Calibration,
) -> list[TaskCost]:
    steps = arrays.side_insp_steps
    if options.cyclic_buffers:
        compute = steps * calib.step_cycles_cyclic
        bytes_dram = arrays.side_insp_boundary * calib.cyclic_boundary_bytes
        footprint = np.zeros(steps.shape[0])
    else:
        compute = steps * calib.step_cycles_naive
        bytes_dram = (
            arrays.side_insp_cells
            * calib.naive_score_bytes_per_cell
            * calib.naive_traffic_amplification
        )
        # Search-space size is unknown a priori: allocate the batch-worst
        # skewed-layout rectangle per problem (this is exactly the problem
        # the paper's design dodges).
        worst = float(arrays.side_insp_rect.max()) if len(arrays) else 0.0
        footprint = np.full(
            steps.shape[0], worst * (calib.footprint_bytes_per_cell - 1.0)
        )
    return _as_costs(compute, bytes_dram, footprint, calib.critical_fraction)


def _executor_costs(
    arrays: TaskArrays,
    options: FastzOptions,
    calib: Calibration,
) -> tuple[list[TaskCost], np.ndarray]:
    """Executor side-task costs and the side indices that run."""
    n_sides = arrays.side_insp_steps.shape[0]
    side_eager = arrays.side_eager
    if options.eager_traceback:
        include = np.flatnonzero(~side_eager)
    else:
        include = np.arange(n_sides)

    if options.executor_trimming:
        # Eager sides have no measured trimmed profile; if a variant sends
        # them to the executor anyway, approximate with the optimal-span
        # rectangle (at most the eager tile).
        est_cells = (arrays.side_span + 1) ** 2
        est_steps = 2 * arrays.side_span + 2
        cells = np.where(side_eager, est_cells, arrays.side_exec_cells)
        steps = np.where(side_eager, est_steps, arrays.side_exec_steps)
        boundary = np.where(side_eager, 0, arrays.side_exec_boundary)
        footprint = cells * calib.footprint_bytes_per_cell
    else:
        cells = arrays.side_insp_cells
        steps = arrays.side_insp_steps
        boundary = arrays.side_insp_boundary
        # Without trimming the executor allocates the dense skewed-layout
        # rectangle of the whole search space per problem.
        footprint = arrays.side_insp_rect * calib.footprint_bytes_per_cell

    step_cycles = (
        calib.step_cycles_cyclic if options.cyclic_buffers else calib.step_cycles_naive
    ) + calib.step_cycles_executor_extra
    compute = steps * step_cycles
    if options.cyclic_buffers:
        score_bytes = boundary * calib.cyclic_boundary_bytes
    else:
        score_bytes = (
            cells
            * calib.naive_score_bytes_per_cell
            * calib.naive_traffic_amplification
        )
    tb_bytes = cells * calib.traceback_bytes_per_cell + arrays.side_cols
    serial = arrays.side_cols * calib.traceback_walk_cycles_per_base

    compute = compute[include]
    bytes_dram = (score_bytes + tb_bytes)[include]
    footprint = footprint[include]
    serial = serial[include]
    return (
        _as_costs(compute, bytes_dram, footprint, calib.critical_fraction, serial),
        include,
    )


def _chunked(costs: list[TaskCost], chunks: int) -> list[list[TaskCost]]:
    if not costs:
        return []
    chunks = max(1, min(chunks, len(costs)))
    bounds = np.linspace(0, len(costs), chunks + 1).astype(int)
    return [costs[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def time_fastz(
    arrays: TaskArrays,
    device: DeviceSpec,
    options: FastzOptions = FASTZ_FULL,
    calib: Calibration = DEFAULT_CALIBRATION,
    *,
    transfer_bytes: float = 0.0,
) -> FastzTiming:
    """Modelled FastZ execution time of a profiled run on ``device``."""
    n = len(arrays)

    # --- inspector: chunked kernels across streams -------------------------
    insp_costs = _inspector_costs(arrays, options, calib)
    insp_kernels = _chunked(insp_costs, calib.inspector_chunks)
    insp = simulate_stream_schedule(
        insp_kernels,
        device,
        streams=options.streams,
        min_warps_full=calib.min_warps_full_throughput,
        mem_bytes=calib.modeled_memory_bytes,
    )

    # --- executor: one kernel per length bin -------------------------------
    exec_costs, include = _executor_costs(arrays, options, calib)
    exec_seconds = 0.0
    if exec_costs:
        if options.binning:
            # Bin by extent; when eager is off, former-eager sides are
            # binned by their (tiny) extents like everything else.
            bins = assign_bins(
                arrays.side_extent[include],
                np.zeros(include.shape[0], dtype=bool),
                options.bin_edges,
            )
            kernels = [
                [exec_costs[k] for k in np.flatnonzero(bins == b)]
                for b in range(1, len(options.bin_edges) + 1)
            ]
            kernels = [k for k in kernels if k]
        else:
            kernels = [exec_costs]
        sched = simulate_stream_schedule(
            kernels,
            device,
            streams=options.streams,
            min_warps_full=calib.min_warps_full_throughput,
            mem_bytes=calib.modeled_memory_bytes,
        )
        exec_seconds = sched.seconds
        if not options.binning:
            # Per-problem device-side allocation serialises (§3: dynamic
            # allocation on GPUs is slow) — the config the paper refused to
            # even plot.
            exec_seconds += len(exec_costs) * device.dynamic_alloc_us * 1e-6

    # --- host-side "other" --------------------------------------------------
    other = (
        calib.host_fixed_us * 1e-6
        + n * calib.host_us_per_task * 1e-6
        + transfer_bytes / (device.pcie_gbs * 1e9)
    )

    return FastzTiming(
        inspector_seconds=insp.seconds,
        executor_seconds=exec_seconds,
        other_seconds=other,
        device=device.name,
        options=options,
    )


def time_feng_baseline(
    arrays: TaskArrays,
    device: DeviceSpec,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> float:
    """Modelled time of the Feng et al. single-problem GPU baseline.

    One seed extension at a time, parallelised across the whole device by
    anti-diagonal, with a grid-wide synchronisation between consecutive
    diagonals (§2.3/§4) — the sync dominates and makes the baseline slower
    than sequential LASTZ.
    """
    clock = device.clock_ghz * 1e9
    issue_total = device.sms * device.warp_issue_width
    sync = arrays.insp_diagonals.sum() * calib.feng_sync_us * 1e-6
    compute = float(
        (arrays.insp_steps * calib.step_cycles_naive).sum() / (issue_total * clock)
    )
    bytes_total = float(
        arrays.insp_cells.sum()
        * calib.naive_score_bytes_per_cell
        * calib.naive_traffic_amplification
        + arrays.insp_cells.sum() * calib.traceback_bytes_per_cell
    )
    memory = bytes_total / (device.mem_bandwidth_gbs * 1e9)
    walk = float(
        arrays.alignment_cols.sum() * calib.traceback_walk_cycles_per_base / clock
    )
    return sync + max(compute, memory) + walk


def ablation_times(
    arrays: TaskArrays,
    device: DeviceSpec,
    calib: Calibration = DEFAULT_CALIBRATION,
    *,
    streams: int = 32,
    bin_edges: tuple[int, ...] | None = None,
    transfer_bytes: float = 0.0,
) -> dict[str, FastzTiming]:
    """Figure 9: timings for the progressive optimisation ladder."""
    out: dict[str, FastzTiming] = {}
    for label, options in ablation_ladder(streams):
        if bin_edges is not None:
            from dataclasses import replace

            options = replace(options, bin_edges=bin_edges)
        out[label] = time_fastz(
            arrays, device, options, calib, transfer_bytes=transfer_bytes
        )
    return out
