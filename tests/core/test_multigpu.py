"""Unit tests for the multi-GPU extension (paper §6)."""

import numpy as np
import pytest

from repro.core import (
    FASTZ_FULL,
    greedy_partition,
    partition_arrays,
    time_fastz,
    time_fastz_multi_gpu,
)
from repro.core.multigpu import partition_loads
from repro.gpusim import Calibration, RTX_3080_AMPERE

from .test_perfmodel import _make_tasks


@pytest.fixture(scope="module")
def arrays():
    return _make_tasks(n_eager=400, n_short=100, n_long=4)


@pytest.fixture(scope="module")
def calib():
    return Calibration(modeled_memory_bytes=16e6)


class TestPartition:
    def test_round_robin_counts(self, arrays):
        parts = partition_arrays(arrays, 4)
        assert len(parts) == 4
        assert sum(len(p) for p in parts) == len(arrays)
        assert max(len(p) for p in parts) - min(len(p) for p in parts) <= 1

    def test_side_arrays_follow_tasks(self, arrays):
        parts = partition_arrays(arrays, 3)
        for p in parts:
            assert p.side_insp_cells.shape[0] == 2 * len(p)
            assert p.side_insp_cells.reshape(-1, 2).sum(axis=1).tolist() == \
                p.insp_cells.tolist()

    def test_work_conserved(self, arrays):
        parts = partition_arrays(arrays, 5)
        assert sum(int(p.insp_cells.sum()) for p in parts) == int(
            arrays.insp_cells.sum()
        )

    def test_single_partition_identity(self, arrays):
        (only,) = partition_arrays(arrays, 1)
        assert np.array_equal(only.insp_cells, arrays.insp_cells)

    def test_validation(self, arrays):
        with pytest.raises(ValueError):
            partition_arrays(arrays, 0)


class TestGreedyPartition:
    def test_covers_all_indices_disjointly(self):
        weights = [5.0, 1.0, 3.0, 2.0, 4.0, 2.0]
        parts = greedy_partition(weights, 3)
        assert len(parts) == 3
        flat = sorted(i for part in parts for i in part)
        assert flat == list(range(len(weights)))

    def test_lpt_balances_within_heaviest_item(self):
        # Classic LPT bound: max load <= optimal + heaviest item; for a
        # well-mixed weight set the spread stays below the heaviest weight.
        weights = [7.0, 5.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0]
        parts = greedy_partition(weights, 3)
        loads = [sum(weights[i] for i in part) for part in parts]
        assert max(loads) - min(loads) <= max(weights)

    def test_heaviest_items_spread_first(self):
        parts = greedy_partition([10.0, 9.0, 8.0, 0.1, 0.1, 0.1], 3)
        heavy_home = [part for part in parts if any(i < 3 for i in part)]
        assert len(heavy_home) == 3  # one heavyweight per part

    def test_deterministic_on_ties(self):
        weights = [2.0] * 6
        assert greedy_partition(weights, 2) == greedy_partition(weights, 2)

    def test_more_parts_than_items(self):
        parts = greedy_partition([1.0, 2.0], 4)
        assert len(parts) == 4
        assert sum(len(p) for p in parts) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            greedy_partition([1.0], 0)
        with pytest.raises(ValueError):
            greedy_partition([[1.0], [2.0]], 2)
        with pytest.raises(ValueError):
            greedy_partition([1.0, -2.0], 2)


class TestMultiGpuTiming:
    def test_two_gpus_faster_than_one(self, arrays, calib):
        single = time_fastz(arrays, RTX_3080_AMPERE, FASTZ_FULL, calib)
        multi = time_fastz_multi_gpu(arrays, RTX_3080_AMPERE, 2, calib=calib)
        assert multi.total_seconds < single.total_seconds

    def test_scaling_efficiency_below_one(self, arrays, calib):
        single = time_fastz(arrays, RTX_3080_AMPERE, FASTZ_FULL, calib)
        multi = time_fastz_multi_gpu(
            arrays, RTX_3080_AMPERE, 4, calib=calib, transfer_bytes=1e5
        )
        eff = multi.scaling_efficiency(single)
        assert 0.0 < eff <= 1.05  # never superlinear (modulo rounding)

    def test_diminishing_returns(self, arrays, calib):
        times = [
            time_fastz_multi_gpu(
                arrays, RTX_3080_AMPERE, n, calib=calib, transfer_bytes=1e5
            ).total_seconds
            for n in (1, 2, 4, 8)
        ]
        assert times[0] > times[1] > times[2]
        # Long-task critical paths bound the benefit eventually.
        gain_12 = times[0] / times[1]
        gain_48 = times[2] / times[3]
        assert gain_12 > gain_48

    def test_broadcast_cost_counted(self, arrays, calib):
        no_xfer = time_fastz_multi_gpu(arrays, RTX_3080_AMPERE, 4, calib=calib)
        with_xfer = time_fastz_multi_gpu(
            arrays, RTX_3080_AMPERE, 4, calib=calib, transfer_bytes=1e9
        )
        assert with_xfer.broadcast_seconds > no_xfer.broadcast_seconds
        assert with_xfer.total_seconds > no_xfer.total_seconds

    def test_per_gpu_records(self, arrays, calib):
        multi = time_fastz_multi_gpu(arrays, RTX_3080_AMPERE, 3, calib=calib)
        assert len(multi.per_gpu) == 3
        assert all(t.device == "RTX 3080" for t in multi.per_gpu)


class TestPartitionLoads:
    """partition_loads — the LPT helper behind the job runner's extend-unit
    plan; the worker pool's shard planner uses greedy_partition directly."""

    def test_loads_match_parts(self):
        weights = [5.0, 1.0, 3.0, 2.0, 4.0, 2.0]
        parts, loads = partition_loads(weights, 3)
        assert loads == [sum(weights[i] for i in part) for part in parts]
        assert sum(loads) == pytest.approx(sum(weights))

    def test_agrees_with_greedy_partition(self):
        weights = [7, 5, 4, 3, 3, 2, 2, 1, 1]
        parts, _ = partition_loads(weights, 3)
        assert parts == greedy_partition([float(w) for w in weights], 3)

    def test_accepts_integer_weights(self):
        parts, loads = partition_loads([4, 4, 2], 2)
        assert all(isinstance(load, float) for load in loads)
        assert sorted(loads) == [4.0, 6.0]
