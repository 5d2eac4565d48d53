"""Traceback-byte differential: the lockstep sweep against the row kernel.

Elsewhere the two engines are compared on the ops the traceback walk
reads, so a wrong bit off the optimal path would pass.  Here the sweep
runs every row to its end (``_TAIL_ROWS`` = 0, so no row reaches the row
kernel) and each diagonal it records — window start and packed bytes —
must equal what :func:`~repro.align.wavefront.resume_wavefront` records
for the same pair from the origin.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align import batch, batch_wavefront_extend
from repro.align.wavefront import DiagTraceback, WavefrontState, resume_wavefront

from .test_batch import _PAIR_KINDS, _SCHEME, _generated_pair, _lockstep_blocks


def _row_kernel_traceback(t, q, prune):
    state = WavefrontState.origin(t.shape[0], q.shape[0], traceback=True)
    resume_wavefront(t, q, _SCHEME, state, prune=prune)
    return state.full_tb


def _sweep_tracebacks(pairs, prune, dtype):
    """The sweep's traceback of each pair, in input order."""
    made = []

    class Recording(DiagTraceback):
        def __init__(self, shape):
            super().__init__(shape)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_TAIL_ROWS", 0)
        mp.setattr(batch, "DiagTraceback", Recording)
        batch_wavefront_extend(
            pairs, _SCHEME, traceback=True, prune=prune, presorted=True,
            score_dtype=dtype,
        )
    assert len(made) == len(pairs)
    return made


def _assert_same_bytes(pairs, prune, dtype) -> set:
    """Compare every diagonal; returns the ``(lo == 0, hi == d)`` kinds seen."""
    kinds = set()
    for (t, q), swept in zip(pairs, _sweep_tracebacks(pairs, prune, dtype)):
        ref = _row_kernel_traceback(t, q, prune)
        assert swept._starts == ref._starts
        assert len(swept._diags) == len(ref._diags)
        for d, (got, want) in enumerate(zip(swept._diags, ref._diags)):
            np.testing.assert_array_equal(got, want, err_msg=f"diagonal {d}")
            lo = ref._starts[d]
            kinds.add((lo == 0, lo + want.shape[0] - 1 == d))
    return kinds


@settings(max_examples=25, deadline=None)
@given(
    pairs=_lockstep_blocks(),
    prune=st.booleans(),
    dtype=st.sampled_from(["int32", "int64"]),
)
def test_sweep_bytes_match_row_kernel(pairs, prune, dtype):
    _assert_same_bytes(pairs, prune, dtype)


@pytest.mark.parametrize("prune", [True, False])
def test_matrix_edge_steps_are_covered(prune):
    """A fixed block whose steps include every window shape at the matrix
    edges: ``lo == 0`` with ``hi == d`` and without, ``hi == d`` with
    ``lo > 0``, and interior windows."""
    rng = np.random.default_rng(26)
    pairs = [_generated_pair(rng, kind) for kind in _PAIR_KINDS for _ in range(2)]
    pairs.append((pairs[0][0], pairs[0][1][:5]))  # m > n: lo leaves 0 early
    seen = _assert_same_bytes(pairs, prune, None)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
