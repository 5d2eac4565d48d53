"""Anti-diagonal wavefront extension with cyclic use-and-discard buffers.

This is the functional model of FastZ's GPU kernels (paper §3.1-3.2).  The
DP matrix is traversed by anti-diagonals; the *only* score state kept are
three rotating buffers holding diagonals ``d``, ``d-1`` and ``d-2`` — the
"cyclic use-and-discard" registers of the paper.  Buffers are indexed by the
row coordinate ``i`` (the layout transform ``i' = i + j, j' = j`` of Figure 4
makes a diagonal contiguous; indexing by ``i`` is the same bijection modulo
orientation).  In diagonal coordinates the recurrences become pure
neighbour reads:

* ``I(i, j)`` reads index ``i``   of diagonal ``d-1``  (cell ``(i, j-1)``),
* ``D(i, j)`` reads index ``i-1`` of diagonal ``d-1``  (cell ``(i-1, j)``),
* diagonal    reads index ``i-1`` of diagonal ``d-2``  (cell ``(i-1, j-1)``),

which on the real GPU are register-shuffle exchanges between adjacent lanes.

Pruning follows the paper's conservative approximation of y-drop: the
threshold uses only *completed* diagonals, and only the edges of the active
window are discarded (interior below-threshold cells are kept), so the
engine explores the same cells as the row-wise reference or a superset.

Three traceback modes:

* none (inspector default): only the optimal cell is tracked;
* *eager tile*: packed traceback recorded only inside a small
  ``(tile+1) x (tile+1)`` corner; if the optimum lands inside, the
  alignment is recovered immediately (paper §3.1.2) and the executor is
  skipped;
* full: packed traceback for every computed cell (executor mode), stored
  per diagonal exactly as the GPU's shared-memory write consolidation
  would lay it out.

The inner loop is deliberately terse: this engine dominates the cost of
profiling whole benchmarks, so recurrences write straight into the cyclic
buffers (``out=``) and skip all traceback bookkeeping past the region that
needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scoring import NEG_INF, ScoringScheme
from .alignment import Alignment
from .traceback import S_FROM_D, S_ORIGIN, walk_traceback

__all__ = [
    "WavefrontStats",
    "WavefrontResult",
    "DiagTraceback",
    "WavefrontState",
    "resume_wavefront",
    "wavefront_extend",
    "WARP_WIDTH",
    "INT32_SAFE_DRIFT",
    "max_step_penalty",
    "score_drift_bound",
    "pick_score_dtype",
]

#: Lanes per warp; a diagonal wider than this is processed in strips and the
#: strip-boundary lane must spill its cell to memory (paper §3.2).
WARP_WIDTH = 32

#: How far an int32 score cell may sink below the ``NEG_INF`` sentinel
#: (``-2**30``) before wrapping past ``int32`` min.  ``2**31 - 2**30 = 2**30``
#: exactly; keep a 2**16 guard band so off-by-a-few-penalties reasoning can
#: never matter.
INT32_SAFE_DRIFT = (1 << 30) - (1 << 16)


def max_step_penalty(scheme: ScoringScheme) -> int:
    """Largest magnitude any one DP transition can subtract from a cell.

    Every recurrence is ``max`` of predecessors minus one of
    ``gap_open + gap_extend``, ``gap_extend`` or a substitution score, so
    one anti-diagonal step moves a value by at most this much.
    """
    return max(
        int(scheme.gap_open + scheme.gap_extend),
        int(scheme.gap_extend),
        int(np.abs(np.asarray(scheme.substitution)).max()),
    )


def score_drift_bound(scheme: ScoringScheme, span: int, *, prune: bool = True) -> int:
    """Worst-case distance any slab value can drift below ``NEG_INF``.

    An extension over sequences with ``len(t) + len(q) <= span`` computes
    at most ``span`` anti-diagonals; cells seeded from the sentinel sink by
    at most :func:`max_step_penalty` per diagonal (plus one substitution on
    the diagonal candidate, covered by the ``+ 2`` margin).  Pruning also
    compares against ``best - ydrop``, so the y-drop magnitude joins the
    bound.  If this bound fits :data:`INT32_SAFE_DRIFT`, int32 slabs with
    the unchanged ``NEG_INF`` sentinel are arithmetically exact — every op
    is add/subtract/max, so int32 and int64 sweeps are bit-identical.
    """
    bound = (int(span) + 2) * max_step_penalty(scheme)
    if prune:
        bound += int(scheme.ydrop)
    return bound


def pick_score_dtype(
    scheme: ScoringScheme, span: int, *, prune: bool = True
) -> np.dtype:
    """int32 when :func:`score_drift_bound` proves it exact, else int64."""
    if score_drift_bound(scheme, span, prune=prune) <= INT32_SAFE_DRIFT:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class WavefrontStats:
    """Work profile of one wavefront extension, in GPU-relevant units."""

    diagonals: int
    cells: int
    #: Sum over diagonals of ceil(width / 32): SIMT issue steps of the warp.
    warp_steps: int
    #: Cells spilled to memory because they sit on a strip boundary.
    boundary_cells: int
    max_width: int

    @property
    def mean_width(self) -> float:
        return self.cells / self.diagonals if self.diagonals else 0.0


@dataclass(frozen=True)
class WavefrontResult:
    score: int
    end_i: int
    end_j: int
    stats: WavefrontStats
    ops: tuple[tuple[str, int], ...] | None = None
    #: True when the optimum fell inside the eager-traceback tile.
    eager_hit: bool = False

    def alignment(self) -> Alignment:
        if self.ops is None:
            raise ValueError("extension was run without traceback")
        return Alignment(
            target_start=0,
            target_end=self.end_i,
            query_start=0,
            query_end=self.end_j,
            score=self.score,
            ops=self.ops,
        )


class DiagTraceback:
    """Packed traceback stored one anti-diagonal at a time.

    Mirrors the executor's shared-memory consolidation: each diagonal's
    bytes form one contiguous run (flushed to global memory as whole cache
    blocks on the real GPU).  Addressed as a dense ``(i, j)`` matrix for
    the traceback walk.
    """

    def __init__(self, shape: tuple[int, int]):
        self.shape = shape
        self._starts: list[int] = []
        self._diags: list[np.ndarray] = []

    def append_diag(self, start_i: int, packed: np.ndarray) -> None:
        self._starts.append(start_i)
        self._diags.append(np.asarray(packed, dtype=np.uint8))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        d = i + j
        if not 0 <= d < len(self._diags):
            raise ValueError(f"traceback diagonal {d} was never computed")
        off = i - self._starts[d]
        diag = self._diags[d]
        if not 0 <= off < diag.shape[0]:
            raise ValueError(f"traceback cell ({i}, {j}) was never computed")
        return int(diag[off])

    def nbytes(self) -> int:
        return sum(d.shape[0] for d in self._diags)


def _regrow(buf: np.ndarray, cap: int) -> np.ndarray:
    out = np.full(cap, NEG_INF, dtype=np.int64)
    out[: buf.shape[0]] = buf
    return out


@dataclass
class WavefrontState:
    """One extension paused after anti-diagonal ``d``.

    Holds exactly what the anti-diagonal loop reads to compute ``d + 1``
    onwards: S on diagonals ``d - 1`` and ``d`` (``S_pp``/``S_p``), I and
    D on ``d`` (``I_p``/``D_p``) — int64 buffers of one common length,
    indexed by the row coordinate ``i`` — plus the window ``[lo_prev,
    hi_prev]`` the step after ``d`` grows from, the best cell so far, the
    running :class:`WavefrontStats` counters and the traceback being
    recorded (an eager ``(tile+1)^2`` ``tile_tb`` corner or a full
    ``full_tb``).
    :func:`resume_wavefront` consumes it: the buffers and traceback are
    advanced in place.
    """

    d: int
    S_pp: np.ndarray
    S_p: np.ndarray
    I_p: np.ndarray
    D_p: np.ndarray
    lo_prev: int
    hi_prev: int
    best: int
    best_i: int
    best_j: int
    diagonals: int
    cells: int
    warp_steps: int
    boundary_cells: int
    max_width: int
    tile_tb: np.ndarray | None
    full_tb: DiagTraceback | None

    @classmethod
    def origin(
        cls, m: int, n: int, *, eager_tile: int = 0, traceback: bool = False
    ) -> "WavefrontState":
        """The state at diagonal 0 of an ``m x n`` extension."""
        planes = np.full((4, 128), NEG_INF, dtype=np.int64)
        planes[1, 0] = 0  # diagonal 0: the origin
        tile = int(eager_tile) if not traceback else 0
        tile_tb = None
        if tile > 0:
            tile_tb = np.zeros((tile + 1, tile + 1), dtype=np.uint8)
            tile_tb[0, 0] = S_ORIGIN
        full_tb = None
        if traceback:
            full_tb = DiagTraceback((m + 1, n + 1))
            full_tb.append_diag(0, np.array([S_ORIGIN], dtype=np.uint8))
        return cls(
            d=0,
            S_pp=planes[0],
            S_p=planes[1],
            I_p=planes[2],
            D_p=planes[3],
            lo_prev=0,
            hi_prev=0,
            best=0,
            best_i=0,
            best_j=0,
            diagonals=1,
            cells=1,
            warp_steps=1,
            boundary_cells=0,
            max_width=1,
            tile_tb=tile_tb,
            full_tb=full_tb,
        )


def wavefront_extend(
    target: np.ndarray,
    query: np.ndarray,
    scheme: ScoringScheme,
    *,
    eager_tile: int = 0,
    traceback: bool = False,
    prune: bool = True,
) -> WavefrontResult:
    """One-sided y-drop extension by anti-diagonal wavefront.

    Parameters
    ----------
    eager_tile:
        If > 0 and ``traceback`` is False, record packed traceback inside
        the ``(tile+1)^2`` corner; when the optimum lands there the result
        carries the alignment and ``eager_hit=True``.
    traceback:
        Record full packed traceback (executor mode).  The caller trims
        the problem by passing sliced ``target``/``query``.
    prune:
        Disable to compute the exact full matrix (test mode; must then be
        bit-identical to :func:`repro.align.gotoh.gotoh_extend`).

    The sweep itself is :func:`resume_wavefront` entered from
    :meth:`WavefrontState.origin`.  The same loop also finishes rows the
    lockstep engines lift out of their slabs mid-sweep
    (:mod:`repro.align.batch`), so a fresh and a resumed extension run one
    recurrence and agree bit for bit.
    """
    state = WavefrontState.origin(
        len(target), len(query), eager_tile=eager_tile, traceback=traceback
    )
    return resume_wavefront(target, query, scheme, state, prune=prune)


def resume_wavefront(
    target: np.ndarray,
    query: np.ndarray,
    scheme: ScoringScheme,
    state: WavefrontState,
    *,
    prune: bool = True,
) -> WavefrontResult:
    """Advance ``state`` from diagonal ``state.d + 1`` to the end.

    The single anti-diagonal loop behind :func:`wavefront_extend`.  The
    state's diagonals are read only in columns ``[lo_prev - 1, hi_prev +
    1]`` of ``d`` and ``[lo_prev - 1, hi_prev]`` of ``d - 1`` (windows
    move by at most one column per step); everything else the loop reads
    it wrote itself.  A state lifted from any engine that holds those
    columns exactly — edge columns at ``NEG_INF`` — therefore finishes
    exactly as the uninterrupted sweep would have.
    """
    target = np.asarray(target, dtype=np.uint8)
    query = np.asarray(query, dtype=np.uint8)
    m, n = int(target.shape[0]), int(query.shape[0])
    # Ufunc operands are 0-d int64 arrays: NumPy converts a Python int on
    # every call, which on a short window costs more than the arithmetic.
    oe = np.array(scheme.gap_open + scheme.gap_extend, dtype=np.int64)
    e = np.array(scheme.gap_extend, dtype=np.int64)
    ydrop = int(scheme.ydrop)
    sub = scheme.substitution

    tile_tb, full_tb = state.tile_tb, state.full_tb
    tile = tile_tb.shape[0] - 1 if tile_tb is not None else 0
    if full_tb is not None:
        record_to = m + n
    else:
        record_to = 2 * tile if tile_tb is not None else 0
    S_pp, S_p, I_p, D_p = state.S_pp, state.S_p, state.I_p, state.D_p
    cap = S_p.shape[0]
    S_c = np.full(cap, NEG_INF, dtype=np.int64)
    I_c = np.full(cap, NEG_INF, dtype=np.int64)
    D_c = np.full(cap, NEG_INF, dtype=np.int64)
    I_pp = np.full(cap, NEG_INF, dtype=np.int64)
    D_pp = np.full(cap, NEG_INF, dtype=np.int64)
    # Per-step scratch: ``so[k]`` holds ``S_p - oe`` at coordinate
    # ``lo - 1 + k`` (the gap-open candidate of I at window index ``k - 1``
    # and of D at window index ``k``), ``dg`` the diagonal candidates,
    # ``alive`` the prune test and ``u8`` the traceback byte's parts (I and
    # D extension bits, S choice, diagonal-lost flag).
    so = np.empty(cap + 1, dtype=np.int64)
    dg = np.empty(cap, dtype=np.int64)
    alive = np.empty(cap, dtype=bool)
    u8 = np.empty((4, cap), dtype=np.uint8)
    from_d = np.array(S_FROM_D, dtype=np.uint8)

    best = state.best
    best_i, best_j = state.best_i, state.best_j
    # The prune threshold ``best - ydrop``, rewritten only when best moves.
    thr = np.array(best - ydrop, dtype=np.int64) if prune else None
    lo_prev, hi_prev = state.lo_prev, state.hi_prev

    diagonals = state.diagonals
    cells = state.cells
    warp_steps = state.warp_steps
    boundary_cells = state.boundary_cells
    max_width = state.max_width

    maximum = np.maximum
    subtract = np.subtract
    greater = np.greater

    for d in range(state.d + 1, m + n + 1):
        lo = lo_prev if lo_prev > d - n else d - n
        if lo < 0:
            lo = 0
        hi = hi_prev + 1
        if hi > d:
            hi = d
        if hi > m:
            hi = m
        if lo > hi:
            break
        width = hi - lo + 1
        record = d <= record_to

        if hi + 3 > cap:
            cap = max(hi + 3, 2 * cap)
            S_pp, S_p, S_c = _regrow(S_pp, cap), _regrow(S_p, cap), _regrow(S_c, cap)
            I_pp, I_p, I_c = _regrow(I_pp, cap), _regrow(I_p, cap), _regrow(I_c, cap)
            D_pp, D_p, D_c = _regrow(D_pp, cap), _regrow(D_p, cap), _regrow(D_c, cap)
            so = np.empty(cap + 1, dtype=np.int64)
            dg = np.empty(cap, dtype=np.int64)
            alive = np.empty(cap, dtype=bool)
            u8 = np.empty((4, cap), dtype=np.uint8)

        # Scrub recycled buffer edges (windows move by at most 1 per step).
        if lo >= 1:
            S_c[lo - 1] = I_c[lo - 1] = D_c[lo - 1] = NEG_INF
        S_c[hi + 1] = I_c[hi + 1] = D_c[hi + 1] = NEG_INF

        Icur = I_c[lo : hi + 1]
        Dcur = D_c[lo : hi + 1]
        Scur = S_c[lo : hi + 1]
        if lo >= 1:
            subtract(S_p[lo - 1 : hi + 1], oe, out=so[: width + 1])
        else:
            subtract(S_p[0 : hi + 1], oe, out=so[1 : width + 1])
        if record:
            i_ext, d_ext = u8[0, :width], u8[1, :width]

        # --- I(i, j): from diagonal d-1, same index -------------------------
        so_i = so[1 : width + 1]
        subtract(I_p[lo : hi + 1], e, out=Icur)
        if record:
            greater(Icur, so_i, out=i_ext)
        maximum(Icur, so_i, out=Icur)
        if hi == d:  # cell (d, 0) has no insertion parent
            Icur[-1] = NEG_INF

        # --- D(i, j): from diagonal d-1, index i-1 --------------------------
        if lo >= 1:
            so_d = so[:width]
            subtract(D_p[lo - 1 : hi], e, out=Dcur)
            if record:
                greater(Dcur, so_d, out=d_ext)
            maximum(Dcur, so_d, out=Dcur)
        else:
            Dcur[0] = NEG_INF
            if record:
                d_ext[0] = 0
            if width > 1:
                so_d, Dtop = so[1:width], Dcur[1:]
                subtract(D_p[0:hi], e, out=Dtop)
                if record:
                    greater(Dtop, so_d, out=d_ext[1:])
                maximum(Dtop, so_d, out=Dtop)

        # --- S = max(I, D, diag) --------------------------------------------
        maximum(Icur, Dcur, out=Scur)
        di_lo = lo if lo >= 1 else 1
        di_hi = hi if hi <= d - 1 else d - 1
        if di_lo <= di_hi:
            t_sl = target[di_lo - 1 : di_hi]
            q_sl = query[d - di_hi - 1 : d - di_lo][::-1]
            diag = dg[: di_hi - di_lo + 1]
            np.add(S_pp[di_lo - 1 : di_hi], sub[t_sl, q_sl], out=diag)
            core = Scur[di_lo - lo : di_hi - lo + 1]
            maximum(core, diag, out=core)

        # --- traceback recording --------------------------------------------
        if record:
            s_ch, lost = u8[2, :width], u8[3, :width]
            np.equal(Scur, Icur, out=s_ch)
            # S_FROM_D, or S_FROM_I (= S_FROM_D - 1) where S == I.
            subtract(from_d, s_ch, out=s_ch)
            if lo == 0:  # no diagonal parent at the matrix edges
                lost[0] = 1
            if hi == d:
                lost[-1] = 1
            if di_lo <= di_hi:
                np.not_equal(core, diag, out=lost[di_lo - lo : di_hi - lo + 1])
            np.multiply(s_ch, lost, out=s_ch)  # S_DIAG (= 0) where it wins
            np.left_shift(i_ext, 2, out=i_ext)
            np.left_shift(d_ext, 3, out=d_ext)
            np.bitwise_or(s_ch, i_ext, out=s_ch)
            packed = np.bitwise_or(s_ch, d_ext)
            if full_tb is not None:
                full_tb.append_diag(lo, packed)
            else:
                t_lo = max(lo, d - tile)
                t_hi = min(hi, tile)
                if t_lo <= t_hi:
                    ii = np.arange(t_lo, t_hi + 1)
                    tile_tb[ii, d - ii] = packed[t_lo - lo : t_hi - lo + 1]

        # --- prune window edges against completed-diagonal best -------------
        if thr is not None:
            live = alive[:width]
            np.greater_equal(Scur, thr, out=live)
            first = int(live.argmax())
            if not live[first]:
                diagonals += 1
                cells += width
                strips = -(-width // WARP_WIDTH)
                warp_steps += strips
                boundary_cells += strips - 1
                if width > max_width:
                    max_width = width
                break
            if live[-1]:
                last = width - 1
            else:
                last = width - 1 - int(live[::-1].argmax())
            if first > 0:
                S_c[lo : lo + first] = NEG_INF
                I_c[lo : lo + first] = NEG_INF
                D_c[lo : lo + first] = NEG_INF
            if last < width - 1:
                S_c[lo + last + 1 : hi + 1] = NEG_INF
                I_c[lo + last + 1 : hi + 1] = NEG_INF
                D_c[lo + last + 1 : hi + 1] = NEG_INF
            lo_next, hi_next = lo + first, lo + last
        else:
            lo_next, hi_next = lo, hi

        # --- best-cell tracking (ties: smallest i+j, then smallest i) -------
        w_idx = int(Scur.argmax())
        d_best = int(Scur[w_idx])
        if d_best > best:
            best = d_best
            best_i = lo + w_idx
            best_j = d - best_i
            if thr is not None:
                thr[()] = best - ydrop

        diagonals += 1
        cells += width
        strips = -(-width // WARP_WIDTH)
        warp_steps += strips
        boundary_cells += strips - 1
        if width > max_width:
            max_width = width

        S_pp, S_p, S_c = S_p, S_c, S_pp
        I_pp, I_p, I_c = I_p, I_c, I_pp
        D_pp, D_p, D_c = D_p, D_c, D_pp
        lo_prev, hi_prev = lo_next, hi_next

    stats = WavefrontStats(
        diagonals=diagonals,
        cells=cells,
        warp_steps=warp_steps,
        boundary_cells=boundary_cells,
        max_width=max_width,
    )

    ops = None
    eager_hit = False
    if full_tb is not None:
        ops = walk_traceback(full_tb, best_i, best_j)
    elif tile_tb is not None and best_i <= tile and best_j <= tile:
        ops = walk_traceback(tile_tb, best_i, best_j)
        eager_hit = True

    return WavefrontResult(
        score=best,
        end_i=best_i,
        end_j=best_j,
        stats=stats,
        ops=ops,
        eager_hit=eager_hit,
    )
