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
from .traceback import S_DIAG, S_FROM_D, S_FROM_I, S_ORIGIN, walk_traceback

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
    oe = int(scheme.gap_open + scheme.gap_extend)
    e = int(scheme.gap_extend)
    ydrop = int(scheme.ydrop) if prune else None
    sub = scheme.substitution

    tile_tb, full_tb = state.tile_tb, state.full_tb
    tile = tile_tb.shape[0] - 1 if tile_tb is not None else 0
    S_pp, S_p, I_p, D_p = state.S_pp, state.S_p, state.I_p, state.D_p
    cap = S_p.shape[0]
    S_c = np.full(cap, NEG_INF, dtype=np.int64)
    I_c = np.full(cap, NEG_INF, dtype=np.int64)
    D_c = np.full(cap, NEG_INF, dtype=np.int64)
    I_pp = np.full(cap, NEG_INF, dtype=np.int64)
    D_pp = np.full(cap, NEG_INF, dtype=np.int64)
    scratch = np.empty(cap, dtype=np.int64)

    best = state.best
    best_i, best_j = state.best_i, state.best_j
    lo_prev, hi_prev = state.lo_prev, state.hi_prev

    diagonals = state.diagonals
    cells = state.cells
    warp_steps = state.warp_steps
    boundary_cells = state.boundary_cells
    max_width = state.max_width

    maximum = np.maximum
    subtract = np.subtract

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

        if hi + 3 > S_c.shape[0]:
            cap = max(hi + 3, 2 * S_c.shape[0])
            S_pp, S_p, S_c = _regrow(S_pp, cap), _regrow(S_p, cap), _regrow(S_c, cap)
            I_pp, I_p, I_c = _regrow(I_pp, cap), _regrow(I_p, cap), _regrow(I_c, cap)
            D_pp, D_p, D_c = _regrow(D_pp, cap), _regrow(D_p, cap), _regrow(D_c, cap)
            scratch = np.empty(cap, dtype=np.int64)

        # Scrub recycled buffer edges (windows move by at most 1 per step).
        if lo >= 1:
            S_c[lo - 1] = I_c[lo - 1] = D_c[lo - 1] = NEG_INF
        S_c[hi + 1] = I_c[hi + 1] = D_c[hi + 1] = NEG_INF

        Icur = I_c[lo : hi + 1]
        Dcur = D_c[lo : hi + 1]
        Scur = S_c[lo : hi + 1]
        sc = scratch[:width]

        # --- I(i, j): from diagonal d-1, same index -------------------------
        subtract(I_p[lo : hi + 1], e, out=Icur)
        subtract(S_p[lo : hi + 1], oe, out=sc)
        maximum(Icur, sc, out=Icur)
        if hi == d:  # cell (d, 0) has no insertion parent
            Icur[-1] = NEG_INF

        # --- D(i, j): from diagonal d-1, index i-1 --------------------------
        if lo >= 1:
            subtract(D_p[lo - 1 : hi], e, out=Dcur)
            subtract(S_p[lo - 1 : hi], oe, out=sc)
            maximum(Dcur, sc, out=Dcur)
        else:
            Dcur[0] = NEG_INF
            if width > 1:
                subtract(D_p[0:hi], e, out=Dcur[1:])
                subtract(S_p[0:hi], oe, out=sc[1:])
                maximum(Dcur[1:], sc[1:], out=Dcur[1:])

        # --- S = max(I, D, diag) --------------------------------------------
        maximum(Icur, Dcur, out=Scur)
        di_lo = lo if lo >= 1 else 1
        di_hi = hi if hi <= d - 1 else d - 1
        diag_core = None
        if di_lo <= di_hi:
            t_sl = target[di_lo - 1 : di_hi]
            q_sl = query[d - di_hi - 1 : d - di_lo][::-1]
            diag_core = S_pp[di_lo - 1 : di_hi] + sub[t_sl, q_sl]
            core = Scur[di_lo - lo : di_hi - lo + 1]
            maximum(core, diag_core, out=core)

        # --- traceback recording --------------------------------------------
        record_tile = tile_tb is not None and d <= 2 * tile
        if full_tb is not None or record_tile:
            i_from_i = (I_p[lo : hi + 1] - e) > (S_p[lo : hi + 1] - oe)
            if lo >= 1:
                d_from_d = (D_p[lo - 1 : hi] - e) > (S_p[lo - 1 : hi] - oe)
            else:
                d_from_d = np.zeros(width, dtype=bool)
                if width > 1:
                    d_from_d[1:] = (D_p[0:hi] - e) > (S_p[0:hi] - oe)
            s_choice = np.full(width, S_FROM_D, dtype=np.uint8)
            s_choice[Scur == Icur] = S_FROM_I
            if diag_core is not None:
                sl = slice(di_lo - lo, di_hi - lo + 1)
                hit = Scur[sl] == diag_core
                s_choice[sl][hit] = S_DIAG
            packed = s_choice | (i_from_i.astype(np.uint8) << 2)
            packed |= d_from_d.astype(np.uint8) << 3
            if full_tb is not None:
                full_tb.append_diag(lo, packed)
            else:
                t_lo = max(lo, d - tile)
                t_hi = min(hi, tile)
                if t_lo <= t_hi:
                    ii = np.arange(t_lo, t_hi + 1)
                    tile_tb[ii, d - ii] = packed[t_lo - lo : t_hi - lo + 1]

        # --- prune window edges against completed-diagonal best -------------
        if ydrop is not None:
            alive = np.flatnonzero(Scur >= best - ydrop)
            if alive.shape[0] == 0:
                diagonals += 1
                cells += width
                strips = -(-width // WARP_WIDTH)
                warp_steps += strips
                boundary_cells += strips - 1
                if width > max_width:
                    max_width = width
                break
            first = int(alive[0])
            last = int(alive[-1])
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
        w_idx = int(np.argmax(Scur))
        d_best = int(Scur[w_idx])
        if d_best > best:
            best = d_best
            best_i = lo + w_idx
            best_j = d - best_i

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
