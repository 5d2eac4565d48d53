"""Batched struct-of-arrays wavefront engine: inter-task lockstep parallelism.

:func:`repro.align.wavefront.wavefront_extend` advances ONE extension's
anti-diagonals at a time; running it over a whole anchor set from Python is
the CPU analogue of launching one GPU kernel per seed — exactly the
per-problem regime the paper's inter-task parallelism exists to kill
(§3.1, §3.3).  This module is the batch analogue of the paper's kernels: N
extension tasks are packed into struct-of-arrays state and every iteration
advances the *next anti-diagonal of every live task* with one set of 2-D
numpy operations, the way one bulk-synchronous kernel launch advances
every alignment in a bin by one wavefront step.

Layout
------
All per-task score state is stacked coordinate-major: the DP row
coordinate ``i`` outermost, the block's tasks (its *rows*) innermost.  It
is the NumPy counterpart of the paper's Figure 4 transform
(:mod:`repro.align.diagonal`): the cells one step touches are contiguous.

* cyclic three-diagonal buffers ``S/I/D`` become ``(cap, N)`` planes of one
  arena-backed score block indexed by the absolute row coordinate ``i``
  (same bijection as the scalar engine's buffers), rotated by plane-index
  swap each step;
* per-task active windows live in ``lo``/``hi`` vectors; each step computes
  only the union coordinate range ``[L, H] = [min(lo), max(hi)]``, which is
  one ``(W, N)`` slice of every plane, whose rows are contiguous runs of N
  cells; the I, D and diagonal parents are the same slice shifted by at
  most one plane row.  Cells outside a task's own window are swept too —
  the tighter the batch's length distribution, the less of that waste,
  which is the measurable CPU analogue of §3.3's length-binned load
  balance (recorded as the ``repro_batch_occupancy`` histogram: live cells
  over union-window slab cells);
* no masked (``where=``) ufunc runs over a window block: the per-task
  window is one unsigned compare, ``(i - lo) < width``, and it enters the
  recurrence arithmetically (the gate comment in ``_extend_lockstep``);
* sequence codes are staged **once** into padded ``(L, N)`` slabs; growth
  zero-extends the slab and stages only the new coordinates;
* finished tasks become *tombstones* (their window is pinned shut with
  sentinels, so they stop contributing to the union range and are never in
  window); slabs are physically compacted only when the dead fraction
  exceeds ``_COMPACT_THRESHOLD`` (0.5), instead of gathering every slab on
  every retirement.

Allocation model
----------------
All slab storage is checked out of a :class:`~repro.align.arena.
LockstepArena`; a warm engine performs no slab allocations in steady
state.  The score planes are int32 whenever
:func:`~repro.align.wavefront.score_drift_bound` proves the sweep cannot
wrap past int32 around the ``NEG_INF`` sentinel (every op is
add/subtract/min/max, so int32 and int64 sweeps are then bit-identical);
the engine transparently falls back to int64 otherwise.  All per-diagonal
recurrences, window tests and y-drop pruning write into the arena planes
with ``out=`` ufuncs — the hot loop allocates only O(N)-sized vectors,
never O(N x width) temporaries.

Composition
-----------
:func:`batch_wavefront_extend` is the one entry.  It orders the task list
by total length (or keeps the caller's order, ``presorted=True``) and cuts
it into blocks of at most ``batch_size`` rows; each block is advanced by
its own anti-diagonal loop, one sweep over the whole block's union window
per step.  ``batch_size`` therefore bounds slab memory, and length-neighbours
sharing a block keep its union window tight.

Tail handoff
------------
A sweep step's cost is mostly per-step NumPy dispatch (DESIGN.md §17
measures 76 µs with one live row and 95 µs with fifty, against 16-24 µs
per row-step on the row kernel), so a block that is down to its last few
long alignments pays the whole per-step cost for almost no work (the
reason the paper bins by length, §3.3).  Once a block has ``_TAIL_ROWS`` or
fewer live rows it stops sweeping: at the end of a step (after the plane
rotation and y-drop retirement) each survivor's S planes for diagonals
``d`` and ``d - 1``, I/D planes for ``d``, window, best cell, stats and
traceback are lifted into a :class:`~repro.align.wavefront.
WavefrontState` and :func:`~repro.align.wavefront.resume_wavefront` —
the scalar engine's own anti-diagonal loop — finishes the row.  A block
that starts with that few rows goes to the row kernel without staging
any slab.  Results stay bit-identical by construction (the handoff
comment in ``_extend_lockstep`` gives the argument);
``repro_batch_tail_rows_total``/``repro_batch_tail_steps_total`` count
the rows and row-kernel steps, while the sweep counters and occupancy
stay lockstep-only.

The engine reproduces the scalar engine *bit-identically*: same scores,
same optimal cells (same tie-breaks — the cells just outside each window
are sealed at exactly ``NEG_INF``, matching the scalar buffers' scrubbed
edges, and cells further out stay below ``best``), same eager-tile hits
and packed traceback bytes, and the same :class:`WavefrontStats`
accounting.  ``tests/align/test_batch.py`` holds the property-style
equivalence suite and a generated differential against the row kernel
and the Gotoh oracle.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..scoring import NEG_INF, ScoringScheme
from .arena import LockstepArena
from .traceback import S_FROM_D, S_ORIGIN, walk_traceback
from .wavefront import (
    WARP_WIDTH,
    DiagTraceback,
    WavefrontResult,
    WavefrontState,
    WavefrontStats,
    pick_score_dtype,
    resume_wavefront,
)

__all__ = ["batch_wavefront_extend"]

#: Window sentinels for tombstoned (retired) rows: ``lo`` is pushed above
#: any reachable diagonal and ``hi`` below zero, so a dead row's window can
#: never reopen and never stretches the union range ``[L, H]``.
_DEAD_LO = np.int64(1) << 40
_DEAD_HI = np.int64(-3)

#: Dead-row fraction above which slabs are physically compacted (read at
#: call time, so tests can monkeypatch it).
_COMPACT_THRESHOLD = 0.5

_OCC_BUCKETS = tuple(i / 10 for i in range(1, 11))

#: Score block plane layout: 7 cyclic S/I/D planes + 2 scratch planes.
_N_SCORE_PLANES = 9

#: Live rows at or below which a block stops sweeping: the survivors are
#: lifted out of the slabs and finished on the row kernel, and a block that
#: starts this small never stages slabs.  Near the measured break-even,
#: where one sweep step costs as much as about 4 row-kernel steps.
_TAIL_ROWS = 4


def _coerce_forced_dtype(score_dtype: str | np.dtype | None) -> np.dtype | None:
    """Validate a caller dtype override (int32/int64 only)."""
    if score_dtype is None:
        return None
    forced = np.dtype(score_dtype)
    if forced not in (np.dtype(np.int32), np.dtype(np.int64)):
        raise ValueError("score_dtype must be int32 or int64")
    return forced


def batch_wavefront_extend(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    scheme: ScoringScheme,
    *,
    eager_tile: int = 0,
    traceback: bool = False,
    prune: bool = True,
    batch_size: int | None = None,
    arena: LockstepArena | None = None,
    score_dtype: str | np.dtype | None = None,
    presorted: bool = False,
) -> list[WavefrontResult]:
    """Extend N ``(target, query)`` suffix pairs in lockstep.

    Drop-in batch equivalent of calling
    :func:`~repro.align.wavefront.wavefront_extend` once per pair with the
    same keyword arguments; results come back in input order and are
    bit-identical to the per-task calls.

    Composition
    -----------
    Pairs are ordered by ``len(t) + len(q)`` — or kept in the caller's
    order with ``presorted=True``, when it already sorted them by expected
    sweep depth (the executor's inspector-measured extents, a better key
    than raw length) — and cut into blocks of at most ``batch_size`` rows,
    each advanced to completion by its own anti-diagonal loop.
    Composition never changes any result — only slab occupancy.

    Memory model
    ------------
    One lockstep slab holds a block's rows times the widest union window
    the block reaches — O(batch_size x max_extent) score cells (int32 when
    provably safe, else int64), regardless of how many pairs are passed.
    ``batch_size=None`` packs *everything* into a single block, so slab
    memory then grows with ``len(pairs)``; callers with unbounded task
    lists (the pipeline, service workers) must pass a bound — they all
    forward ``FastzOptions.batch_size``.  Slabs are checked out of
    ``arena`` and reused across blocks; pass a warm
    :class:`~repro.align.arena.LockstepArena` to reuse them across *calls*
    as well (one arena per thread/process — arenas are not thread-safe).
    ``score_dtype`` ("int32"/"int64") overrides the automatic promotion
    decision, e.g. to force the int64 path in tests; forcing int32 on a
    workload whose drift bound exceeds the int32 budget is undefined.
    """
    results: list[WavefrontResult | None] = [None] * len(pairs)
    if not pairs:
        return []
    if batch_size is not None and batch_size <= 0:
        raise ValueError("batch_size must be positive")
    forced = _coerce_forced_dtype(score_dtype)
    pairs = [
        (np.asarray(t, dtype=np.uint8), np.asarray(q, dtype=np.uint8))
        for t, q in pairs
    ]
    _check_alphabet(pairs, int(np.asarray(scheme.substitution).shape[0]))
    if arena is None:
        arena = LockstepArena()
    step = int(batch_size) if batch_size else len(pairs)
    # Length neighbours share a block, keeping its union window tight and
    # letting whole blocks retire early; results come back in input order.
    if presorted:
        order = list(range(len(pairs)))
    else:
        order = sorted(
            range(len(pairs)),
            key=lambda i: len(pairs[i][0]) + len(pairs[i][1]),
        )
    for start in range(0, len(pairs), step):
        block = order[start : start + step]
        _extend_lockstep(
            [pairs[i] for i in block],
            scheme,
            eager_tile,
            traceback,
            prune,
            results,
            block,
            arena,
            forced,
        )
    return results  # type: ignore[return-value]


def _check_alphabet(
    pairs: list[tuple[np.ndarray, np.ndarray]], sub_side: int
) -> None:
    """Raise ``IndexError`` if any target or query code is out of alphabet.

    The sweep's flat-take substitution lookup clips instead of raising, so
    the scalar engine's fancy-indexing contract (out-of-alphabet codes are
    an error) is enforced up front, before any state is staged.  Suffixes
    are usually views of one whole sequence (the inspector passes
    ``t_codes[t:]`` and ``t_codes[:t][::-1]`` for every anchor), so each
    distinct uint8 backing array is scanned once per call; a suffix itself
    is scanned only when its backing holds an out-of-alphabet code or it
    has no uint8 ndarray backing.
    """
    clean: dict[int, bool] = {}
    for side, name in ((0, "target"), (1, "query")):
        for pair in pairs:
            seq = pair[side]
            if not seq.shape[0]:
                continue
            base = seq.base
            if isinstance(base, np.ndarray) and base.dtype == np.uint8:
                ok = clean.get(id(base))
                if ok is None:
                    ok = clean[id(base)] = int(base.max()) < sub_side
                if ok:
                    continue
            if int(seq.max()) >= sub_side:
                raise IndexError(
                    f"{name} codes exceed the {sub_side}-letter alphabet"
                )


def _extend_lockstep(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    scheme: ScoringScheme,
    eager_tile: int,
    traceback: bool,
    prune: bool,
    results: list,
    out_index: list[int],
    arena: LockstepArena,
    forced_dtype: np.dtype | None,
) -> None:
    """Advance one lockstep block to completion."""
    targets = [t for t, _ in pairs]
    queries = [q for _, q in pairs]
    R = len(pairs)

    tail_rows = _TAIL_ROWS
    if R <= tail_rows:
        origins = [
            WavefrontState.origin(
                t.shape[0], q.shape[0], eager_tile=eager_tile, traceback=traceback
            )
            for t, q in zip(targets, queries)
        ]
        _finish_on_row_kernel(
            targets, queries, origins, scheme, prune, results, out_index
        )
        return

    obs.counter(
        "repro_batch_lockstep_batches_total",
        "Struct-of-arrays lockstep batches advanced.",
    ).inc()
    obs.counter(
        "repro_batch_tasks_total", "Extension tasks packed into lockstep batches."
    ).inc(R)

    oe = int(scheme.gap_open + scheme.gap_extend)
    e = int(scheme.gap_extend)
    ydrop = int(scheme.ydrop) if prune else None
    tile = int(eager_tile) if not traceback else 0

    idx = np.asarray(out_index, dtype=np.int64)
    m = np.fromiter((t.shape[0] for t in targets), dtype=np.int64, count=R)
    n = np.fromiter((q.shape[0] for q in queries), dtype=np.int64, count=R)

    span = int((m + n).max())
    sdt = forced_dtype or pick_score_dtype(scheme, span, prune=prune)
    obs.counter(
        "repro_batch_sweep_dtype_total", "Lockstep sweeps by score dtype."
    ).labels(dtype=sdt.name).inc()
    NEG = sdt.type(NEG_INF)
    GATE = sdt.type(np.iinfo(sdt).max)  # see the diagonal gate below
    sub_f = np.ascontiguousarray(scheme.substitution, dtype=sdt).ravel()

    cap = 128
    blk, _ = arena.block("scores", (_N_SCORE_PLANES, cap, R), sdt)
    blk[:7] = NEG
    bool_blk, _ = arena.block("bools", (2, cap, R), np.bool_)
    u8_blk, _ = arena.block("scratch8", (4, cap, R), np.uint8)
    off_blk, _ = arena.block("scratch64", (cap, R), np.int64)
    cols_all = np.arange(cap, dtype=np.int64)
    # Cyclic rotation swaps plane *indices*; views are re-derived per step.
    p_spp, p_sp, p_sc = 0, 1, 2
    p_ip, p_ic = 3, 4
    p_dp, p_dc = 5, 6
    blk[p_sp, 0] = 0  # diagonal 0: the origin

    t_len = q_len = 64
    Tpad, _ = arena.block("codes_t", (t_len, R), np.uint8)
    Qpad, _ = arena.block("codes_q", (q_len, R), np.uint8)
    Tpad[:] = 0
    Qpad[:] = 0
    for row in range(R):
        seq = targets[row]
        stop = min(int(seq.shape[0]), t_len)
        if stop:
            Tpad[:stop, row] = seq[:stop]
        seq = queries[row]
        stop = min(int(seq.shape[0]), q_len)
        if stop:
            Qpad[:stop, row] = seq[:stop]

    lo_prev = np.zeros(R, dtype=np.int64)
    hi_prev = np.zeros(R, dtype=np.int64)
    best = np.zeros(R, dtype=sdt)
    best_i = np.zeros(R, dtype=np.int64)
    best_j = np.zeros(R, dtype=np.int64)
    thr = np.empty(R, dtype=sdt)
    d_best = np.empty(R, dtype=sdt)
    lo = np.zeros(R, dtype=np.int64)
    hi = np.zeros(R, dtype=np.int64)
    lo_nb = np.empty(R, dtype=np.int64)  # pruned next-window buffers
    hi_nb = np.empty(R, dtype=np.int64)
    has_alive = np.zeros(R, dtype=bool)
    dmn = np.subtract(0, n)  # maintained incrementally as d - n
    width = np.empty(R, dtype=np.int64)
    strips = np.empty(R, dtype=np.int64)
    improved = np.empty(R, dtype=bool)
    scr_b = np.empty(R, dtype=bool)
    rows_all = np.arange(R, dtype=np.int64)

    diagonals = np.ones(R, dtype=np.int64)
    cells = np.ones(R, dtype=np.int64)
    warp_steps = np.ones(R, dtype=np.int64)
    # boundary_cells is recovered at finalize as warp_steps - diagonals: both
    # start at 1 and every step adds (strips, 1) while boundary adds strips-1.
    max_width = np.ones(R, dtype=np.int64)

    live = np.ones(R, dtype=bool)
    n_live = R
    compact_frac = _COMPACT_THRESHOLD
    slab_cells = 0
    live_cells = 0
    sweep_steps = 0

    tile_tb: np.ndarray | None = None
    if tile > 0:
        tile_tb, _ = arena.block("tile", (R, tile + 1, tile + 1), np.uint8)
        tile_tb[:] = 0
        tile_tb[:, 0, 0] = S_ORIGIN
    full_tbs: list[DiagTraceback | None] | None = None
    if traceback:
        full_tbs = []
        for row in range(R):
            tb = DiagTraceback((int(m[row]) + 1, int(n[row]) + 1))
            tb.append_diag(0, np.array([S_ORIGIN], dtype=np.uint8))
            full_tbs.append(tb)

    def _finalize_rows(dead: np.ndarray) -> None:
        """Emit WavefrontResults for the rows in ``dead`` (one bulk scalar
        extraction per stat array instead of per-row numpy indexing)."""
        nonlocal live_cells
        sel = dead.tolist()
        out_i = idx[dead].tolist()
        sc_l = best[dead].tolist()
        bi_l = best_i[dead].tolist()
        bj_l = best_j[dead].tolist()
        dg_l = diagonals[dead].tolist()
        ce_l = cells[dead].tolist()
        ws_l = warp_steps[dead].tolist()
        bc_l = (warp_steps[dead] - diagonals[dead]).tolist()
        mw_l = max_width[dead].tolist()
        # Each row's cells counter is 1 + its lifetime sum of window widths,
        # so retiring rows is the natural place to accumulate the occupancy
        # numerator without a per-step masked reduction.
        live_cells += int(cells[dead].sum()) - dead.shape[0]
        for k, row in enumerate(sel):
            bi, bj = bi_l[k], bj_l[k]
            ops = None
            eager_hit = False
            if full_tbs is not None:
                ops = walk_traceback(full_tbs[row], bi, bj)
            elif tile_tb is not None and bi <= tile and bj <= tile:
                ops = walk_traceback(tile_tb[row], bi, bj)
                eager_hit = True
            results[out_i[k]] = WavefrontResult(
                score=sc_l[k],
                end_i=bi,
                end_j=bj,
                stats=WavefrontStats(
                    diagonals=dg_l[k],
                    cells=ce_l[k],
                    warp_steps=ws_l[k],
                    boundary_cells=bc_l[k],
                    max_width=mw_l[k],
                ),
                ops=ops,
                eager_hit=eager_hit,
            )

    def _retire(dead: np.ndarray) -> None:
        """Finalize ``dead`` rows and tombstone them in place."""
        nonlocal n_live
        _finalize_rows(dead)
        live[dead] = False
        lo_prev[dead] = _DEAD_LO
        hi_prev[dead] = _DEAD_HI
        if full_tbs is not None:
            for row in dead.tolist():
                full_tbs[row] = None
        n_live -= int(dead.shape[0])

    def _compact() -> None:
        """Physically repack live rows to the front of every slab."""
        nonlocal R, blk, bool_blk, u8_blk, off_blk, Tpad, Qpad, tile_tb
        nonlocal full_tbs, targets, queries, idx, m, n, lo, hi, lo_prev, hi_prev
        nonlocal best, best_i, best_j, thr, d_best, live
        nonlocal dmn, width, strips, improved, scr_b, rows_all
        nonlocal diagonals, cells, warp_steps, max_width
        nonlocal lo_nb, hi_nb, has_alive
        keep = np.flatnonzero(live)
        k = keep.shape[0]
        # Only the completed planes are read before being rewritten, and
        # only within one coordinate of the live rows' last windows (the
        # current planes are recomputed over the union window and scrubbed
        # at its edges before any read).
        c0 = max(int(lo_prev[keep].min()) - 1, 0)
        c1 = int(hi_prev[keep].max()) + 2
        for p in (p_spp, p_sp, p_ip, p_dp):
            plane = blk[p, c0:c1]
            plane[:, :k] = plane[:, keep]
        blk = blk[:, :, :k]
        bool_blk = bool_blk[:, :, :k]
        u8_blk = u8_blk[:, :, :k]
        off_blk = off_blk[:, :k]
        Tpad[:, :k] = Tpad[:, keep]
        Tpad = Tpad[:, :k]
        Qpad[:, :k] = Qpad[:, keep]
        Qpad = Qpad[:, :k]
        if tile_tb is not None:
            tile_tb[:k] = tile_tb[keep]
            tile_tb = tile_tb[:k]
        if full_tbs is not None:
            full_tbs = [full_tbs[i] for i in keep]
        targets = [targets[i] for i in keep]
        queries = [queries[i] for i in keep]
        idx, m, n = idx[keep], m[keep], n[keep]
        lo, hi = lo[keep], hi[keep]
        lo_prev, hi_prev = lo_prev[keep], hi_prev[keep]
        best, best_i, best_j = best[keep], best_i[keep], best_j[keep]
        diagonals, cells = diagonals[keep], cells[keep]
        warp_steps, max_width = warp_steps[keep], max_width[keep]
        thr = thr[:k]
        d_best = d_best[:k]
        lo_nb = lo_nb[:k]
        hi_nb = hi_nb[:k]
        has_alive = has_alive[:k]
        dmn = dmn[keep]
        width = width[:k]
        strips = strips[:k]
        improved = improved[:k]
        scr_b = scr_b[:k]
        rows_all = rows_all[:k]
        live = np.ones(k, dtype=bool)
        R = k
        obs.counter(
            "repro_batch_compactions_total",
            "Lockstep slab compactions (dead fraction crossed threshold).",
        ).inc()

    def _maybe_compact() -> None:
        if (R - n_live) > compact_frac * R:
            _compact()

    d = 0
    while n_live > tail_rows:
        d += 1
        np.add(dmn, 1, out=dmn)
        np.maximum(lo_prev, dmn, out=lo)
        np.maximum(lo, 0, out=lo)
        np.add(hi_prev, 1, out=hi)
        np.minimum(hi, m, out=hi)
        np.minimum(hi, d, out=hi)

        # --- retire tasks whose window closed (the scalar break) ------------
        np.greater(lo, hi, out=scr_b)
        np.logical_and(scr_b, live, out=scr_b)
        if scr_b.any():
            dead = np.flatnonzero(scr_b)
            lo[dead] = _DEAD_LO
            hi[dead] = _DEAD_HI
            _retire(dead)
            if not n_live:
                break
            _maybe_compact()

        L = int(lo.min())
        H = int(hi.max())
        np.subtract(hi, lo, out=width)
        np.add(width, 1, out=width)

        if H + 3 > cap:
            new_cap = max(H + 3, 2 * cap)
            nb, fresh = arena.block("scores", (_N_SCORE_PLANES, new_cap, R), sdt)
            if fresh:
                nb[:7, :cap] = blk[:7]
            nb[:7, cap:] = NEG
            blk = nb
            bool_blk, _ = arena.block("bools", (2, new_cap, R), np.bool_)
            u8_blk, _ = arena.block("scratch8", (4, new_cap, R), np.uint8)
            off_blk, _ = arena.block("scratch64", (new_cap, R), np.int64)
            cols_all = np.arange(new_cap, dtype=np.int64)
            cap = new_cap
        if H > t_len:
            new_t = max(2 * t_len, H + 64)
            nT, fresh = arena.block("codes_t", (new_t, R), np.uint8)
            if fresh:
                nT[:t_len] = Tpad
            nT[t_len:] = 0
            for row in np.flatnonzero(live & (m > t_len)).tolist():
                seq = targets[row]
                stop = min(int(seq.shape[0]), new_t)
                nT[t_len:stop, row] = seq[t_len:stop]
            Tpad = nT
            t_len = new_t
        if d >= q_len:
            new_q = max(2 * q_len, d + 64)
            nQ, fresh = arena.block("codes_q", (new_q, R), np.uint8)
            if fresh:
                nQ[:q_len] = Qpad
            nQ[q_len:] = 0
            for row in np.flatnonzero(live & (n > q_len)).tolist():
                seq = queries[row]
                stop = min(int(seq.shape[0]), new_q)
                nQ[q_len:stop, row] = seq[q_len:stop]
            Qpad = nQ
            q_len = new_q

        S_pp, S_p, S_c = blk[p_spp], blk[p_sp], blk[p_sc]
        I_p, I_c = blk[p_ip], blk[p_ic]
        D_p, D_c = blk[p_dp], blk[p_dc]

        record_tile = tile_tb is not None and d <= 2 * tile
        if ydrop is not None:
            np.subtract(best, ydrop, out=thr)
            lo_next, hi_next = lo_nb, hi_nb
        else:
            lo_next, hi_next = lo, hi
        sweep_steps += 1
        W = H - L + 1
        slab_cells += R * W
        sc0 = blk[7, :W]
        sc1 = blk[8, :W]
        b_in = bool_blk[0, :W]
        b_a = bool_blk[1, :W]
        s_ch = u8_blk[0, :W]
        u8a = u8_blk[1, :W]
        off = off_blk[:W]

        # Scrub the recycled buffer's union-window edges (windows move by at
        # most one coordinate per step; interior coordinates are overwritten
        # below).
        if L >= 1:
            S_c[L - 1] = I_c[L - 1] = D_c[L - 1] = NEG
        S_c[H + 1] = I_c[H + 1] = D_c[H + 1] = NEG

        Sp = S_p[L : H + 1]
        Ip = I_p[L : H + 1]
        Icur = I_c[L : H + 1]
        Dcur = D_c[L : H + 1]
        Scur = S_c[L : H + 1]

        # --- I(i, j): from diagonal d-1, same index -------------------------
        np.subtract(Ip, e, out=Icur)
        np.subtract(Sp, oe, out=sc0)
        np.maximum(Icur, sc0, out=Icur)
        if H == d:  # cell (d, 0) has no insertion parent
            Icur[-1, np.flatnonzero(hi == d)] = NEG

        # --- D(i, j): from diagonal d-1, index i-1 --------------------------
        if L >= 1:
            np.subtract(D_p[L - 1 : H], e, out=Dcur)
            np.subtract(S_p[L - 1 : H], oe, out=sc0)
            np.maximum(Dcur, sc0, out=Dcur)
        else:
            Dcur[0] = NEG  # cell (0, d) has no deletion parent
            np.subtract(D_p[0:H], e, out=Dcur[1:])
            np.subtract(S_p[0:H], oe, out=sc0[1:])
            np.maximum(Dcur[1:], sc0[1:], out=Dcur[1:])

        # --- S = max(I, D, diag) --------------------------------------------
        np.maximum(Icur, Dcur, out=Scur)
        if L >= 1:
            tg = Tpad[L - 1 : H]
        else:
            tg = u8_blk[2, :W]
            tg[0] = 0
            tg[1:] = Tpad[0:H]
        if H == d:
            qg = u8_blk[3, :W]
            qg[-1] = 0
            if W > 1:
                qg[:-1] = Qpad[0 : d - L][::-1]
        else:
            qg = Qpad[d - H - 1 : d - L][::-1]
        # Substitution lookup: flat 5x5 take via a uint8 index plane.
        np.multiply(tg, 5, out=u8a)
        np.add(u8a, qg, out=u8a)
        np.take(sub_f, u8a, out=sc1, mode="clip")
        if L >= 1:
            np.add(sc1, S_pp[L - 1 : H], out=sc1)
        else:
            np.add(sc1[1:], S_pp[0:H], out=sc1[1:])
        # The matrix-edge cells (i == 0, present iff L == 0; i == d, present
        # iff H == d) have no diagonal parent: neutralise the candidate at
        # the two union-edge coordinates (in-window edge cells always have a
        # real I or D parent, so the NEG candidate never wins there).
        if L == 0:
            sc1[0] = NEG
        if H == d:
            sc1[-1] = NEG
        # In-window mask, one unsigned compare: (i - lo) < width.  Below
        # ``lo`` the difference wraps past every width; tombstones have a
        # negative width and are never in window.
        np.subtract(cols_all[L : H + 1, None], lo, out=off)
        np.less(off.view(np.uint64), width.view(np.uint64), out=b_in)
        # The diagonal max must not reach outside each row's window: the
        # diagonal parent plane was sealed by *its own* (wider, pre-prune)
        # window two steps ago, so outside [lo, hi] it can still hold real
        # values that an ungated max would resurrect past the y-drop
        # threshold.  Capping the candidate at the gate ``in_window * GATE +
        # NEG`` (NEG out of window; 2^30 - 1 in it for int32, above every
        # real score under score_drift_bound) is exact: in-window cells keep
        # their candidate; out-of-window cells rise at most to NEG, below
        # ``best`` and the prune threshold, and the next two steps read
        # outside a row's window only at the sealed lo-1/hi+1 coordinates.
        np.multiply(b_in, GATE, out=sc0)
        np.add(sc0, NEG, out=sc0)
        np.minimum(sc1, sc0, out=sc1)
        np.maximum(Scur, sc1, out=Scur)

        # --- traceback recording --------------------------------------------
        # Bytes outside a row's window are never read, so no step masks them.
        if full_tbs is not None or record_tile:
            np.equal(Scur, Icur, out=b_a)
            # S_FROM_D, or S_FROM_I (= S_FROM_D - 1) where S == I.
            np.subtract(np.uint8(S_FROM_D), b_a, out=s_ch)
            np.not_equal(Scur, sc1, out=b_a)
            if L == 0:  # no diagonal parent at the matrix edges
                b_a[0] = True
            if H == d:
                b_a[-1] = True
            np.multiply(s_ch, b_a, out=s_ch)  # S_DIAG (= 0) where it wins
            np.subtract(Ip, e, out=sc0)
            np.subtract(Sp, oe, out=sc1)
            np.greater(sc0, sc1, out=u8a)  # i_from_i
            np.left_shift(u8a, 2, out=u8a)
            np.bitwise_or(s_ch, u8a, out=s_ch)
            if L >= 1:
                np.subtract(D_p[L - 1 : H], e, out=sc0)
                np.subtract(S_p[L - 1 : H], oe, out=sc1)
                np.greater(sc0, sc1, out=u8a)  # d_from_d
            else:
                u8a[0] = 0
                np.subtract(D_p[0:H], e, out=sc0[1:])
                np.subtract(S_p[0:H], oe, out=sc1[1:])
                np.greater(sc0[1:], sc1[1:], out=u8a[1:])
            np.left_shift(u8a, 3, out=u8a)
            np.bitwise_or(s_ch, u8a, out=s_ch)
            if full_tbs is not None:
                off_l = (lo - L).tolist()
                w_l = width.tolist()
                lo_l = lo.tolist()
                for row in np.flatnonzero(live).tolist():
                    start = off_l[row]
                    full_tbs[row].append_diag(
                        lo_l[row], s_ch[start : start + w_l[row], row].copy()
                    )
            else:
                t_lo = max(L, d - tile)
                t_hi = min(H, tile)
                if t_lo <= t_hi:
                    pp, rr = np.nonzero(b_in[t_lo - L : t_hi - L + 1])
                    if rr.shape[0]:
                        ii = pp + t_lo
                        tile_tb[rr, ii, d - ii] = s_ch[pp + (t_lo - L), rr]

        # --- prune window edges against completed-diagonal best -------------
        # The alive test is gated to each row's window (b_in), so stale plane
        # values and out-of-window garbage never keep a row alive.
        if ydrop is not None:
            np.greater_equal(Scur, thr, out=b_a)
            np.logical_and(b_a, b_in, out=b_a)
            first = b_a.argmax(axis=0)
            has_alive[:] = b_a[first, rows_all]
            last = W - 1 - b_a[::-1].argmax(axis=0)
            np.add(first, L, out=lo_next)
            np.add(last, L, out=hi_next)
            seal_rows = np.flatnonzero(has_alive)
        else:
            seal_rows = np.flatnonzero(live)
        # Seal each surviving row's window in the planes.  Later steps read
        # outside [lo_next, hi_next] only at the two boundary coordinates
        # (the window can move by at most one per step), so pin exactly
        # those cells to NEG_INF — mirroring the scalar engine's scrubbed
        # buffer edges — instead of masking the whole slab.  S is read both
        # as gap and diagonal parent on either side; I is read one past the
        # top edge, D one past the bottom.  Everything further out is never
        # read again: stale pruned-away values decay in place and stay
        # strictly below ``best``, so they can't disturb the alive test
        # (window-gated) or the best-cell argmax (a new optimum strictly
        # exceeds every stale or pruned cell).
        if seal_rows.shape[0]:
            hcol = hi_next[seal_rows] + 1
            S_c[hcol, seal_rows] = NEG
            I_c[hcol, seal_rows] = NEG
            lcol = lo_next[seal_rows] - 1
            inb = lcol >= 0
            if not inb.all():
                lrows, lcol = seal_rows[inb], lcol[inb]
            else:
                lrows = seal_rows
            S_c[lcol, lrows] = NEG
            D_c[lcol, lrows] = NEG

        # --- best-cell tracking (ties: smallest i+j, then smallest i) -------
        np.maximum.reduce(Scur, axis=0, out=d_best)
        np.greater(d_best, best, out=improved)
        if ydrop is not None:
            np.logical_and(improved, has_alive, out=improved)
        else:
            np.logical_and(improved, live, out=improved)
        if improved.any():
            w_idx = Scur.argmax(axis=0)
            np.copyto(best, d_best, where=improved)
            np.copyto(best_i, w_idx + L, where=improved)
            np.copyto(best_j, d - best_i, where=improved)

        # Retired rows are never read after finalize, so the per-row stats
        # run ungated (tombstones accumulate garbage that compaction drops).
        np.add(diagonals, 1, out=diagonals)
        np.add(cells, width, out=cells)
        np.add(width, WARP_WIDTH - 1, out=strips)
        np.floor_divide(strips, WARP_WIDTH, out=strips)
        np.add(warp_steps, strips, out=warp_steps)
        np.maximum(max_width, width, out=max_width)

        p_spp, p_sp, p_sc = p_sp, p_sc, p_spp
        p_ip, p_ic = p_ic, p_ip
        p_dp, p_dc = p_dc, p_dp
        np.copyto(lo_prev, lo_next, where=live)
        np.copyto(hi_prev, hi_next, where=live)

        # --- retire tasks whose whole window fell below threshold -----------
        if ydrop is not None:
            dying = live & ~has_alive
            if dying.any():
                _retire(np.flatnonzero(dying))
                if not n_live:
                    break
                _maybe_compact()

    # At most ``tail_rows`` rows are left: lift each out of the slabs as a
    # row-kernel state paused after step ``d`` and finish it there, where a
    # step costs one row's work instead of a whole sweep's dispatch.  Exact
    # by construction: the row kernel's next step reads only coordinates
    # [lo_prev - 1, hi_prev + 1] of diagonal d and [lo_prev - 1, hi_prev]
    # of d - 1.  Inside each diagonal's pruned window the planes hold the
    # scalar engine's values; the coordinates just outside it that those
    # ranges reach are the ones the boundary seals pinned to NEG_INF (S at
    # both edges, I past the top, D below the bottom), which is what the
    # scalar buffers hold there.  Widening int32 planes to int64 is exact
    # under ``score_drift_bound``.
    if n_live:
        tail = np.flatnonzero(live)
        # Cells a lifted row swept here stay on the live side of the
        # occupancy ledger, which thus remains a lockstep-only ratio.
        live_cells += int(cells[tail].sum()) - tail.shape[0]
        # (plane, coordinate, row) -> (plane, row, coordinate): one
        # contiguous int64 buffer per lifted row and plane.
        lifted = blk[np.ix_((p_spp, p_sp, p_ip, p_dp), np.arange(cap), tail)]
        planes = np.ascontiguousarray(lifted.transpose(0, 2, 1), dtype=np.int64)
        states = [
            WavefrontState(
                d=d,
                S_pp=planes[0, k],
                S_p=planes[1, k],
                I_p=planes[2, k],
                D_p=planes[3, k],
                lo_prev=int(lo_prev[row]),
                hi_prev=int(hi_prev[row]),
                best=int(best[row]),
                best_i=int(best_i[row]),
                best_j=int(best_j[row]),
                diagonals=int(diagonals[row]),
                cells=int(cells[row]),
                warp_steps=int(warp_steps[row]),
                boundary_cells=int(warp_steps[row] - diagonals[row]),
                max_width=int(max_width[row]),
                tile_tb=None if tile_tb is None else tile_tb[row].copy(),
                full_tb=None if full_tbs is None else full_tbs[row],
            )
            for k, row in enumerate(tail.tolist())
        ]
        _finish_on_row_kernel(
            [targets[row] for row in tail.tolist()],
            [queries[row] for row in tail.tolist()],
            states,
            scheme,
            prune,
            results,
            idx[tail].tolist(),
        )

    if slab_cells:
        obs.histogram(
            "repro_batch_occupancy",
            "Live cells / union-window slab cells per lockstep sweep.",
            buckets=_OCC_BUCKETS,
        ).observe(live_cells / slab_cells)
    # Sweep accounting: steps is the anti-diagonal loop count; slab vs live
    # cells is the masked-lane (dead-work) ledger the pipeline puts on its
    # inspector and executor spans and ``repro trace`` prints as a masked
    # fraction.
    obs.counter(
        "repro_batch_sweep_steps_total",
        "Anti-diagonal lockstep sweep steps advanced.",
    ).inc(sweep_steps)
    obs.counter(
        "repro_batch_sweep_slab_cells_total",
        "Union-window slab cells swept (live work plus masked dead lanes).",
    ).inc(slab_cells)
    obs.counter(
        "repro_batch_sweep_live_cells_total",
        "In-window live cells among swept slab cells.",
    ).inc(live_cells)


def _finish_on_row_kernel(
    targets: list[np.ndarray],
    queries: list[np.ndarray],
    states: list[WavefrontState],
    scheme: ScoringScheme,
    prune: bool,
    results: list,
    out_index: list[int],
) -> None:
    """Run each paused row to completion on the row kernel."""
    steps = 0
    for t, q, state, k in zip(targets, queries, states, out_index):
        start = state.diagonals
        results[k] = resume_wavefront(t, q, scheme, state, prune=prune)
        steps += results[k].stats.diagonals - start
    obs.counter(
        "repro_batch_tail_rows_total",
        "Lockstep rows finished on the row kernel instead of the sweep.",
    ).inc(len(states))
    obs.counter(
        "repro_batch_tail_steps_total",
        "Row-kernel anti-diagonal steps of rows finished off the sweep.",
    ).inc(steps)
