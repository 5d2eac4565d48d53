"""The FastZ pipeline: inspector -> (eager traceback | trimmed executor).

Functional model of the paper's §3.1: every anchor is inspected with the
cyclic-buffer wavefront engine (no traceback, except the 16x16 eager tile);
extensions that resolve inside the tile are complete after the inspector;
the rest are re-run by the executor on the *trimmed* region — exactly up to
the optimal cell the inspector found — with full packed traceback.

The pipeline produces the same alignments as sequential LASTZ, or
occasionally longer ones (the wavefront's conservative pruning explores a
superset; paper §3.4), and records a :class:`~repro.core.task.FastzTask`
profile per anchor for the performance model.

Host engines drive the extensions (``FastzOptions.engine``), dispatched
through the :mod:`repro.align.engines` registry — every name below is a
``@register_engine`` entry here, and callers (service, pool workers,
fleet backends, jobs) resolve names with ``get_engine``:

* ``"scalar"`` — the original per-anchor loop over
  :func:`~repro.align.wavefront.wavefront_extend`;
* ``"batched"``, also registered as ``"wholebin"`` — the struct-of-arrays
  lockstep engine (:mod:`repro.align.batch`): the inspector advances all
  anchors' wavefronts together, and executor tasks are composed into
  per-length-bin batches (§3.3's inter-task parallelism) before being
  advanced in lockstep, in blocks of at most ``FastzOptions.batch_size``
  rows.

All engines produce bit-identical results; ``run_fastz(..., workers=N)``
additionally shards the anchor set into LPT-balanced shards across a
per-call :class:`~repro.core.pool.WorkerPool` for big profile builds, and
``run_fastz(..., on_partial=...)`` streams: it extends the sorted anchors
in slices and reports each slice as a :class:`StreamPartial`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .. import obs
from ..align.alignment import Alignment
from ..align.arena import thread_arena
from ..align.batch import batch_wavefront_extend
from ..align.engines import get_engine, register_engine
from ..align.extend import combine_alignment
from ..align.wavefront import WavefrontResult, wavefront_extend
from ..genome.sequence import Sequence
from ..lastz.config import LastzConfig
from ..lastz.pipeline import select_anchors
from ..scoring import ScoringScheme
from ..seeding import Anchors
from .binning import assign_bin, assign_bins, bin_histogram
from .options import FASTZ_FULL, FastzOptions
from .task import FastzTask, TaskArrays, tasks_to_arrays

__all__ = [
    "ExtensionSpec",
    "FastzResult",
    "PreparedRequest",
    "StreamAborted",
    "StreamPartial",
    "extend_suffixes_batched",
    "extend_suffixes_shard",
    "finish_fastz",
    "prepare_fastz",
    "run_fastz",
]


@dataclass
class FastzResult:
    """Alignments plus per-task work profiles from a FastZ run."""

    alignments: list[Alignment]
    tasks: list[FastzTask]
    anchors: Anchors
    options: FastzOptions
    #: Times the trimmed executor disagreed with the inspector and fell
    #: back to an exact (unpruned) recompute. Expected to be ~0.
    executor_fallbacks: int = 0
    extensions: list = field(default_factory=list, repr=False)

    @cached_property
    def arrays(self) -> TaskArrays:
        return tasks_to_arrays(self.tasks)

    @property
    def eager_count(self) -> int:
        return sum(1 for t in self.tasks if t.eager)

    @property
    def eager_fraction(self) -> float:
        return self.eager_count / len(self.tasks) if self.tasks else 0.0

    def bin_counts(self) -> np.ndarray:
        """Table-2 row: [eager, bin1, bin2, bin3, bin4] counts."""
        ids = np.array([t.bin_id for t in self.tasks], dtype=np.int64)
        return bin_histogram(ids, self.options.bin_edges)

    def unique_alignments(self) -> list[Alignment]:
        """Alignments deduplicated by (target, query) interval."""
        seen = set()
        out = []
        for a in self.alignments:
            key = (a.target_start, a.target_end, a.query_start, a.query_end)
            if key not in seen:
                seen.add(key)
                out.append(a)
        return out


def _executor_side(
    t_suffix: np.ndarray,
    q_suffix: np.ndarray,
    inspected: WavefrontResult,
    scheme,
) -> tuple[WavefrontResult, bool]:
    """Trimmed executor recompute of one direction.

    Returns the executor result and whether an exact-recompute fallback was
    needed (the trimmed y-drop rerun found a different optimum — extremely
    rare, but the executor must never emit a wrong alignment).
    """
    trimmed_t = t_suffix[: inspected.end_i]
    trimmed_q = q_suffix[: inspected.end_j]
    result = wavefront_extend(trimmed_t, trimmed_q, scheme, traceback=True)
    if (result.score, result.end_i, result.end_j) == (
        inspected.score,
        inspected.end_i,
        inspected.end_j,
    ):
        return result, False
    exact = wavefront_extend(trimmed_t, trimmed_q, scheme, traceback=True, prune=False)
    return exact, True


#: Per-anchor extension record: (inspector left/right, final left/right,
#: executor-fallback count).  Produced identically by both engines.
_AnchorExtension = tuple[WavefrontResult, WavefrontResult, WavefrontResult, WavefrontResult, int]


def _extend_one_suffix_pair(
    right: tuple[np.ndarray, np.ndarray],
    left: tuple[np.ndarray, np.ndarray],
    scheme: ScoringScheme,
    options: FastzOptions,
    tile: int,
) -> _AnchorExtension:
    """Inspector + executor for one anchor's two one-sided problems."""
    right_suffix_t, right_suffix_q = right
    left_suffix_t, left_suffix_q = left

    # --- inspector --------------------------------------------------
    insp_r = wavefront_extend(right_suffix_t, right_suffix_q, scheme, eager_tile=tile)
    insp_l = wavefront_extend(left_suffix_t, left_suffix_q, scheme, eager_tile=tile)
    eager = insp_l.eager_hit and insp_r.eager_hit

    # --- executor (or not) ------------------------------------------
    fb = 0
    if eager:
        final_l, final_r = insp_l, insp_r
    elif options.executor_trimming:
        final_r, fb_r = _executor_side(right_suffix_t, right_suffix_q, insp_r, scheme)
        final_l, fb_l = _executor_side(left_suffix_t, left_suffix_q, insp_l, scheme)
        fb = int(fb_r) + int(fb_l)
    else:
        # Untrimmed executor: recompute the full search space with
        # traceback (the V1/V2 ablation behaviour).
        final_r = wavefront_extend(right_suffix_t, right_suffix_q, scheme, traceback=True)
        final_l = wavefront_extend(left_suffix_t, left_suffix_q, scheme, traceback=True)
    return (insp_l, insp_r, final_l, final_r, fb)


@register_engine("scalar")
def _extend_suffixes_scalar(
    suffixes: list[tuple[np.ndarray, np.ndarray]],
    scheme: ScoringScheme,
    options: FastzOptions,
    tile: int,
) -> list[_AnchorExtension]:
    """The original per-anchor loop over interleaved right/left suffixes."""
    out: list[_AnchorExtension] = []
    with obs.span("fastz.extend", engine="scalar", anchors=len(suffixes) // 2) as sp:
        for k in range(len(suffixes) // 2):
            out.append(
                _extend_one_suffix_pair(
                    suffixes[2 * k], suffixes[2 * k + 1], scheme, options, tile
                )
            )
        sp.set(eager=sum(1 for r in out if r[0].eager_hit and r[1].eager_hit))
    return out


def _anchor_suffixes(
    t_codes: np.ndarray,
    q_codes: np.ndarray,
    t_pos: list[int],
    q_pos: list[int],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The two one-sided extension problems of each anchor, interleaved.

    Anchor ``k``'s right extension is at index ``2k``, its (reversed) left
    extension at ``2k + 1`` — the layout :func:`extend_suffixes_batched`
    expects.
    """
    suffixes: list[tuple[np.ndarray, np.ndarray]] = []
    for t, q in zip(t_pos, q_pos):
        suffixes.append((t_codes[t:], q_codes[q:]))  # right at 2k
        suffixes.append((t_codes[:t][::-1], q_codes[:q][::-1]))  # left at 2k+1
    return suffixes


def _sweep_snapshot() -> tuple[float, float, float, float]:
    """Current values of the engine's global sweep ledger counters."""
    return (
        obs.counter(
            "repro_batch_sweep_steps_total",
            "Anti-diagonal lockstep sweep steps advanced.",
        ).value(),
        obs.counter(
            "repro_batch_sweep_slab_cells_total",
            "Union-window slab cells swept (live work plus masked dead lanes).",
        ).value(),
        obs.counter(
            "repro_batch_sweep_live_cells_total",
            "In-window live cells among swept slab cells.",
        ).value(),
        obs.counter(
            "repro_batch_tail_rows_total",
            "Lockstep rows finished on the row kernel instead of the sweep.",
        ).value(),
    )


def _record_sweeps(
    sp, before: tuple[float, float, float, float]
) -> tuple[float, float, float]:
    """Put the sweep-ledger delta since ``before`` on span ``sp``.

    Returns ``(sweeps, slab cells, live cells)``.  The delta is read from
    thread-shared counters, so under concurrent engine calls (service
    threads) the attribution is approximate; on the single-threaded paths
    ``repro trace`` reports it is exact.
    """
    steps0, cells0, live0, tail0 = before
    steps1, cells1, live1, tail1 = _sweep_snapshot()
    sweeps = steps1 - steps0
    cells = cells1 - cells0
    live = live1 - live0
    sp.set(tail_rows=int(tail1 - tail0))
    if cells > 0:
        sp.set(
            sweeps=int(sweeps),
            occupancy=round(live / cells, 4),
            masked_fraction=round(1.0 - live / cells, 4),
        )
    return sweeps, cells, live


def _record_bin_sweeps(
    ex_sp, bin_id: int, before: tuple[float, float, float, float]
) -> None:
    """Attribute the sweep-ledger delta around one executor bin to that bin."""
    sweeps, cells, live = _record_sweeps(ex_sp, before)
    if cells <= 0:
        return
    obs.counter(
        "repro_batch_bin_sweeps_total",
        "Anti-diagonal sweep steps per executor length bin.",
    ).labels(bin=bin_id).inc(sweeps)
    obs.counter(
        "repro_batch_bin_slab_cells_total",
        "Slab cells swept per executor length bin.",
    ).labels(bin=bin_id).inc(cells)
    obs.counter(
        "repro_batch_bin_masked_cells_total",
        "Masked dead-lane cells swept per executor length bin.",
    ).labels(bin=bin_id).inc(max(cells - live, 0))


@register_engine("wholebin")
@register_engine("batched")
def extend_suffixes_batched(
    suffixes: list[tuple[np.ndarray, np.ndarray]],
    scheme: ScoringScheme,
    options: FastzOptions,
    tile: int,
) -> list[_AnchorExtension]:
    """Lockstep inter-task extension: batched inspector, bin-aware executor.

    ``suffixes`` is the interleaved right/left layout of
    :func:`_anchor_suffixes` and may concatenate the anchors of *several*
    alignment requests — the extension problems are independent, so the
    alignment service fuses concurrent requests into one call and the
    per-anchor records come back bit-identical to per-request runs.

    The inspector advances every anchor's left and right wavefronts in
    length-sorted lockstep blocks of at most ``options.batch_size`` rows.
    Executor tasks are then grouped by the inspector-measured
    alignment-length bin (:func:`~repro.core.binning.assign_bins`) so short
    and long extensions never share a lockstep block — the load-balance
    argument of §3.3 — and each bin, sorted by measured extent, is advanced
    in blocks of the same cap with full packed traceback.  Each stage's
    sweep ledger (sweeps, row-kernel tail rows, occupancy, masked-lane
    fraction) goes on its ``fastz.inspector`` / ``fastz.executor`` span,
    and per bin on the ``repro_batch_bin_*`` counters.

    Registered as both ``"batched"`` and ``"wholebin"``; the
    ``fastz.extend`` span reports the name the caller chose.
    """
    n_anchors = len(suffixes) // 2
    with obs.span(
        "fastz.extend", engine=options.engine, anchors=n_anchors
    ) as sp:
        with obs.span("fastz.inspector", tasks=len(suffixes)) as insp_sp:
            before = _sweep_snapshot()
            insp = batch_wavefront_extend(
                suffixes,
                scheme,
                eager_tile=tile,
                batch_size=options.batch_size,
                arena=thread_arena("inspector"),
                score_dtype=options.score_dtype_override,
            )
            _record_sweeps(insp_sp, before)
        insp_r = insp[0::2]
        insp_l = insp[1::2]

        eager = np.fromiter(
            (insp_l[k].eager_hit and insp_r[k].eager_hit for k in range(n_anchors)),
            dtype=bool,
            count=n_anchors,
        )
        pending = np.flatnonzero(~eager)
        n_eager = int(eager.sum())
        sp.set(eager=n_eager, executor_anchors=int(pending.shape[0]))
        obs.counter(
            "repro_pipeline_anchors_total", "Anchors extended by the pipeline."
        ).inc(n_anchors)
        obs.counter(
            "repro_pipeline_eager_total",
            "Anchors fully resolved by the inspector's eager tile.",
        ).inc(n_eager)

        # --- bin-aware executor batch composition (§3.3) --------------------
        # Extent is known after the inspector; group executor jobs per bin so
        # a lockstep block never mixes short and long alignments.
        finals: dict[tuple[int, int], WavefrontResult] = {}
        if pending.shape[0]:
            extents = np.fromiter(
                (
                    max(
                        insp_l[k].end_i + insp_r[k].end_i,
                        insp_l[k].end_j + insp_r[k].end_j,
                    )
                    for k in pending
                ),
                dtype=np.int64,
                count=pending.shape[0],
            )
            if options.binning:
                bins = assign_bins(
                    extents,
                    np.zeros(pending.shape[0], dtype=bool),
                    options.bin_edges,
                )
            else:
                bins = np.zeros(pending.shape[0], dtype=np.int64)
            for bin_id in np.unique(bins):
                jobs: list[tuple[int, int]] = []  # (anchor, side: 0=right 1=left)
                job_pairs: list[tuple[np.ndarray, np.ndarray]] = []
                job_extents: list[int] = []
                for k in pending[bins == bin_id]:
                    for side in (0, 1):
                        ins = (insp_r, insp_l)[side][k]
                        t_suffix, q_suffix = suffixes[2 * k + side]
                        if options.executor_trimming:
                            t_suffix = t_suffix[: ins.end_i]
                            q_suffix = q_suffix[: ins.end_j]
                        jobs.append((int(k), side))
                        job_pairs.append((t_suffix, q_suffix))
                        job_extents.append(ins.end_i + ins.end_j)
                # Order the bin's jobs by the inspector-measured extent (not
                # raw suffix length) so each lockstep block packs tasks of
                # similar true depth — with trimming off, suffix lengths say
                # nothing about how far the y-drop wavefront actually
                # reaches.  Results are keyed by (anchor, side), so ordering
                # never changes output.
                by_extent = sorted(range(len(jobs)), key=job_extents.__getitem__)
                jobs = [jobs[i] for i in by_extent]
                job_pairs = [job_pairs[i] for i in by_extent]
                with obs.span(
                    "fastz.executor", bin=int(bin_id), tasks=len(job_pairs)
                ) as ex_sp:
                    before = _sweep_snapshot()
                    ran = batch_wavefront_extend(
                        job_pairs,
                        scheme,
                        traceback=True,
                        batch_size=options.batch_size,
                        arena=thread_arena(f"executor:{int(bin_id)}"),
                        score_dtype=options.score_dtype_override,
                        presorted=True,
                    )
                    _record_bin_sweeps(ex_sp, int(bin_id), before)
                obs.counter(
                    "repro_pipeline_executor_tasks_total",
                    "Executor extension tasks dispatched, by length bin.",
                ).labels(bin=int(bin_id)).inc(len(job_pairs))
                for (k, side), result in zip(jobs, ran):
                    finals[(k, side)] = result

        out: list[_AnchorExtension] = []
        for k in range(n_anchors):
            if eager[k]:
                out.append((insp_l[k], insp_r[k], insp_l[k], insp_r[k], 0))
                continue
            fb = 0
            sides: list[WavefrontResult] = []
            for side in (0, 1):
                ins = (insp_r, insp_l)[side][k]
                result = finals[(k, side)]
                if options.executor_trimming and (
                    result.score,
                    result.end_i,
                    result.end_j,
                ) != (ins.score, ins.end_i, ins.end_j):
                    # Trimmed rerun disagreed with the inspector: exact
                    # fallback, exactly as the scalar executor does.
                    t_suffix, q_suffix = suffixes[2 * k + side]
                    result = wavefront_extend(
                        t_suffix[: ins.end_i],
                        q_suffix[: ins.end_j],
                        scheme,
                        traceback=True,
                        prune=False,
                    )
                    fb += 1
                sides.append(result)
            if fb:
                obs.counter(
                    "repro_pipeline_executor_fallbacks_total",
                    "Trimmed executor reruns that disagreed with the inspector.",
                ).inc(fb)
            out.append((insp_l[k], insp_r[k], sides[1], sides[0], fb))
        return out


def extend_suffixes_shard(
    suffixes: list[tuple[np.ndarray, np.ndarray]],
    scheme: ScoringScheme,
    options: FastzOptions,
    tile: int,
) -> list[_AnchorExtension]:
    """Engine-dispatching extension of one suffix shard (picklable entry).

    Module-level so pool workers can receive it by reference: one shard
    of a fused batch runs the configured engine — resolved through the
    :mod:`repro.align.engines` registry — exactly as the in-process path
    would, and because every extension task is independent the per-anchor
    records are bit-identical however the batch was sharded.
    """
    return get_engine(options.engine)(suffixes, scheme, options, tile)


@dataclass
class PreparedRequest:
    """One alignment request after anchor selection, ready for extension.

    The per-request half of the pipeline that is independent of every other
    request: sequence codes, the sorted anchor set and the extension
    parameters.  ``run_fastz`` builds one, extends it and finishes it in a
    single call; the alignment service prepares many requests, fuses their
    :meth:`suffixes` into shared lockstep batches, and finishes each with
    :func:`finish_fastz` — with results bit-identical to per-request runs.
    """

    t_codes: np.ndarray
    q_codes: np.ndarray
    scheme: ScoringScheme
    options: FastzOptions
    anchors: Anchors
    tile: int
    t_pos: list[int]
    q_pos: list[int]

    @property
    def n_anchors(self) -> int:
        return len(self.t_pos)

    def suffixes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Interleaved right/left extension problems of every anchor."""
        return _anchor_suffixes(self.t_codes, self.q_codes, self.t_pos, self.q_pos)

    def sliced(self, lo: int, hi: int) -> "PreparedRequest":
        """The same request restricted to anchors ``lo:hi``."""
        return replace(
            self,
            anchors=self.anchors.take(slice(lo, hi)),
            t_pos=self.t_pos[lo:hi],
            q_pos=self.q_pos[lo:hi],
        )


@dataclass(frozen=True)
class ExtensionSpec:
    """One fused extension batch: code sources plus one row per anchor.

    The form a batch travels in from the service dispatcher to a fleet
    lane and on to pool workers.  ``codes`` holds each distinct sequence
    once; ``digests`` keys the ones a pool may publish to shared memory
    instead of pickling them (store digests, or ``run_fastz``'s per-call
    keys; ``None`` ships the codes inline) in
    :meth:`~repro.core.pool.WorkerPool.extend_spec`.  Row
    ``(ti, qi, t, q)`` is one anchor at ``t`` in ``codes[ti]`` and ``q``
    in ``codes[qi]``.  Every lane feeds the engine :meth:`suffixes`, so
    records are bit-identical wherever the batch runs.
    """

    codes: tuple
    rows: tuple
    digests: tuple = ()

    @classmethod
    def fuse(cls, parts) -> "ExtensionSpec":
        """One spec from ``(prepared, target_digest, query_digest)`` parts.

        Anchors keep part order.  A sequence shared by several anchors or
        requests (same digest, or the same array) becomes one source.
        """
        codes: list = []
        digests: list = []
        index: dict = {}
        rows: list = []

        def source(array, digest) -> int:
            key = digest if digest is not None else id(array)
            if key not in index:
                index[key] = len(codes)
                codes.append(array)
                digests.append(digest)
            return index[key]

        for prep, t_digest, q_digest in parts:
            ti = source(prep.t_codes, t_digest)
            qi = source(prep.q_codes, q_digest)
            rows.extend((ti, qi, t, q) for t, q in zip(prep.t_pos, prep.q_pos))
        return cls(tuple(codes), tuple(rows), tuple(digests))

    def suffixes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Interleaved right/left extension problems, anchor ``k`` at ``2k``."""
        suffixes: list[tuple[np.ndarray, np.ndarray]] = []
        for ti, qi, t, q in self.rows:
            suffixes += _anchor_suffixes(self.codes[ti], self.codes[qi], (t,), (q,))
        return suffixes


def prepare_fastz(
    target: Sequence | np.ndarray,
    query: Sequence | np.ndarray,
    config: LastzConfig | None = None,
    options: FastzOptions = FASTZ_FULL,
    *,
    anchors: Anchors | None = None,
    seed_table=None,
) -> PreparedRequest:
    """Stage a request: encode, select anchors, sort, fix the eager tile.

    ``seed_table`` is an optional prebuilt target-side
    :class:`~repro.seeding.SeedTable` (the reference store's persistent
    cache); it skips the table-build half of seeding, bit-identically.
    Ignored when ``anchors`` are given.
    """
    config = config or LastzConfig()
    with obs.span("fastz.prepare") as sp:
        t_codes = np.asarray(target.codes if isinstance(target, Sequence) else target)
        q_codes = np.asarray(query.codes if isinstance(query, Sequence) else query)

        if anchors is None:
            with obs.span(
                "fastz.seeding", target_bp=len(t_codes), query_bp=len(q_codes)
            ):
                anchors = select_anchors(
                    t_codes, q_codes, config, target_table=seed_table
                )
        order = np.lexsort((anchors.target_pos, anchors.query_pos))
        anchors = anchors.take(order)
        sp.set(anchors=len(anchors.target_pos))

    return PreparedRequest(
        t_codes=t_codes,
        q_codes=q_codes,
        scheme=config.scheme,
        options=options,
        anchors=anchors,
        tile=options.eager_tile if options.eager_traceback else 0,
        t_pos=anchors.target_pos.tolist(),
        q_pos=anchors.query_pos.tolist(),
    )


def finish_fastz(
    prepared: PreparedRequest,
    per_anchor: list[_AnchorExtension],
    *,
    keep_extensions: bool = False,
) -> FastzResult:
    """Fold per-anchor extension records into a :class:`FastzResult`."""
    with obs.span("fastz.finish", anchors=prepared.n_anchors) as sp:
        result = _finish_fastz_impl(prepared, per_anchor, keep_extensions)
        sp.set(
            alignments=len(result.alignments),
            eager=result.eager_count,
            fallbacks=result.executor_fallbacks,
        )
        return result


def _finish_fastz_impl(
    prepared: PreparedRequest,
    per_anchor: list[_AnchorExtension],
    keep_extensions: bool,
) -> FastzResult:
    scheme = prepared.scheme
    options = prepared.options
    alignments: list[Alignment] = []
    tasks: list[FastzTask] = []
    extensions: list = []
    fallbacks = 0

    for (t, q), (insp_l, insp_r, final_l, final_r, fb) in zip(
        zip(prepared.t_pos, prepared.q_pos), per_anchor
    ):
        eager = insp_l.eager_hit and insp_r.eager_hit
        score = insp_l.score + insp_r.score
        fallbacks += fb
        if eager:
            exec_l = exec_r = None
        else:
            exec_l, exec_r = final_l.stats, final_r.stats

        cols_l = sum(n for _, n in (final_l.ops or ()))
        cols_r = sum(n for _, n in (final_r.ops or ()))
        bin_id = assign_bin(
            max(
                final_l.end_i + final_r.end_i,
                final_l.end_j + final_r.end_j,
            ),
            eager,
            options.bin_edges,
        )
        tasks.append(
            FastzTask(
                anchor_t=t,
                anchor_q=q,
                score=score,
                insp_left=insp_l.stats,
                insp_right=insp_r.stats,
                left_end=(insp_l.end_i, insp_l.end_j),
                right_end=(insp_r.end_i, insp_r.end_j),
                eager=eager,
                exec_left=exec_l,
                exec_right=exec_r,
                cols_left=cols_l,
                cols_right=cols_r,
                bin_id=bin_id,
            )
        )

        if score >= scheme.gapped_threshold:
            alignments.append(combine_alignment(t, q, final_l, final_r, score))
        if keep_extensions:
            extensions.append((final_l, final_r))

    return FastzResult(
        alignments=alignments,
        tasks=tasks,
        anchors=prepared.anchors,
        options=options,
        executor_fallbacks=fallbacks,
        extensions=extensions,
    )


class StreamAborted(RuntimeError):
    """A streamed run was cancelled mid-flight (``should_abort`` fired)."""


@dataclass(frozen=True)
class StreamPartial:
    """Progress record for one extended slice of a streamed run."""

    #: 0-based slice sequence number.
    seq: int
    #: Anchors extended in this slice.
    n_anchors: int
    #: Cumulative anchors extended so far (this slice included).
    done_anchors: int
    #: Threshold-clearing alignments of this slice, in anchor order;
    #: concatenated over all partials they are the final result's
    #: alignments.
    alignments: list[Alignment]
    #: Anchors of this slice fully resolved by the inspector's eager tile.
    eager: int
    #: Seconds since the run started.
    wall_s: float


def run_fastz(
    target: Sequence | np.ndarray,
    query: Sequence | np.ndarray,
    config: LastzConfig | None = None,
    options: FastzOptions = FASTZ_FULL,
    *,
    anchors: Anchors | None = None,
    keep_extensions: bool = False,
    workers: int | None = None,
    seed_table=None,
    on_partial: Callable[[StreamPartial], None] | None = None,
    should_abort: Callable[[], bool] | None = None,
) -> FastzResult:
    """Run the FastZ pipeline over all anchors (no sequential skipping).

    ``options`` controls the *functional* behaviour: disabling eager
    traceback sends every task to the executor; disabling trimming makes
    the executor recompute the full search space (as the ablation variants
    of Figure 9 do).  The performance model can also replay a full-FastZ
    profile under any variant without re-running this pipeline.

    ``options.engine`` selects the host DP engine (``"scalar"`` loop or
    ``"batched"`` lockstep batches); ``workers`` > 1 additionally deals
    the anchors into LPT-balanced shards across a
    :class:`~repro.core.pool.WorkerPool` of up to ``workers`` processes,
    opened for this call and handed the pair once, in shared memory — a
    worker that dies has its shard re-dispatched, and a shard's exception
    is re-raised as the in-process engine would raise it.  Both knobs
    change only wall-clock, never results.

    ``on_partial`` streams the run: the sorted anchors are extended in
    order, in slices of ``max(1, options.batch_size // 2)`` anchors (one
    lockstep block of left and right suffix rows), and ``on_partial``
    receives a :class:`StreamPartial` after each slice.  Without it the
    whole anchor set is one slice.  ``should_abort`` is polled before
    each slice and raises :class:`StreamAborted` when it returns True
    (the HTTP layer's graceful drain hooks in here).  Slicing changes
    only when results arrive, never what they are.
    """
    with obs.span("fastz.run", engine=options.engine) as sp:
        t0 = time.perf_counter()
        prepared = prepare_fastz(
            target, query, config, options, anchors=anchors, seed_table=seed_table
        )
        scheme, tile = prepared.scheme, prepared.tile
        n_anchors = prepared.n_anchors
        if on_partial is not None:
            step = max(1, options.batch_size // 2)
        else:
            step = max(1, n_anchors)

        pool = None
        if workers and workers > 1 and n_anchors > 1:
            from .pool import WorkerPool

            pool = WorkerPool(min(int(workers), n_anchors))
            # Source keys for this call's pool: it publishes the pair to
            # shared memory once, and every slice ships handles and rows.
            keys = [f"run:{id(c)}" for c in (prepared.t_codes, prepared.q_codes)]
        per_anchor: list[_AnchorExtension] = []
        try:
            for lo in range(0, n_anchors, step):
                if should_abort is not None and should_abort():
                    raise StreamAborted("streamed run aborted")
                part = prepared.sliced(lo, lo + step)
                if pool is not None:
                    records = pool.extend_spec(
                        ExtensionSpec.fuse([(part, *keys)]), scheme, options, tile
                    )
                else:
                    records = extend_suffixes_shard(
                        part.suffixes(), scheme, options, tile
                    )
                per_anchor += records
                if on_partial is not None:
                    folded = finish_fastz(part, records)
                    on_partial(
                        StreamPartial(
                            seq=lo // step,
                            n_anchors=part.n_anchors,
                            done_anchors=len(per_anchor),
                            alignments=folded.alignments,
                            eager=folded.eager_count,
                            wall_s=round(time.perf_counter() - t0, 4),
                        )
                    )
        finally:
            if pool is not None:
                pool.close()

        result = finish_fastz(prepared, per_anchor, keep_extensions=keep_extensions)
        sp.set(
            anchors=n_anchors,
            alignments=len(result.alignments),
            eager_fraction=result.eager_fraction,
        )
        return result

