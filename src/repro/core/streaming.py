"""Streaming seed→extend dataflow: the barrier pipeline, without barriers.

:func:`repro.core.pipeline.run_fastz` runs seed → filter → extend as full
stage barriers: nothing extends until every seed is found and thinned.
This module overlaps the stages with a bounded-queue producer/consumer
while keeping the final :class:`~repro.core.pipeline.FastzResult`
**bit-identical** to the barrier run.  Three facts make that possible:

1. **Role swap.**  Exact-match seeding is symmetric: instead of streaming
   query words through a target-side table, the producer builds a
   *query-side* table once and streams **target chunks** through it in
   ascending target order.  Censoring stays global — the censor set is
   the target words occurring more than ``max_word_count`` times, derived
   from a cached target :class:`~repro.seeding.SeedTable` when one is
   available (:func:`~repro.seeding.censored_from_table`) or counted
   directly — so the seed *set* is exactly the barrier pipeline's.

2. **Diagonal frontier.**  Diagonal thinning scans seeds in (diagonal,
   query-pos) order and every keep/drop decision depends only on seeds
   earlier in that order.  After seeding target positions ``< c``, every
   undiscovered seed has diagonal ``>= c - (len(query) - span)``, so all
   buffered seeds below that frontier can be decided *finally*
   (:class:`~repro.seeding.IncrementalCollapser`) and emitted as an
   anchor group while later chunks are still seeding.

3. **Order-free extension.**  Each anchor's extension record is a pure
   function of its two suffix pairs, so the consumer may extend anchor
   groups in arrival order (coalesced into bin-aware lockstep batches via
   the unchanged arena engine) and the fold simply re-sorts the per-anchor
   records into the barrier pipeline's global (query-pos, target-pos)
   anchor order before handing them to
   :func:`~repro.core.pipeline.finish_fastz`.

The queue between the stages is bounded (``queue_depth`` groups): a slow
consumer backpressures the producer instead of buffering the whole seed
stream.  ``on_partial`` surfaces each extension batch as it completes —
the service's NDJSON streaming and ``repro align --stream`` hang off it.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import obs
from ..align.alignment import Alignment
from ..align.extend import combine_alignment
from ..genome.sequence import Sequence
from ..lastz.config import LastzConfig
from ..seeding import (
    Anchors,
    IncrementalCollapser,
    SeedTable,
    build_seed_table,
    censored_from_table,
    overrepresented_words,
    pack_words,
)
from .options import FASTZ_FULL, FastzOptions
from .pipeline import (
    ExtensionSpec,
    FastzResult,
    PreparedRequest,
    extend_suffixes_shard,
    finish_fastz,
)
from .pool import WorkerPool

__all__ = [
    "DEFAULT_CHUNK_BP",
    "StreamAborted",
    "StreamPartial",
    "run_fastz_streaming",
]

#: Default producer seeding-chunk size in target bases.
DEFAULT_CHUNK_BP = 1 << 15
#: Default bound of the anchor-group queue between producer and consumer.
DEFAULT_QUEUE_DEPTH = 4
#: Default cap on anchors coalesced into one consumer extension batch.
DEFAULT_MAX_BATCH_ANCHORS = 1024


class StreamAborted(RuntimeError):
    """A streaming run was cancelled mid-flight (``should_abort`` fired)."""


@dataclass(frozen=True)
class StreamPartial:
    """Progress record for one completed consumer extension batch."""

    #: 0-based batch sequence number.
    seq: int
    #: Anchors extended in this batch.
    n_anchors: int
    #: Cumulative anchors extended so far (this batch included).
    done_anchors: int
    #: Threshold-clearing alignments discovered by this batch, in batch
    #: anchor order.  The union over all partials equals the final
    #: result's alignments as a set; the final fold re-sorts them into
    #: the barrier pipeline's global anchor order.
    alignments: list[Alignment]
    #: Anchors of this batch fully resolved by the inspector's eager tile.
    eager: int
    #: Seconds since the streaming run started.
    wall_s: float


def _put_cancellable(out, item, cancel: threading.Event) -> bool:
    """Bounded put that gives up when the consumer cancelled the run."""
    while not cancel.is_set():
        try:
            out.put(item, timeout=0.05)
            return True
        except queue.Full:
            continue
    return False


def _produce(
    t_codes: np.ndarray,
    q_codes: np.ndarray,
    config: LastzConfig,
    seed_table: SeedTable | None,
    target_mask: np.ndarray | None,
    query_mask: np.ndarray | None,
    chunk_bp: int,
    out: "queue.Queue",
    cancel: threading.Event,
    parent_span,
    t0: float,
) -> None:
    """Producer thread: chunked seeding + frontier collapse → anchor groups."""
    depth_gauge = obs.gauge(
        "repro_stream_queue_depth",
        "Anchor groups buffered between the streaming seeder and extender.",
    )
    try:
        with obs.span_under(parent_span, "fastz.stream.seed") as sp:
            sp.set(start_s=round(time.perf_counter() - t0, 4))
            # Query-side word table (the role swap) + global censor set.
            q_table = build_seed_table(
                q_codes,
                k=config.seed_length,
                spaced_pattern=config.spaced_pattern,
                mask=query_mask,
            )
            if seed_table is not None:
                censored = censored_from_table(
                    seed_table, max_word_count=config.max_word_count
                )
            else:
                censored = overrepresented_words(
                    t_codes,
                    k=config.seed_length,
                    spaced_pattern=config.spaced_pattern,
                    max_word_count=config.max_word_count,
                    mask=target_mask,
                )
            span_bp = q_table.span
            collapser = IncrementalCollapser(
                window=config.collapse_window,
                diag_band=config.diag_band,
                span=span_bp,
            )
            t_len = int(t_codes.shape[0])
            q_len = int(q_codes.shape[0])
            groups = 0
            chunks = 0

            def emit(anchors: Anchors) -> bool:
                nonlocal groups
                if len(anchors) == 0:
                    return True
                ok = _put_cancellable(
                    out,
                    ("group", anchors.target_pos, anchors.query_pos),
                    cancel,
                )
                if ok:
                    groups += 1
                    depth_gauge.set(out.qsize())
                    obs.counter(
                        "repro_stream_groups_total",
                        "Anchor groups emitted by the streaming seeder.",
                    ).inc()
                return ok

            # Word starts live in [0, t_len - span]; chunk that range in
            # ascending target order so the diagonal frontier advances.
            n_words = t_len - span_bp + 1
            if n_words > 0 and len(q_table) > 0:
                for c0 in range(0, n_words, chunk_bp):
                    if cancel.is_set():
                        return
                    c1 = min(c0 + chunk_bp, n_words)
                    with obs.span_under(
                        parent_span, "fastz.stream.seed_chunk", t_lo=c0, t_hi=c1
                    ) as csp:
                        csp.set(start_s=round(time.perf_counter() - t0, 4))
                        window = slice(c0, c1 + span_bp - 1)
                        words, valid, _ = pack_words(
                            t_codes[window],
                            k=config.seed_length,
                            spaced_pattern=config.spaced_pattern,
                            mask=None if target_mask is None else target_mask[window],
                        )
                        off = np.flatnonzero(valid)
                        w = words[off]
                        if censored.size and w.size:
                            keep = ~np.isin(w, censored)
                            w, off = w[keep], off[keep]
                        n_seeds = 0
                        if w.size:
                            left = np.searchsorted(q_table.words, w, side="left")
                            right = np.searchsorted(q_table.words, w, side="right")
                            counts = right - left
                            hit = counts > 0
                            if hit.any():
                                left = left[hit]
                                counts = counts[hit]
                                t_hit = (c0 + off[hit]).astype(np.int64)
                                n_seeds = int(counts.sum())
                                t_rep = np.repeat(t_hit, counts)
                                starts = np.repeat(left, counts)
                                within = np.arange(n_seeds) - np.repeat(
                                    np.cumsum(counts) - counts, counts
                                )
                                q_rep = q_table.positions[starts + within]
                                collapser.add(t_rep, q_rep)
                        # Every future seed starts at target >= c1 with
                        # query <= q_len - span, so its diagonal is at
                        # least c1 - (q_len - span): seeds below that
                        # frontier are decided finally, mid-stream.
                        anchors = collapser.drain(c1 - (q_len - span_bp))
                        csp.set(
                            seeds=n_seeds,
                            anchors=len(anchors),
                            end_s=round(time.perf_counter() - t0, 4),
                        )
                    chunks += 1
                    obs.counter(
                        "repro_stream_chunks_total",
                        "Seeding chunks processed by the streaming producer.",
                    ).inc()
                    if not emit(anchors):
                        return
            if not emit(collapser.drain(None)):
                return
            sp.set(
                chunks=chunks,
                groups=groups,
                end_s=round(time.perf_counter() - t0, 4),
            )
        _put_cancellable(out, ("done",), cancel)
    except BaseException as exc:  # propagate to the consumer, don't die silent
        _put_cancellable(out, ("error", exc), cancel)


def run_fastz_streaming(
    target: Sequence | np.ndarray,
    query: Sequence | np.ndarray,
    config: LastzConfig | None = None,
    options: FastzOptions = FASTZ_FULL,
    *,
    anchors: Anchors | None = None,
    keep_extensions: bool = False,
    workers: int | None = None,
    seed_table: SeedTable | None = None,
    target_mask: np.ndarray | None = None,
    query_mask: np.ndarray | None = None,
    chunk_bp: int = DEFAULT_CHUNK_BP,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    max_batch_anchors: int = DEFAULT_MAX_BATCH_ANCHORS,
    on_partial: Callable[[StreamPartial], None] | None = None,
    should_abort: Callable[[], bool] | None = None,
) -> FastzResult:
    """Run the FastZ pipeline with seeding/extension overlap.

    Bit-identical to :func:`~repro.core.pipeline.run_fastz` with the same
    arguments — the streaming knobs (``chunk_bp``, ``queue_depth``,
    ``max_batch_anchors``) change wall-clock and progress granularity,
    never results.  ``on_partial`` is called on the consumer thread after
    each extension batch; ``should_abort`` is polled between batches and
    raises :class:`StreamAborted` when it returns True (the HTTP layer's
    graceful drain hooks in here).  ``target_mask``/``query_mask`` mirror
    the soft-masking a cached ``seed_table`` bakes in on the barrier path.
    """
    config = config or LastzConfig()
    if chunk_bp <= 0:
        raise ValueError("chunk_bp must be positive")
    if queue_depth <= 0:
        raise ValueError("queue_depth must be positive")
    if max_batch_anchors <= 0:
        raise ValueError("max_batch_anchors must be positive")

    with obs.span("fastz.run", engine=options.engine, streaming=1) as root:
        t0 = time.perf_counter()
        t_codes = np.asarray(target.codes if isinstance(target, Sequence) else target)
        q_codes = np.asarray(query.codes if isinstance(query, Sequence) else query)
        scheme = config.scheme
        tile = options.eager_tile if options.eager_traceback else 0

        out: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        cancel = threading.Event()
        producer: threading.Thread | None = None
        # Fork the pool's workers before the producer thread exists.
        pool = WorkerPool(int(workers)) if workers and workers > 1 else None
        depth_gauge = obs.gauge(
            "repro_stream_queue_depth",
            "Anchor groups buffered between the streaming seeder and extender.",
        )
        try:
            if anchors is None:
                producer = threading.Thread(
                    target=_produce,
                    args=(
                        t_codes,
                        q_codes,
                        config,
                        seed_table,
                        target_mask,
                        query_mask,
                        chunk_bp,
                        out,
                        cancel,
                        root,
                        t0,
                    ),
                    name="fastz-stream-seed",
                    daemon=True,
                )
                producer.start()
            else:
                # Pre-selected anchors: one group, same consumer/fold path.
                out.put(
                    (
                        "group",
                        np.asarray(anchors.target_pos, dtype=np.int64),
                        np.asarray(anchors.query_pos, dtype=np.int64),
                    )
                )
                out.put(("done",))

            all_t: list[np.ndarray] = []
            all_q: list[np.ndarray] = []
            records: list = []
            seq = 0
            done = False
            while not done:
                while True:
                    if should_abort is not None and should_abort():
                        raise StreamAborted("streaming run aborted")
                    try:
                        item = out.get(timeout=0.1)
                        break
                    except queue.Empty:
                        continue
                depth_gauge.set(out.qsize())
                if item[0] == "error":
                    raise item[1]
                if item[0] == "done":
                    break
                batch_t = [item[1]]
                batch_q = [item[2]]
                n_batch = int(item[1].shape[0])
                # Coalesce queued groups into one bin-aware lockstep batch
                # (occupancy), without ever waiting on the producer.
                while n_batch < max_batch_anchors:
                    try:
                        nxt = out.get_nowait()
                    except queue.Empty:
                        break
                    depth_gauge.set(out.qsize())
                    if nxt[0] == "error":
                        raise nxt[1]
                    if nxt[0] == "done":
                        done = True
                        break
                    batch_t.append(nxt[1])
                    batch_q.append(nxt[2])
                    n_batch += int(nxt[1].shape[0])

                t_pos = np.concatenate(batch_t)
                q_pos = np.concatenate(batch_q)
                with obs.span(
                    "fastz.stream.extend",
                    seq=seq,
                    anchors=int(t_pos.shape[0]),
                    groups=len(batch_t),
                ) as esp:
                    esp.set(start_s=round(time.perf_counter() - t0, 4))
                    spec = ExtensionSpec(
                        (t_codes, q_codes),
                        tuple(
                            (0, 1, t, q)
                            for t, q in zip(t_pos.tolist(), q_pos.tolist())
                        ),
                    )
                    if pool is not None and t_pos.shape[0] > 1:
                        per_batch = pool.extend_spec(
                            [("inline", t_codes), ("inline", q_codes)],
                            spec.rows, scheme, options, tile, key="stream",
                        )
                    else:
                        per_batch = extend_suffixes_shard(
                            spec.suffixes(), scheme, options, tile
                        )
                    esp.set(end_s=round(time.perf_counter() - t0, 4))

                all_t.append(t_pos)
                all_q.append(q_pos)
                records.extend(per_batch)
                obs.counter(
                    "repro_stream_batches_total",
                    "Extension batches completed by the streaming consumer.",
                ).inc()
                if on_partial is not None:
                    alignments = []
                    eager = 0
                    for (t, q), (insp_l, insp_r, final_l, final_r, _fb) in zip(
                        zip(t_pos.tolist(), q_pos.tolist()), per_batch
                    ):
                        if insp_l.eager_hit and insp_r.eager_hit:
                            eager += 1
                        score = insp_l.score + insp_r.score
                        if score >= scheme.gapped_threshold:
                            alignments.append(
                                combine_alignment(t, q, final_l, final_r, score)
                            )
                    on_partial(
                        StreamPartial(
                            seq=seq,
                            n_anchors=int(t_pos.shape[0]),
                            done_anchors=len(records),
                            alignments=alignments,
                            eager=eager,
                            wall_s=round(time.perf_counter() - t0, 4),
                        )
                    )
                seq += 1
        finally:
            cancel.set()
            if producer is not None:
                producer.join(timeout=30.0)
            if pool is not None:
                pool.close()
            depth_gauge.set(0)

        # --- ordered fold: re-sort per-anchor records into the barrier
        # pipeline's global (query-pos, target-pos) anchor order ----------
        if records:
            t_arr = np.concatenate(all_t)
            q_arr = np.concatenate(all_q)
        else:
            t_arr = np.zeros(0, dtype=np.int64)
            q_arr = np.zeros(0, dtype=np.int64)
        order = np.lexsort((t_arr, q_arr))
        anchors_sorted = Anchors(t_arr[order], q_arr[order])
        per_anchor = [records[i] for i in order]
        prepared = PreparedRequest(
            t_codes=t_codes,
            q_codes=q_codes,
            scheme=scheme,
            options=options,
            anchors=anchors_sorted,
            tile=tile,
            t_pos=anchors_sorted.target_pos.tolist(),
            q_pos=anchors_sorted.query_pos.tolist(),
        )
        result = finish_fastz(prepared, per_anchor, keep_extensions=keep_extensions)
        root.set(
            anchors=prepared.n_anchors,
            alignments=len(result.alignments),
            eager_fraction=result.eager_fraction,
            batches=seq,
        )
        return result
