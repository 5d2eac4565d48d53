"""The fleet scheduler: named device queues under one placement policy.

KegAlign's MIG runner and SaLoBa's load-balance argument meet here: the
pipeline's kernel-sized unit of work — one fused extension batch, an
:class:`~repro.core.pipeline.ExtensionSpec` — is routed across a
heterogeneous set of :class:`~repro.fleet.backends.FleetBackend`\\ s
(in-process engine, multiprocess pool, N simulated GPUs), each behind
its own **named queue** served by one worker thread, with full
completion tracking.  Three policies, one scheduler:

* **placement** — least-loaded-first: a new unit goes to the open lane
  minimising ``backlog_seconds + estimate_seconds(unit)``, where both
  terms come from the :mod:`repro.core.perfmodel` closed-form cost
  estimate evaluated at that backend's modelled rate.  A fast device
  with a deep queue loses to an idle slow one exactly when the model
  says it should.
* **priority** — each lane's queue is priority-ordered: ``interactive``
  units (0) overtake ``batch`` units (1); FIFO within a class.
* **hedging** — a monitor thread watches running units; one that has
  been in flight longer than ``max(hedge_after_s, HEDGE_COST_FACTOR x
  modelled cost)`` while another lane sits idle is *re-dispatched* onto
  the idle lane.  First completion wins the future; the loser's result
  is discarded (and a slow backend's injected sleep bails out early via
  the unit's cancel event).

Failure handling completes the story: a backend that raises
:class:`~repro.fleet.backends.BackendUnavailable` (killed mid-batch,
pool unrecoverable) is **retired** — its queue drains by re-dispatching
every unit to the surviving lanes — so requests complete as long as any
backend lives.  ``repro_fleet_redispatched_total`` counts both hedges
and failure re-dispatches; it is the counter the acceptance gate reads
off ``/v1/metrics``.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..core.perfmodel import extension_weight
from ..obs.metrics import MetricsRegistry
from .backends import BackendUnavailable, FleetBackend, release_backend_thread_state

__all__ = [
    "FleetError",
    "FleetScheduler",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_NAMES",
]

#: Priority classes: lower dispatches first.  Interactive beats batch.
PRIORITY_INTERACTIVE = 0
PRIORITY_BATCH = 1

#: Wire names of the priority classes (the ``X-Priority`` header values).
PRIORITY_NAMES = {"interactive": PRIORITY_INTERACTIVE, "batch": PRIORITY_BATCH}

#: Queue priority that sorts after every real unit: shutdown sentinels
#: drain the lane before stopping its worker.
_SENTINEL_PRIORITY = 1 << 30

#: A running unit is a straggler after ``max(hedge_after_s,
#: HEDGE_COST_FACTOR x its modelled seconds)``.
HEDGE_COST_FACTOR = 4.0

#: Dispatches of one unit (first + re-dispatches + hedges) before it
#: fails with :class:`FleetError`.
MAX_ATTEMPTS = 4


class FleetError(RuntimeError):
    """The fleet cannot execute this unit (no live backend took it)."""


@dataclass
class _Unit:
    """One schedulable batch with its resolution future and bookkeeping."""

    seq: int
    spec: object
    scheme: object
    options: object
    tile: int
    weight: float
    priority: int
    future: Future = field(default_factory=Future)
    #: Set the moment the future resolves; slow backends poll it.
    cancelled: threading.Event = field(default_factory=threading.Event)
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Dispatches so far (first placement + every re-dispatch + hedges).
    attempts: int = 0
    hedged: bool = False

    def resolve(self, records=None, exc: BaseException | None = None) -> bool:
        """First terminal event wins; returns False for losers."""
        with self.lock:
            if self.future.done():
                return False
            if exc is not None:
                self.future.set_exception(exc)
            else:
                self.future.set_result(records)
            self.cancelled.set()
            return True


class _Lane:
    """One backend plus its named queue, worker thread and load accounting."""

    def __init__(self, backend: FleetBackend) -> None:
        self.backend = backend
        self.queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self.lock = threading.Lock()
        self.open = True
        self.queued_weight = 0.0
        self.inflight_weight = 0.0
        self.inflight = 0
        #: unit.seq -> (unit, monotonic start) for the hedge monitor.
        self.running: dict[int, tuple[_Unit, float]] = {}
        self.completed = 0
        self.failed = 0
        self.thread: threading.Thread | None = None

    @property
    def name(self) -> str:
        return self.backend.name

    def backlog_seconds(self) -> float:
        """Modelled seconds of work queued + running on this lane."""
        with self.lock:
            weight = self.queued_weight + self.inflight_weight
        return self.backend.estimate_seconds(weight)

    def queued(self) -> int:
        return self.queue.qsize()

    def is_idle(self) -> bool:
        with self.lock:
            busy = self.inflight
        return self.open and busy == 0 and self.queue.empty()

    def describe(self) -> dict:
        with self.lock:
            out = {
                "queued": self.queue.qsize(),
                "inflight": self.inflight,
                "completed": self.completed,
                "failed": self.failed,
                "backlog_seconds": round(
                    self.backend.estimate_seconds(
                        self.queued_weight + self.inflight_weight
                    ),
                    6,
                ),
                "open": self.open,
            }
        out.update(self.backend.describe())
        return out


class FleetScheduler:
    """Route fused extension batches across named backend queues.

    Parameters
    ----------
    backends:
        The fleet, in declaration order (order only breaks placement
        ties).  Names must be unique; the scheduler owns their lifecycle
        and closes them on :meth:`close`.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` fleet counters
        land in — pass the service recorder's registry and they surface
        on ``GET /v1/metrics`` for free.
    hedge_after_s:
        A running unit becomes a straggler once it has been in flight
        for ``max(hedge_after_s, HEDGE_COST_FACTOR x modelled seconds)``;
        stragglers are cloned onto an idle lane.  ``None`` disables
        hedging.  A unit fails with :class:`FleetError` after
        ``MAX_ATTEMPTS`` dispatches (first + re-dispatches + hedges).
    """

    def __init__(
        self,
        backends: list[FleetBackend],
        *,
        registry: MetricsRegistry | None = None,
        hedge_after_s: float | None = 0.5,
        poll_s: float = 0.05,
    ) -> None:
        if not backends:
            raise ValueError("a fleet needs at least one backend")
        names = [b.name for b in backends]
        if len(set(names)) != len(names):
            raise ValueError(f"backend names must be unique, got {names}")
        if hedge_after_s is not None and hedge_after_s < 0:
            raise ValueError("hedge_after_s must be non-negative or None")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.hedge_after_s = hedge_after_s
        self.poll_s = poll_s
        self._seq = itertools.count()
        self._closed = False
        self._lock = threading.Lock()
        self.submitted = 0
        self.hedges = 0
        self.redispatched = 0
        self.hedge_wasted = 0

        self._completed_counter = self.registry.counter(
            "repro_fleet_completed_total", "Units completed, by backend."
        )
        self._failed_counter = self.registry.counter(
            "repro_fleet_failed_total", "Units failed, by backend."
        )
        self._redispatch_counter = self.registry.counter(
            "repro_fleet_redispatched_total",
            "Units re-dispatched onto another backend (hedges + failures).",
        )
        self._hedge_counter = self.registry.counter(
            "repro_fleet_hedges_total",
            "Straggler units cloned onto an idle backend.",
        )
        self._hedge_wasted_counter = self.registry.counter(
            "repro_fleet_hedge_wasted_total",
            "Dispatches whose result lost the first-completion race.",
        )
        # Scrapers watch these from zero: materialise the label-less
        # samples now so the families render before the first event.
        for counter in (
            self._redispatch_counter,
            self._hedge_counter,
            self._hedge_wasted_counter,
        ):
            counter.inc(0.0)
        self._queue_gauge = self.registry.gauge(
            "repro_fleet_queue_depth", "Queued units, by backend."
        )
        self._inflight_gauge = self.registry.gauge(
            "repro_fleet_inflight", "Running units, by backend."
        )
        self._backlog_gauge = self.registry.gauge(
            "repro_fleet_backlog_seconds",
            "Modelled seconds of queued + running work, by backend.",
        )

        self._lanes = [_Lane(b) for b in backends]
        for lane in self._lanes:
            self._queue_gauge.labels(backend=lane.name).set(0)
            self._inflight_gauge.labels(backend=lane.name).set(0)
            lane.thread = threading.Thread(
                target=self._worker,
                args=(lane,),
                name=f"repro-fleet-{lane.name}",
                daemon=True,
            )
            lane.thread.start()
        self._monitor: threading.Thread | None = None
        if hedge_after_s is not None and len(self._lanes) > 1:
            self._monitor = threading.Thread(
                target=self._hedge_monitor, name="repro-fleet-hedge", daemon=True
            )
            self._monitor.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        spec,
        scheme,
        options,
        tile: int,
        *,
        priority: int = PRIORITY_INTERACTIVE,
        weight: float | None = None,
    ) -> Future:
        """Place one fused batch; returns a future of per-anchor records.

        ``spec`` is an :class:`~repro.core.pipeline.ExtensionSpec`.  The
        records are bit-identical to
        :func:`repro.core.pipeline.extend_suffixes_shard` on its suffixes,
        whichever backend (or backends, after re-dispatch) ran it.
        """
        with self._lock:
            if self._closed:
                raise FleetError("fleet is shut down")
            self.submitted += 1
        unit = _Unit(
            seq=next(self._seq),
            spec=spec,
            scheme=scheme,
            options=options,
            tile=tile,
            weight=extension_weight(spec) if weight is None else float(weight),
            priority=int(priority),
        )
        lane = self._place(unit)
        if lane is None:
            raise FleetError("no open backends in the fleet")
        self._enqueue(lane, unit)
        return unit.future

    # -- placement -----------------------------------------------------------

    def _place(self, unit: _Unit, exclude: tuple = ()) -> _Lane | None:
        """Least-loaded open lane by modelled completion time."""
        best = None
        best_eta = None
        for lane in self._lanes:
            if not lane.open or lane in exclude or lane.backend.closed:
                continue
            eta = lane.backlog_seconds() + lane.backend.estimate_seconds(
                unit.weight
            )
            if best_eta is None or eta < best_eta:
                best, best_eta = lane, eta
        return best

    def _enqueue(self, lane: _Lane, unit: _Unit) -> None:
        unit.attempts += 1
        with lane.lock:
            lane.queued_weight += unit.weight
        lane.queue.put((unit.priority, unit.seq, unit.attempts, unit))
        if not lane.open:
            # Lost a race with _retire_lane: the lane's workers may all be
            # gone, so nothing would ever drain this unit.  Pull whatever
            # is still queued and re-place it on the survivors.
            self._rescue_queued(lane)
        self._queue_gauge.labels(backend=lane.name).set(lane.queued())
        self._backlog_gauge.labels(backend=lane.name).set(lane.backlog_seconds())

    def _rescue_queued(self, lane: _Lane) -> None:
        while True:
            try:
                _prio, _seq, _attempt, unit = lane.queue.get_nowait()
            except queue.Empty:
                return
            if unit is None:
                # A drained sentinel; close() re-issues them, so dropping
                # one here cannot strand a worker forever.
                continue
            with lane.lock:
                lane.queued_weight = max(0.0, lane.queued_weight - unit.weight)
            self._redispatch(unit, came_from=lane)

    def _redispatch(self, unit: _Unit, *, came_from: _Lane) -> None:
        """Re-place a unit whose backend failed under it."""
        if unit.future.done():
            return
        if unit.attempts >= MAX_ATTEMPTS:
            unit.resolve(exc=FleetError(
                f"unit failed on {unit.attempts} backends (last: "
                f"{came_from.name!r})"
            ))
            return
        lane = self._place(unit, exclude=(came_from,))
        if lane is None:
            unit.resolve(exc=FleetError(
                f"no backends left after {came_from.name!r} failed"
            ))
            return
        with self._lock:
            self.redispatched += 1
        self._redispatch_counter.inc()
        self._enqueue(lane, unit)

    # -- workers -------------------------------------------------------------

    def _worker(self, lane: _Lane) -> None:
        try:
            while True:
                _prio, _seq, _attempt, unit = lane.queue.get()
                if unit is None:
                    return
                with lane.lock:
                    lane.queued_weight = max(0.0, lane.queued_weight - unit.weight)
                self._queue_gauge.labels(backend=lane.name).set(lane.queued())
                if not lane.open:
                    # The lane was retired with this unit still queued;
                    # rescue it instead of silently dropping it.
                    self._redispatch(unit, came_from=lane)
                    continue
                if unit.future.done():
                    # Lost the hedge race while queued (or was cancelled).
                    self._note_wasted()
                    continue
                self._run_unit(lane, unit)
        finally:
            release_backend_thread_state()

    def _run_unit(self, lane: _Lane, unit: _Unit) -> None:
        with lane.lock:
            lane.inflight += 1
            lane.inflight_weight += unit.weight
            lane.running[unit.seq] = (unit, time.monotonic())
        self._inflight_gauge.labels(backend=lane.name).set(lane.inflight)
        try:
            records = lane.backend.run(
                unit.spec,
                unit.scheme,
                unit.options,
                unit.tile,
                cancelled=unit.cancelled,
            )
        except BackendUnavailable:
            self._retire_lane(lane)
            self._redispatch(unit, came_from=lane)
        except BaseException as exc:  # noqa: BLE001 - unit fault boundary
            # Deterministic work: a hedge twin would fail identically, so
            # the first failure is the unit's real outcome.
            if unit.resolve(exc=exc):
                with lane.lock:
                    lane.failed += 1
                self._failed_counter.labels(backend=lane.name).inc()
        else:
            if unit.resolve(records):
                with lane.lock:
                    lane.completed += 1
                self._completed_counter.labels(backend=lane.name).inc()
            else:
                self._note_wasted()
        finally:
            with lane.lock:
                lane.inflight -= 1
                lane.inflight_weight = max(
                    0.0, lane.inflight_weight - unit.weight
                )
                lane.running.pop(unit.seq, None)
            self._inflight_gauge.labels(backend=lane.name).set(lane.inflight)
            self._backlog_gauge.labels(backend=lane.name).set(
                lane.backlog_seconds()
            )

    def _note_wasted(self) -> None:
        with self._lock:
            self.hedge_wasted += 1
        self._hedge_wasted_counter.inc()

    # -- failure + hedging ---------------------------------------------------

    def _retire_lane(self, lane: _Lane) -> None:
        """Take a broken backend out of rotation, stopping its workers.

        Queued units are rescued by the workers themselves on dequeue
        (they see ``open=False`` and re-dispatch), so retirement is just
        a flag flip plus a sentinel; the lane's thread drains the queue
        and exits.
        """
        with lane.lock:
            if not lane.open:
                return
            lane.open = False
        lane.backend.close()
        lane.queue.put((_SENTINEL_PRIORITY, next(self._seq), 0, None))

    def kill_backend(self, name: str) -> None:
        """Admin/test entry point: retire one backend by queue name.

        In-flight units on it finish or fail over (a closed backend
        raises :class:`~repro.fleet.backends.BackendUnavailable` on its
        next run); queued units re-dispatch to the survivors.
        """
        for lane in self._lanes:
            if lane.name == name:
                self._retire_lane(lane)
                return
        raise KeyError(f"no backend named {name!r}")

    def _hedge_monitor(self) -> None:
        while True:
            time.sleep(self.poll_s)
            with self._lock:
                if self._closed:
                    return
            for lane in self._lanes:
                if not lane.open:
                    continue
                with lane.lock:
                    running = list(lane.running.values())
                now = time.monotonic()
                for unit, started in running:
                    if unit.hedged or unit.future.done():
                        continue
                    threshold = max(
                        self.hedge_after_s,
                        HEDGE_COST_FACTOR
                        * lane.backend.estimate_seconds(unit.weight),
                    )
                    if now - started < threshold:
                        continue
                    target = self._idle_lane(exclude=lane)
                    if target is None:
                        continue
                    unit.hedged = True
                    with self._lock:
                        self.hedges += 1
                        self.redispatched += 1
                    self._hedge_counter.inc()
                    self._redispatch_counter.inc()
                    self._enqueue(target, unit)

    def _idle_lane(self, *, exclude: _Lane) -> _Lane | None:
        for lane in self._lanes:
            if lane is exclude:
                continue
            if lane.is_idle():
                return lane
        return None

    # -- introspection -------------------------------------------------------

    def estimated_wait_s(self, weight: float = 0.0) -> float:
        """Modelled seconds until a new unit of ``weight`` could finish.

        The minimum over open lanes of backlog + unit cost — what the
        front door's deadline-aware admission compares against a
        request's deadline budget.  ``inf`` when every lane is retired.
        """
        best = float("inf")
        for lane in self._lanes:
            if not lane.open or lane.backend.closed:
                continue
            eta = lane.backlog_seconds() + lane.backend.estimate_seconds(weight)
            best = min(best, eta)
        return best

    @property
    def backends(self) -> list[FleetBackend]:
        """The fleet's backends, in declaration order."""
        return [lane.backend for lane in self._lanes]

    def stats(self) -> dict:
        """JSON-ready fleet health (the ``fleet`` section of ``/v1/stats``)."""
        with self._lock:
            out = {
                "submitted": self.submitted,
                "hedges": self.hedges,
                "redispatched": self.redispatched,
                "hedge_wasted": self.hedge_wasted,
            }
        out["backends"] = [lane.describe() for lane in self._lanes]
        return out

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain every lane, stop the workers, close the backends.

        ``timeout`` bounds the wait for queued units (``None`` waits for
        all of them).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for lane in self._lanes:
            lane.queue.put((_SENTINEL_PRIORITY, next(self._seq), 0, None))
        deadline = None if timeout is None else time.monotonic() + timeout
        for lane in self._lanes:
            if deadline is None:
                lane.thread.join()
            else:
                lane.thread.join(max(0.0, deadline - time.monotonic()))
        if self._monitor is not None:
            self._monitor.join(max(self.poll_s * 4, 0.2))
        for lane in self._lanes:
            lane.backend.close()

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
