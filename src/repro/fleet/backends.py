"""Fleet execution backends: one named device behind one ``run`` call.

A backend is the unit the :class:`~repro.fleet.scheduler.FleetScheduler`
routes work to: it executes one fused extension batch — an
:class:`~repro.core.pipeline.ExtensionSpec` over one or more alignment
requests — and returns per-anchor extension records.  Every backend
ultimately calls :func:`repro.core.pipeline.extend_suffixes_shard` on the
spec's :meth:`~repro.core.pipeline.ExtensionSpec.suffixes`, so **records
are bit-identical whichever backend ran them**; backends differ only in
*where* the arithmetic happens and what it costs:

* :class:`InProcessBackend` — the lockstep NumPy engine on a scheduler
  worker thread (kept warm via the thread-local arenas);
* :class:`PoolBackend` — a :class:`~repro.core.pool.WorkerPool` of
  persistent worker processes; the spec's rows are LPT-sharded across
  them and store-backed sources travel as shared-memory handles
  (multiple cores, same bytes);
* :class:`SimGpuBackend` — one simulated GPU: the arithmetic still runs
  on the host (there is no real device), but the backend *accounts* the
  batch at the device's modelled rate
  (:func:`repro.core.perfmodel.estimate_extension_seconds` over a
  :class:`~repro.gpusim.DeviceSpec`), so N of them give the placement
  policy N lanes with realistic relative speeds to balance.

Failure contract: a backend whose *substrate* is gone (closed, killed,
worker pool unrecoverable) raises :class:`BackendUnavailable` — the
scheduler re-dispatches the unit elsewhere and retires the backend.  Any
other exception fails only the unit and propagates to the submitter —
a poisoned batch, or a pool shard that kept killing its workers.

Test hook (inert unless set): ``REPRO_FLEET_TEST_SLOW_BACKEND`` is
``name:seconds`` (comma-separated pairs) — the named backend sleeps that
long per unit before computing, deterministically creating the straggler
the hedging policy exists for.  The sleep polls the unit's cancel event,
so a hedge winner releases the loser immediately.
"""

from __future__ import annotations

import os
import threading
import time

from ..align.arena import release_thread_arenas
from ..core.perfmodel import estimate_extension_seconds, extension_weight
from ..core.pipeline import extend_suffixes_shard
from ..gpusim.device import DeviceSpec, QV100_VOLTA
from ..core.pool import PoolError, PoolUnavailable, WorkerPool

__all__ = [
    "BackendUnavailable",
    "FleetBackend",
    "InProcessBackend",
    "PoolBackend",
    "SimGpuBackend",
]

#: Test hook: ``backend:seconds`` pairs injecting a per-run straggler delay.
_SLOW_ENV = "REPRO_FLEET_TEST_SLOW_BACKEND"


class BackendUnavailable(RuntimeError):
    """This backend cannot run work any more; re-dispatch elsewhere."""


def _injected_delay(name: str) -> float:
    raw = os.environ.get(_SLOW_ENV, "")
    for part in raw.split(","):
        part = part.strip()
        if not part or ":" not in part:
            continue
        backend, _, seconds = part.partition(":")
        if backend.strip() == name:
            try:
                return max(0.0, float(seconds))
            except ValueError:
                return 0.0
    return 0.0


def _interruptible_sleep(seconds: float, cancelled: threading.Event | None) -> None:
    """Sleep ``seconds`` unless ``cancelled`` fires first."""
    if seconds <= 0:
        return
    if cancelled is None:
        time.sleep(seconds)
    else:
        cancelled.wait(seconds)


class FleetBackend:
    """One named execution target with a cost model.

    Subclasses implement :meth:`_execute`; the base class owns the shared
    bookkeeping — liveness, busy-seconds accounting and the injected
    straggler delay of the test hook.  The scheduler runs one unit at a
    time on each backend, from the lane's one worker thread.

    Parameters
    ----------
    name:
        The queue name the scheduler addresses this backend by.
    """

    #: Human-readable backend family for stats (``inprocess``/``pool``/...).
    kind = "backend"

    def __init__(self, name: str) -> None:
        self.name = name
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self.busy_seconds = 0.0
        self.completed = 0

    # -- cost model ----------------------------------------------------------

    def estimate_seconds(self, weight: float) -> float:
        """Modelled seconds this backend needs for ``weight`` units."""
        return estimate_extension_seconds(weight)

    # -- execution -----------------------------------------------------------

    def run(self, spec, scheme, options, tile: int, *, key: str,
            cancelled: threading.Event | None = None):
        """Execute one fused batch (an ``ExtensionSpec``); returns records.

        Raises :class:`BackendUnavailable` once :meth:`close` ran.
        ``cancelled`` (set when another dispatch of the same unit already
        won) lets slow paths bail out early — results after cancellation
        are discarded by the scheduler either way.
        """
        if self._closed.is_set():
            raise BackendUnavailable(f"backend {self.name!r} is closed")
        delay = _injected_delay(self.name)
        if delay:
            _interruptible_sleep(delay, cancelled)
            if self._closed.is_set():
                raise BackendUnavailable(f"backend {self.name!r} is closed")
        start = time.perf_counter()
        records = self._execute(spec, scheme, options, tile, key=key,
                                cancelled=cancelled)
        with self._lock:
            self.busy_seconds += time.perf_counter() - start
            self.completed += 1
        return records

    def _execute(self, spec, scheme, options, tile, *, key, cancelled):
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self) -> None:
        """Stop accepting work; in-flight runs finish (or fail) on their own.

        Idempotent, callable from any thread — this is also the
        kill-a-backend-mid-batch admin/test entry point.
        """
        self._closed.set()

    def describe(self) -> dict:
        """JSON-ready identity + health for fleet stats."""
        return {
            "name": self.name,
            "kind": self.kind,
            "closed": self.closed,
            "completed": self.completed,
            "busy_seconds": round(self.busy_seconds, 4),
        }


class InProcessBackend(FleetBackend):
    """The lockstep engine on the scheduler's own worker threads."""

    kind = "inprocess"

    def __init__(self, name: str = "cpu0") -> None:
        super().__init__(name)

    def _execute(self, spec, scheme, options, tile, *, key, cancelled):
        return extend_suffixes_shard(spec.suffixes(), scheme, options, tile)


class PoolBackend(FleetBackend):
    """A persistent multiprocess worker pool behind one fleet queue.

    Owns its :class:`~repro.core.pool.WorkerPool` and hands it each
    spec whole: the pool publishes the spec's digest-named
    sources to shared memory (once per digest) and LPT-shards its rows
    across its workers.
    :class:`~repro.core.pool.PoolUnavailable` — the pool closed under
    us, or a dead worker could not be replaced — becomes
    :class:`BackendUnavailable`, so the scheduler retires the lane and
    re-routes the unit.  A plain :class:`~repro.core.pool.PoolError`
    (one shard kept killing its workers) fails only this unit: it counts
    as ``degraded``, the service re-runs it in-process, and the lane
    stays open for the next batch.
    """

    kind = "pool"

    def __init__(
        self,
        name: str = "pool0",
        *,
        workers: int = 2,
        registry=None,
    ) -> None:
        super().__init__(name)
        self.pool = WorkerPool(workers, registry=registry)

    def estimate_seconds(self, weight: float) -> float:
        # Shards run in parallel, one per live worker.
        return estimate_extension_seconds(weight) / max(1, self.pool.n_alive)

    def _execute(self, spec, scheme, options, tile, *, key, cancelled):
        try:
            return self.pool.extend_spec(spec, scheme, options, tile, key=key)
        except PoolUnavailable as exc:
            raise BackendUnavailable(f"backend {self.name!r}: {exc}") from exc
        except PoolError:
            self.pool.note_degraded()
            raise

    def close(self) -> None:
        super().close()
        self.pool.close()


class SimGpuBackend(FleetBackend):
    """One simulated GPU: host arithmetic, device-rate accounting.

    The records are computed by the same lockstep engine as everywhere
    else (there is no real device to ship to), so results stay
    bit-identical; what the simulation adds is the *cost model*: the
    backend estimates and books each batch at the device's modelled
    execution rate, giving the fleet N queues whose relative speeds
    follow the device specs for the placement policy to balance.
    """

    kind = "gpusim"

    def __init__(self, name: str, *, device: DeviceSpec = QV100_VOLTA) -> None:
        super().__init__(name)
        self.device = device
        self.sim_seconds = 0.0

    def estimate_seconds(self, weight: float) -> float:
        return estimate_extension_seconds(weight, self.device)

    def _execute(self, spec, scheme, options, tile, *, key, cancelled):
        modelled = estimate_extension_seconds(extension_weight(spec), self.device)
        records = extend_suffixes_shard(spec.suffixes(), scheme, options, tile)
        with self._lock:
            self.sim_seconds += modelled
        return records

    def describe(self) -> dict:
        out = super().describe()
        out["device"] = self.device.name
        out["sim_seconds"] = round(self.sim_seconds, 6)
        return out


def release_backend_thread_state() -> None:
    """Drop per-thread engine state a scheduler worker accumulated.

    Scheduler worker threads run lockstep batches in-process (the
    in-process and simulated-GPU backends), which warms thread-local
    arenas; call this when a worker retires so the slabs die with it.
    """
    release_thread_arenas()
