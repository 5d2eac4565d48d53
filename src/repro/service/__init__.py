"""Concurrent alignment serving: micro-batching, caching, backpressure.

:class:`AlignmentService` accepts many concurrent alignment requests,
fuses them into bin-aware lockstep batches over the struct-of-arrays
engine (:mod:`repro.align.batch`), runs every batch through a
:class:`~repro.fleet.scheduler.FleetScheduler`, caches results in a
keyed LRU, and degrades predictably under load (bounded queue, admission
control, deadlines, drain-aware shutdown).  On a pool lane
(``fleet=[PoolBackend("pool0", workers=N)]``) the fused batches are
sharded across a fault-tolerant multiprocess
:class:`~repro.core.pool.WorkerPool` — bit-identical results on
multiple cores.  ``repro serve`` exposes it over versioned JSON/HTTP
through the asyncio front door (:mod:`repro.fleet.asgi`, ``/v1/*``).
"""

from ..core.pool import PoolError, WorkerPool
from .batcher import BatchPolicy, DeadlineExceeded
from .cache import CacheStats, ResultCache
from .request import AlignmentRequest
from .service import (
    AlignmentService,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
)
from .stats import ServiceStats

__all__ = [
    "AlignmentRequest",
    "AlignmentService",
    "BatchPolicy",
    "CacheStats",
    "DeadlineExceeded",
    "PoolError",
    "ResultCache",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceStats",
    "WorkerPool",
]
