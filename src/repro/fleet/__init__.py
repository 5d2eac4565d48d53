"""Serving lanes and the front door: device queues, placement, asyncio HTTP.

``repro.fleet`` holds the two halves of the serving path around
:class:`~repro.service.AlignmentService`: the scheduler every fused batch
runs through — named backend queues (in-process engine, worker pools,
simulated GPUs) under one placement/hedging policy, a single lane by
default — and the asyncio HTTP server that multiplexes thousands of
connections on one event loop and owns the ``/v1`` contract
(:mod:`repro.fleet.asgi`).
"""

from .asgi import FleetApp
from .backends import (
    BackendUnavailable,
    FleetBackend,
    InProcessBackend,
    PoolBackend,
    SimGpuBackend,
)
from .quota import QuotaExceeded, TenantQuotas, TokenBucket
from .scheduler import (
    FleetError,
    FleetScheduler,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    PRIORITY_NAMES,
)
from .server import FleetHTTPServer, serve_fleet

__all__ = [
    "BackendUnavailable",
    "FleetApp",
    "FleetBackend",
    "FleetError",
    "FleetHTTPServer",
    "FleetScheduler",
    "InProcessBackend",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_NAMES",
    "PoolBackend",
    "QuotaExceeded",
    "SimGpuBackend",
    "TenantQuotas",
    "TokenBucket",
    "serve_fleet",
]
