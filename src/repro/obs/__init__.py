"""``repro.obs`` — tracing + metrics threaded through every layer.

The paper's argument is quantitative (eager-traceback elision, per-bin
executor composition, score-traffic reduction), so the pipeline exposes
those numbers at runtime through two instruments:

* a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  fixed-bucket histograms, rendered in Prometheus text format
  (``GET /metrics`` on the service);
* a :class:`~repro.obs.tracing.Tracer` of context-manager spans with
  parent linkage, wall/CPU time and per-span attributes
  (``repro trace`` on the CLI).

**Disabled-by-default contract:** the module-level registry and tracer
start as no-op null objects; instrumented hot paths pay one method call
per site and nothing else.  :func:`enable` swaps in live instruments
(process-wide), :func:`disable` restores the null ones.  Code should
always reach the instruments through the module helpers (:func:`span`,
:func:`counter`, :func:`gauge`, :func:`histogram`) so an ``enable`` at
any point takes effect everywhere immediately.

Metric naming convention: ``repro_<area>_<what>_<unit>`` with Prometheus
suffix rules (``_total`` for counters, ``_seconds`` for time
histograms); stage labels stay low-cardinality (bin ids, outcome kinds).
"""

from __future__ import annotations

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    DEFAULT_BUCKETS,
)
from .tracing import NullTracer, Span, Tracer, render_span_tree

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "DEFAULT_BUCKETS",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "render_span_tree",
    "span",
]

_NULL_REGISTRY = NullRegistry()
_NULL_TRACER = NullTracer()

_registry: MetricsRegistry | NullRegistry = _NULL_REGISTRY
_tracer: Tracer | NullTracer = _NULL_TRACER


def enable(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> tuple[MetricsRegistry, Tracer]:
    """Turn observability on process-wide; returns the live instruments."""
    global _registry, _tracer
    if not isinstance(_registry, MetricsRegistry) or registry is not None:
        _registry = registry or MetricsRegistry()
    if not isinstance(_tracer, Tracer) or tracer is not None:
        _tracer = tracer or Tracer()
    return _registry, _tracer  # type: ignore[return-value]


def disable() -> None:
    """Restore the no-op instruments (the default state)."""
    global _registry, _tracer
    _registry = _NULL_REGISTRY
    _tracer = _NULL_TRACER


def enabled() -> bool:
    return _registry.enabled or _tracer.enabled


def get_registry() -> MetricsRegistry | NullRegistry:
    return _registry


def get_tracer() -> Tracer | NullTracer:
    return _tracer


# -- hot-path helpers (always dispatch to the *current* instruments) ---------


def span(name: str, **attributes: object):
    """Open a span on the current tracer (a no-op span when disabled)."""
    return _tracer.span(name, **attributes)


def counter(name: str, help: str = ""):
    return _registry.counter(name, help)


def gauge(name: str, help: str = ""):
    return _registry.gauge(name, help)


def histogram(name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS):
    return _registry.histogram(name, help, buckets)
