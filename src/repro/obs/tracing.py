"""Span-based tracing: context-manager spans with parent linkage.

A :class:`Span` measures one stage of work — wall time, CPU (process)
time, and free-form attributes (bin sizes, task counts, eager-resolution
counts...).  Spans opened while another span is active on the same
thread become its children, so one ``run_fastz`` call yields a tree::

    fastz.run
    ├─ fastz.prepare
    │  └─ fastz.seeding
    └─ fastz.extend
       ├─ fastz.inspector
       └─ fastz.executor [bin=1]

The tracer keeps a per-thread span stack (service handler threads and
the dispatcher thread each build their own trees) and retains the most
recent finished root spans for rendering.  :class:`NullTracer` — the
library default, see :mod:`repro.obs` — hands out one shared no-op span
so disabled tracing costs a single method call per site.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["NullTracer", "Span", "Tracer", "render_span_tree"]


class Span:
    """One timed stage.  Use via ``with tracer.span(name, **attrs):``."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "wall_s",
        "cpu_s",
        "_tracer",
        "_t0",
        "_c0",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self.name = name
        self.attributes = attributes
        self.children: list[Span] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._tracer = tracer
        self._t0 = 0.0
        self._c0 = 0.0

    def set(self, **attributes: object) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._c0
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)

    def find(self, name: str) -> list["Span"]:
        """Every descendant span (including self) with ``name``."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find(name))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall={self.wall_s * 1e3:.2f}ms)"


class Tracer:
    """Collects span trees, one stack per thread."""

    enabled = True

    def __init__(self, keep_roots: int = 32) -> None:
        self.roots: deque[Span] = deque(maxlen=keep_roots)
        self._local = threading.local()

    # -- span lifecycle (called by Span.__enter__/__exit__) ------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if not stack:
            self.roots.append(span)

    # -- public API ----------------------------------------------------------

    def span(self, name: str, **attributes: object) -> Span:
        return Span(self, name, attributes)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def last_root(self, name: str | None = None) -> Span | None:
        """The most recent finished root span (optionally by name)."""
        for root in reversed(self.roots):
            if name is None or root.name == name:
                return root
        return None


class _NullSpan:
    """Shared no-op span: enter/exit/set all do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def set(self, **attributes: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: hands out one shared no-op span."""

    enabled = False

    def span(self, name: str, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def last_root(self, name: str | None = None) -> None:
        return None


def _format_attrs(attributes: dict) -> str:
    if not attributes:
        return ""
    body = " ".join(
        f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
        for k, v in attributes.items()
    )
    return f"  [{body}]"


def render_span_tree(span: Span) -> str:
    """Pretty-print one span tree with per-stage wall/CPU timings."""
    lines: list[str] = []

    def walk(node: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        glyph = "" if is_root else ("└─ " if is_last else "├─ ")
        lines.append(
            f"{prefix}{glyph}{node.name}  "
            f"wall={node.wall_s * 1e3:.2f}ms cpu={node.cpu_s * 1e3:.2f}ms"
            f"{_format_attrs(node.attributes)}"
        )
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(node.children):
            walk(child, child_prefix, i == len(node.children) - 1, False)

    walk(span, "", True, True)
    return "\n".join(lines)
