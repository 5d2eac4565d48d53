"""Extension-engine registry: one name -> one engine, used by every caller.

Before this module, ``FastzOptions.engine`` was compared against a
hard-coded ``("scalar", "batched")`` tuple at four independent dispatch
sites in :mod:`repro.core.pipeline` (plus the validator in
:mod:`repro.core.options`).  Adding an engine meant touching every one of
them — and the service, pool-worker, fleet-backend and jobs
paths all funnel through those sites, so the blast radius was the whole
serving stack.  The registry collapses that to one table:

* :func:`register_engine` — decorator that publishes a callable under a
  name (``@register_engine("batched")``); stacking it publishes one
  callable under several names, as the lockstep engine is published
  under both ``"batched"`` and ``"wholebin"``;
* :func:`get_engine` — resolves a name to its callable, with an error
  message that lists every valid name;
* :func:`registered_engines` — the sorted name list, read by
  ``FastzOptions`` validation so CLI ``choices=`` and HTTP 400 messages
  stay in sync with reality automatically.

An engine is any callable with the :class:`ExtensionEngine` shape: it
takes the interleaved right/left suffix list of
:func:`repro.core.pipeline._anchor_suffixes` plus ``(scheme, options,
tile)`` and returns one ``(insp_l, insp_r, final_l, final_r, fallbacks)``
record per anchor, bit-identical to the scalar engine.  Every registered
engine is automatically exercised by the registry-parametrized
equivalence matrix in ``tests/core/test_engine_registry.py``.

Import-order note: the built-in engines live in ``repro.core.pipeline``,
but ``repro.core.options`` validates engine names at import time (the
module-level ``FASTZ_FULL = FastzOptions()``), i.e. potentially *while*
the pipeline module is still importing.  The registry therefore pre-seeds
the built-in names lazily (name -> ``(module, attribute)``) so
:func:`registered_engines` never needs the pipeline imported, and
:func:`get_engine` resolves a lazy name on first use.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Protocol, runtime_checkable

__all__ = [
    "ExtensionEngine",
    "get_engine",
    "register_engine",
    "registered_engines",
    "unregister_engine",
]


@runtime_checkable
class ExtensionEngine(Protocol):
    """Callable contract for a registered extension engine.

    ``suffixes`` is the interleaved layout of ``_anchor_suffixes`` (anchor
    ``k``'s right problem at index ``2k``, reversed left at ``2k + 1``);
    the return value is one per-anchor extension record, and the hard
    contract is bit-identity with the scalar engine: same scores, end
    cells, ops, eager hits, stats and fallback counts.
    """

    def __call__(
        self,
        suffixes: list,
        scheme,
        options,
        tile: int,
    ) -> list: ...


#: Built-in engines, resolved on first :func:`get_engine` call so the
#: registry is complete even before ``repro.core.pipeline`` has imported.
_LAZY_BUILTINS: dict[str, tuple[str, str]] = {
    "scalar": ("repro.core.pipeline", "_extend_suffixes_scalar"),
    "batched": ("repro.core.pipeline", "extend_suffixes_batched"),
    "wholebin": ("repro.core.pipeline", "extend_suffixes_batched"),
}

_REGISTRY: dict[str, Callable] = {}


def register_engine(name: str) -> Callable[[Callable], Callable]:
    """Decorator: publish ``fn`` as the engine called ``name``.

    Re-registering a name replaces the previous engine (last wins), which
    is what tests and experiments want; the built-in names are re-bound
    harmlessly when ``repro.core.pipeline`` imports.
    """
    if not name or not isinstance(name, str):
        raise ValueError("engine name must be a non-empty string")

    def deco(fn: Callable) -> Callable:
        _REGISTRY[name] = fn
        return fn

    return deco


def unregister_engine(name: str) -> None:
    """Remove a registered engine (built-in names cannot be removed)."""
    if name in _LAZY_BUILTINS:
        raise ValueError(f"cannot unregister built-in engine {name!r}")
    _REGISTRY.pop(name, None)


def registered_engines() -> tuple[str, ...]:
    """Sorted names of every registered engine (the single source of truth
    for ``FastzOptions.engine`` validation and CLI ``choices=``)."""
    return tuple(sorted(set(_REGISTRY) | set(_LAZY_BUILTINS)))


def get_engine(name: str) -> Callable:
    """Resolve an engine name to its callable.

    Raises ``ValueError`` (listing the valid names) for unknown engines —
    the same message surfaces as an HTTP 400 through ``FastzOptions``.
    """
    fn = _REGISTRY.get(name)
    if fn is not None:
        return fn
    lazy = _LAZY_BUILTINS.get(name)
    if lazy is not None:
        module, attr = lazy
        fn = getattr(import_module(module), attr)
        # The pipeline's decorators normally registered it during the
        # import above; seed the mapping directly if not (e.g. a stale
        # partial import), so the lazy path is one-shot.
        _REGISTRY.setdefault(name, fn)
        return _REGISTRY[name]
    names = ", ".join(registered_engines())
    raise ValueError(f"unknown engine {name!r}: registered engines are {names}")
