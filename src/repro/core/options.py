"""FastZ configuration: the optimisation toggles of the paper's Figure 9.

The ablation study progressively enables cyclic buffering, eager traceback
and executor trimming on top of the base inspector-executor-with-binning
design, and finally isolates CUDA streams.  :class:`FastzOptions` encodes
exactly those switches; :func:`ablation_ladder` returns the paper's
progression.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields as dataclass_fields, replace

__all__ = [
    "FastzOptions",
    "ablation_ladder",
    "FASTZ_FULL",
    "DEFAULT_BIN_EDGES",
    "SCALED_BIN_EDGES",
]

#: Bin upper bounds (paper §3.3): 512, 2048, 8192, 32768 with 4x scaling.
DEFAULT_BIN_EDGES = (512, 2048, 8192, 32768)

#: Bin edges used by the scaled benchmark suite: the whole workload is
#: shrunk ~8x relative to the paper (chromosomes, y-drop horizon, segment
#: lengths), so the bins shrink by the same factor while keeping the 4x
#: ladder (see EXPERIMENTS.md).
SCALED_BIN_EDGES = (64, 256, 1024, 4096)


@dataclass(frozen=True)
class FastzOptions:
    """Optimisation switches of the FastZ GPU pipeline."""

    #: Hold the three live diagonals in registers (cyclic use-and-discard)
    #: instead of spilling score matrices to global memory.
    cyclic_buffers: bool = True
    #: Track a small traceback tile in the inspector and resolve short
    #: alignments there, skipping the executor.
    eager_traceback: bool = True
    #: Side length of the eager tile (16 x 16 in the paper).
    eager_tile: int = 16
    #: Restrict the executor to the optimal-alignment region found by the
    #: inspector instead of recomputing the whole search space.
    executor_trimming: bool = True
    #: Group executor tasks into alignment-length bins (one kernel each).
    binning: bool = True
    bin_edges: tuple[int, ...] = DEFAULT_BIN_EDGES
    #: Number of CUDA streams (1 disables cross-kernel overlap).
    streams: int = 32
    #: Host DP engine driving the functional pipeline, resolved through
    #: the :mod:`repro.align.engines` registry: ``"scalar"`` runs one
    #: extension at a time (the original per-anchor Python loop),
    #: ``"batched"`` — also registered as ``"wholebin"`` — advances
    #: struct-of-arrays blocks of extensions in lockstep
    #: (:mod:`repro.align.batch`) — bit-identical results across all
    #: registered engines, only wall-clock differs.
    engine: str = "scalar"
    #: Max rows in one lockstep block, under either name of the lockstep
    #: engine (bounds slab memory; executor blocks are additionally
    #: composed per length bin so short and long tasks never share one).
    batch_size: int = 256
    #: Score-plane dtype for the lockstep engine: ``"auto"`` uses int32
    #: whenever the worst-case score drift provably fits (halving score
    #: bandwidth, bit-identical either way), ``"int32"``/``"int64"`` force
    #: one path (tests, debugging).
    score_dtype: str = "auto"

    def __post_init__(self) -> None:
        if self.eager_tile <= 0:
            raise ValueError("eager_tile must be positive")
        if self.streams <= 0:
            raise ValueError("streams must be positive")
        # The engine-registry import is deferred: this validator runs at
        # module import time (FASTZ_FULL below), potentially while the
        # pipeline module registering the built-ins is still importing.
        from ..align.engines import registered_engines

        if self.engine not in registered_engines():
            names = ", ".join(repr(n) for n in registered_engines())
            raise ValueError(f"engine must be one of {names}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.score_dtype not in ("auto", "int32", "int64"):
            raise ValueError("score_dtype must be 'auto', 'int32' or 'int64'")
        if not self.bin_edges or any(
            b <= a for a, b in zip(self.bin_edges, self.bin_edges[1:])
        ):
            raise ValueError("bin_edges must be strictly increasing and non-empty")
        if self.bin_edges[0] <= 0:
            raise ValueError("bin_edges must be positive")

    def to_mapping(self) -> dict:
        """JSON-ready rendering of every option field.

        Tuples become lists so the mapping survives a JSON round trip;
        :meth:`from_mapping` converts them back.  Round-trip identity
        (``FastzOptions.from_mapping(opts.to_mapping()) == opts``) is the
        contract the CLI, the HTTP body parser and :mod:`repro.api` all
        validate through.
        """
        out: dict = {}
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "FastzOptions":
        """Build options from a plain mapping, rejecting unknown keys.

        The single validation path for every external surface: CLI flags,
        HTTP ``options`` bodies and :func:`repro.api.align` kwargs all
        funnel through here, so a typo'd key fails loudly everywhere
        instead of being silently dropped by one parser and honoured by
        another.  Values still go through ``__post_init__`` validation.
        """
        if not isinstance(mapping, Mapping):
            raise TypeError(
                f"options must be a mapping, not {type(mapping).__name__}"
            )
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown FastzOptions key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs = dict(mapping)
        if isinstance(kwargs.get("bin_edges"), list):
            kwargs["bin_edges"] = tuple(kwargs["bin_edges"])
        return cls(**kwargs)

    @property
    def score_dtype_override(self) -> str | None:
        """``score_dtype`` in the engine's argument form (``None`` = auto)."""
        return None if self.score_dtype == "auto" else self.score_dtype

    @property
    def label(self) -> str:
        parts = []
        parts.append("cyclic" if self.cyclic_buffers else "naive")
        if self.eager_traceback:
            parts.append("eager")
        if self.executor_trimming:
            parts.append("trim")
        parts.append(f"streams={self.streams}")
        return "+".join(parts)


#: The complete FastZ configuration (the paper's penultimate Figure 9 bar).
FASTZ_FULL = FastzOptions()


def ablation_ladder(streams: int = 32) -> list[tuple[str, FastzOptions]]:
    """The paper's Figure 9 progression, in order.

    Each entry includes all optimisations of the entries before it:
    base (inspector-executor + binning + lightweight inspector) ->
    +cyclic -> +eager -> +trim (= FastZ) -> FastZ-single-stream.
    """
    base = FastzOptions(
        cyclic_buffers=False,
        eager_traceback=False,
        executor_trimming=False,
        streams=streams,
    )
    ladder = [
        ("insp-exec+binning", base),
        ("+cyclic", replace(base, cyclic_buffers=True)),
        ("+eager", replace(base, cyclic_buffers=True, eager_traceback=True)),
        (
            "+trim (FastZ)",
            replace(
                base,
                cyclic_buffers=True,
                eager_traceback=True,
                executor_trimming=True,
            ),
        ),
        (
            "FastZ-single-stream",
            replace(
                base,
                cyclic_buffers=True,
                eager_traceback=True,
                executor_trimming=True,
                streams=1,
            ),
        ),
    ]
    return ladder
