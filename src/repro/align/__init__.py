"""Alignment engines: Gotoh reference, y-drop row engine, FastZ wavefront."""

from .alignment import Alignment, merge_ops
from .arena import LockstepArena, release_thread_arenas, thread_arena
from .banded import banded_extend
from .batch import batch_wavefront_extend
from .diagonal import (
    DiagonalLayout,
    diagonal_span,
    from_diagonal,
    skew_matrix,
    to_diagonal,
    unskew_matrix,
)
from .engines import (
    ExtensionEngine,
    get_engine,
    register_engine,
    registered_engines,
    unregister_engine,
)
from .extend import AnchorExtension, combine_alignment, extend_anchor
from .gotoh import GotohResult, gotoh_extend, gotoh_matrices
from .traceback import pack, walk_traceback
from .ungapped import UngappedHSP, ungapped_extend, ungapped_extend_one_sided
from .wavefront import (
    WARP_WIDTH,
    DiagTraceback,
    WavefrontResult,
    WavefrontStats,
    wavefront_extend,
)
from .ydrop import (
    ExtensionResult,
    ExtensionStats,
    WindowedTraceback,
    diag_width_profile,
    ydrop_extend,
)

__all__ = [
    "Alignment",
    "banded_extend",
    "batch_wavefront_extend",
    "AnchorExtension",
    "combine_alignment",
    "extend_anchor",
    "DiagTraceback",
    "DiagonalLayout",
    "ExtensionEngine",
    "ExtensionResult",
    "ExtensionStats",
    "GotohResult",
    "LockstepArena",
    "UngappedHSP",
    "WARP_WIDTH",
    "WavefrontResult",
    "WavefrontStats",
    "WindowedTraceback",
    "diag_width_profile",
    "diagonal_span",
    "from_diagonal",
    "get_engine",
    "gotoh_extend",
    "gotoh_matrices",
    "merge_ops",
    "pack",
    "register_engine",
    "registered_engines",
    "release_thread_arenas",
    "skew_matrix",
    "thread_arena",
    "to_diagonal",
    "ungapped_extend",
    "ungapped_extend_one_sided",
    "unregister_engine",
    "unskew_matrix",
    "walk_traceback",
    "wavefront_extend",
    "ydrop_extend",
]
