"""Seeding: exact-match seed discovery and seed filtering."""

from .filtering import (
    Anchors,
    collapse_diagonal,
    ungapped_filter,
)
from .seeds import (
    LASTZ_SPACED_SEED,
    SeedMatches,
    SeedTable,
    build_seed_table,
    find_seeds,
    pack_kmers,
    pack_spaced,
    pack_words,
)

__all__ = [
    "Anchors",
    "LASTZ_SPACED_SEED",
    "SeedMatches",
    "SeedTable",
    "build_seed_table",
    "collapse_diagonal",
    "find_seeds",
    "pack_kmers",
    "pack_spaced",
    "pack_words",
    "ungapped_filter",
]
