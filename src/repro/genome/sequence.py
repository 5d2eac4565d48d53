"""The :class:`Sequence` container used by every pipeline stage.

A sequence is a named, immutable view over a 2-bit code array (see
:mod:`repro.genome.alphabet`).  Slicing returns light-weight views so the
seed extender can address arbitrary anchor offsets without copying whole
chromosomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import decode, encode, is_valid_codes, reverse_complement

__all__ = ["Sequence", "as_codes"]


def as_codes(sequence) -> np.ndarray:
    """The code array of a :class:`Sequence`, a stored reference or bare codes.

    Anything with a ``codes`` attribute (a :class:`Sequence`, or a
    :class:`~repro.store.StoredReference`, which decodes on first touch)
    gives that array; anything else is taken as codes already.
    """
    return np.asarray(getattr(sequence, "codes", sequence))


@dataclass(frozen=True)
class Sequence:
    """A named DNA sequence stored as 2-bit codes.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"C.elegans.chr1"``.
    codes:
        ``uint8`` array of 2-bit codes. The constructor makes the array
        read-only so that views handed to the aligner cannot be mutated
        behind its back.
    """

    name: str
    codes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        if not is_valid_codes(codes):
            raise ValueError(f"sequence {self.name!r} contains invalid codes")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_text(cls, name: str, text: str) -> "Sequence":
        """Build a sequence from an ASCII string (case-insensitive)."""
        return cls(name, encode(text))

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def __getitem__(self, item: slice) -> np.ndarray:
        """Slice access returns the underlying code view (read-only)."""
        return self.codes[item]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.name, self.codes.tobytes()))

    # -- conversions -------------------------------------------------------
    def text(self) -> str:
        """ASCII rendering of the whole sequence."""
        return decode(self.codes)

    def subsequence(self, start: int, stop: int, name: str | None = None) -> "Sequence":
        """A named subsequence over ``[start, stop)`` (zero-copy view)."""
        if not (0 <= start <= stop <= len(self)):
            raise IndexError(
                f"subsequence [{start}, {stop}) out of range for length {len(self)}"
            )
        sub = self.codes[start:stop]
        return Sequence(name or f"{self.name}[{start}:{stop}]", sub)

    def reverse_complement(self, name: str | None = None) -> "Sequence":
        """The reverse-complement strand."""
        return Sequence(name or f"{self.name}(-)", reverse_complement(self.codes))

    # -- stats -------------------------------------------------------------
    def gc_fraction(self) -> float:
        """Fraction of G/C among non-N bases (0.0 for empty/all-N)."""
        real = self.codes[self.codes < 4]
        if real.size == 0:
            return 0.0
        gc = np.count_nonzero((real == 1) | (real == 2))
        return gc / real.size

    def n_fraction(self) -> float:
        """Fraction of unknown (N) bases."""
        if len(self) == 0:
            return 0.0
        return float(np.count_nonzero(self.codes == 4) / len(self))
