"""Bitmap index over sequence ids (paper Section IV-C).

HTPGM associates every event, event combination and pattern with a bitmap of
length ``|DSEQ|`` whose ``i``-th bit is set when the object occurs in sequence
``i``.  Support is then a population count and the support of a combination is
obtained by ANDing the individual bitmaps — no database re-scan is needed.

The implementation stores the bits in a single Python integer, which gives
arbitrary length, O(words) bitwise operations implemented in C, and a popcount
via :meth:`int.bit_count`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..exceptions import ConfigurationError

__all__ = ["Bitmap"]


class Bitmap:
    """Fixed-length bitset over sequence ids ``0 .. length-1``."""

    __slots__ = ("_bits", "_length")

    def __init__(self, length: int, bits: int = 0) -> None:
        if length < 0:
            raise ConfigurationError(f"Bitmap length must be non-negative, got {length}")
        self._length = length
        self._bits = bits & ((1 << length) - 1) if length else 0

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "Bitmap":
        """Build a bitmap with the given set bits."""
        bits = 0
        for index in indices:
            if not 0 <= index < length:
                raise ConfigurationError(
                    f"bit index {index} out of range for Bitmap of length {length}"
                )
            bits |= 1 << index
        return cls(length, bits)

    @classmethod
    def from_bytes(cls, length: int, data: bytes) -> "Bitmap":
        """Bitmap of ``length`` bits read from little-endian ``data`` (bit
        ``i`` is bit ``i % 8`` of byte ``i // 8``), the inverse of
        :meth:`to_bytes`."""
        return cls(length, int.from_bytes(data, "little"))

    @classmethod
    def full(cls, length: int) -> "Bitmap":
        """Bitmap with every bit set."""
        return cls(length, (1 << length) - 1 if length else 0)

    # ------------------------------------------------------------------ bulk algebra
    @classmethod
    def intersect_all(cls, bitmaps: Iterable["Bitmap"]) -> "Bitmap":
        """AND of all given bitmaps in a single pass over the raw bit words.

        Faster than chaining ``&`` for k-way candidate bitmaps because no
        intermediate :class:`Bitmap` objects are allocated.  Raises
        :class:`ConfigurationError` on empty input (there is no universal
        identity without a length) or on a length mismatch.
        """
        return cls._combine_all(bitmaps, "intersect_all", int.__and__)

    @classmethod
    def union_all(cls, bitmaps: Iterable["Bitmap"]) -> "Bitmap":
        """OR of all given bitmaps in a single pass over the raw bit words.

        Same contract as :meth:`intersect_all`: at least one bitmap is
        required and all lengths must agree.
        """
        return cls._combine_all(bitmaps, "union_all", int.__or__)

    @classmethod
    def _combine_all(cls, bitmaps, operation_name, combine) -> "Bitmap":
        iterator = iter(bitmaps)
        first = next(iterator, None)
        if first is None:
            raise ConfigurationError(f"{operation_name} needs at least one Bitmap")
        if not isinstance(first, Bitmap):
            raise ConfigurationError("Bitmap operations require another Bitmap")
        bits = first._bits
        for other in iterator:
            first._check_compatible(other)
            bits = combine(bits, other._bits)
        return cls(first._length, bits)

    def resized(self, length: int) -> "Bitmap":
        """Copy of this bitmap with ``length`` addressable bits.

        Growing pads with zero bits — the representation of sequences
        appended to the database in which the indexed object does not
        (yet) occur.  Shrinking would silently drop support evidence, so it
        is rejected.
        """
        if length < self._length:
            raise ConfigurationError(
                f"cannot shrink a Bitmap from {self._length} to {length} bits"
            )
        return Bitmap(length, self._bits)

    # ------------------------------------------------------------------ basics
    @property
    def length(self) -> int:
        """Number of addressable bits (``|DSEQ|``)."""
        return self._length

    def count(self) -> int:
        """Population count — the support of the indexed object."""
        return self._bits.bit_count()

    def to_bytes(self, size: int) -> bytes:
        """The bits as ``size`` little-endian bytes (see :meth:`from_bytes`);
        a multiple of 8 reads as ``uint64`` words."""
        return self._bits.to_bytes(size, "little")

    def get(self, index: int) -> bool:
        """Whether bit ``index`` is set."""
        self._check_index(index)
        return bool((self._bits >> index) & 1)

    def set(self, index: int) -> None:
        """Set bit ``index``."""
        self._check_index(index)
        self._bits |= 1 << index

    def clear(self, index: int) -> None:
        """Clear bit ``index``."""
        self._check_index(index)
        self._bits &= ~(1 << index)

    def indices(self) -> Iterator[int]:
        """Iterate over the set bit positions in increasing order."""
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    # ------------------------------------------------------------------ set algebra
    def __and__(self, other: "Bitmap") -> "Bitmap":
        self._check_compatible(other)
        return Bitmap(self._length, self._bits & other._bits)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        self._check_compatible(other)
        return Bitmap(self._length, self._bits | other._bits)

    def __xor__(self, other: "Bitmap") -> "Bitmap":
        self._check_compatible(other)
        return Bitmap(self._length, self._bits ^ other._bits)

    def __invert__(self) -> "Bitmap":
        return Bitmap(self._length, ~self._bits)

    def difference(self, other: "Bitmap") -> "Bitmap":
        """Bits set in ``self`` but not in ``other``."""
        self._check_compatible(other)
        return Bitmap(self._length, self._bits & ~other._bits)

    def is_subset_of(self, other: "Bitmap") -> bool:
        """True when every set bit of ``self`` is also set in ``other``."""
        self._check_compatible(other)
        return self._bits & ~other._bits == 0

    # ------------------------------------------------------------------ dunder plumbing
    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._length == other._length and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._length, self._bits))

    def __bool__(self) -> bool:
        return self._bits != 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Bitmap(length={self._length}, count={self.count()})"

    # ------------------------------------------------------------------ internals
    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._length:
            raise ConfigurationError(
                f"bit index {index} out of range for Bitmap of length {self._length}"
            )

    def _check_compatible(self, other: "Bitmap") -> None:
        if not isinstance(other, Bitmap):
            raise ConfigurationError("Bitmap operations require another Bitmap")
        if self._length != other._length:
            raise ConfigurationError(
                f"Bitmap length mismatch: {self._length} vs {other._length}"
            )
