"""A packed bitmap with on-disk serialization.

Every file system in the study tracks allocation with bitmaps (ext3's
block/inode bitmaps, ReiserFS's data bitmap, JFS's allocation maps,
NTFS's volume/MFT bitmaps), so the structure is shared substrate.

``find_free`` and ``count_set`` sit on every allocation and map write,
so they work a byte (or the whole map) at a time: full bytes are
skipped by one C-level regex scan, and set bits are counted on one wide
integer.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

# Matches any byte that still has a clear bit.
_NOT_FULL = re.compile(b"[^\xff]")


class Bitmap:
    """A fixed-size bitmap over ``nbits`` bits, serializable to block
    payloads.  Bit *i* set means "allocated"."""

    def __init__(self, nbits: int, raw: Optional[bytes] = None):
        if nbits <= 0:
            raise ValueError("bitmap must have at least one bit")
        self.nbits = nbits
        nbytes = (nbits + 7) // 8
        if raw is None:
            self._bytes = bytearray(nbytes)
        else:
            if len(raw) < nbytes:
                raise ValueError("raw bitmap too short")
            self._bytes = bytearray(raw[:nbytes])

    # -- single-bit operations -------------------------------------------

    def _check(self, i: int) -> None:
        if not 0 <= i < self.nbits:
            raise IndexError(f"bit {i} out of range [0, {self.nbits})")

    def test(self, i: int) -> bool:
        self._check(i)
        return bool(self._bytes[i >> 3] & (1 << (i & 7)))

    def set(self, i: int) -> None:
        self._check(i)
        self._bytes[i >> 3] |= 1 << (i & 7)

    def clear(self, i: int) -> None:
        self._check(i)
        self._bytes[i >> 3] &= ~(1 << (i & 7)) & 0xFF

    # -- bulk operations --------------------------------------------------

    def find_free(self, start: int = 0) -> Optional[int]:
        """First clear bit at or after *start*, or ``None`` if full."""
        if start >= self.nbits:
            return None
        self._check(start)
        data = self._bytes
        pos = start >> 3
        # Bits below *start* in its byte count as set.
        b = data[pos] | ((1 << (start & 7)) - 1)
        if b == 0xFF:
            m = _NOT_FULL.search(data, pos + 1)
            if m is None:
                return None
            pos = m.start()
            b = data[pos]
        # ~b & (b + 1) isolates the lowest clear bit of b.
        i = (pos << 3) + (~b & (b + 1)).bit_length() - 1
        # A clear padding bit past nbits in the last byte is not free.
        return i if i < self.nbits else None

    def find_free_run(self, length: int, start: int = 0) -> Optional[int]:
        """First run of *length* clear bits, or ``None``."""
        run = 0
        for i in range(start, self.nbits):
            run = run + 1 if not self.test(i) else 0
            if run == length:
                return i - length + 1
        return None

    def count_set(self) -> int:
        # Little-endian: bit i of the map is bit i of the integer, so
        # the mask drops the padding bits past nbits.
        value = int.from_bytes(self._bytes, "little")
        return (value & ((1 << self.nbits) - 1)).bit_count()

    def count_free(self) -> int:
        return self.nbits - self.count_set()

    def iter_set(self) -> Iterator[int]:
        for i in range(self.nbits):
            if self.test(i):
                yield i

    # -- serialization -----------------------------------------------------

    def to_bytes(self, pad_to: Optional[int] = None) -> bytes:
        data = bytes(self._bytes)
        if pad_to is not None:
            if pad_to < len(data):
                raise ValueError("pad_to smaller than bitmap payload")
            data = data + b"\x00" * (pad_to - len(data))
        return data

    @classmethod
    def from_bytes(cls, nbits: int, raw: bytes) -> "Bitmap":
        return cls(nbits, raw=raw)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.nbits == other.nbits and self._bytes == other._bytes

    def __repr__(self) -> str:
        return f"Bitmap(nbits={self.nbits}, set={self.count_set()})"
