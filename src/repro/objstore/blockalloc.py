"""Extent allocation for the object store.

Never-overwrite semantics fall out of the allocator: live extents are
simply never handed out again until freed by GC.  Allocations are
4 KiB aligned; *data* allocations additionally cap at one stripe unit
(64 KiB) so consecutive page batches round-robin across the array's
devices — that fan-out is where the paper's ~5.4 GiB/s aggregate flush
bandwidth comes from, while single-stream journal slots stay on one
device at a time.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from ..errors import InvalidArgument, StoreFull
from ..units import KiB, STRIPE_SIZE

ALIGN = 4 * KiB


def _align_up(value: int, align: int = ALIGN) -> int:
    return (value + align - 1) // align * align


class ExtentAllocator:
    """Bump allocator with a first-fit free list."""

    def __init__(self, capacity: int, reserved: int = 2 * STRIPE_SIZE,
                 cursor: Optional[int] = None) -> None:
        if capacity <= reserved:
            raise InvalidArgument("device smaller than reserved area")
        self.capacity = capacity
        self.reserved = reserved
        self.cursor = cursor if cursor is not None else reserved
        #: Freed extents: sorted list of (offset, length).
        self._free: List[Tuple[int, int]] = []
        self.allocated_bytes = 0
        self.freed_bytes = 0

    def alloc(self, nbytes: int) -> int:
        """Allocate an extent of at least ``nbytes``; returns offset."""
        if nbytes <= 0:
            raise InvalidArgument("extent size must be positive")
        want = _align_up(nbytes)
        for index, (offset, length) in enumerate(self._free):
            if length >= want:
                remainder = length - want
                if remainder >= ALIGN:
                    self._free[index] = (offset + want, remainder)
                else:
                    del self._free[index]
                self.allocated_bytes += want
                return offset
        if self.cursor + want > self.capacity:
            raise StoreFull(
                f"object store full: need {want}B, "
                f"{self.capacity - self.cursor}B left")
        offset = self.cursor
        self.cursor += want
        self.allocated_bytes += want
        return offset

    def free(self, offset: int, nbytes: int) -> None:
        """Return an extent to the free list (coalescing neighbours)."""
        length = _align_up(nbytes)
        entry = (offset, length)
        index = bisect.bisect_left(self._free, entry)
        # Coalesce with successor.
        if index < len(self._free):
            next_off, next_len = self._free[index]
            if offset + length == next_off:
                entry = (offset, length + next_len)
                del self._free[index]
        # Coalesce with predecessor.
        if index > 0:
            prev_off, prev_len = self._free[index - 1]
            if prev_off + prev_len == entry[0]:
                entry = (prev_off, prev_len + entry[1])
                del self._free[index - 1]
                index -= 1
        self._free.insert(index, entry)
        self.freed_bytes += length

    def free_bytes(self) -> int:
        """Unallocated bytes remaining (tail + free list)."""
        tail = self.capacity - self.cursor
        return tail + sum(length for _off, length in self._free)

    def used_bytes(self) -> int:
        """Live allocated bytes."""
        return self.allocated_bytes - self.freed_bytes
