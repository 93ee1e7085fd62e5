"""Extent allocation for the object store.

Never-overwrite semantics fall out of the allocator: live extents are
simply never handed out again until freed by GC.  Allocations are
4 KiB aligned, first fit, else off the bump cursor.  The store asks for
data extents of at most one stripe unit (64 KiB), an object's run of
them in one :meth:`ExtentAllocator.alloc_run` call, so the run lands on
consecutive units across the array's devices — that fan-out is where
the paper's ~5.4 GiB/s aggregate flush bandwidth comes from.  The free
list lives only in memory: the superblock stores the cursor, and a
mount rebuilds it from the owners (:meth:`ExtentAllocator.derive`).
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Tuple

from ..errors import InvalidArgument, StoreFull
from ..units import KiB, STRIPE_SIZE

ALIGN = 4 * KiB

#: :meth:`ExtentAllocator.snapshot`: cursor and free list.
AllocState = Tuple[int, List[Tuple[int, int]]]


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

    def alloc(self, nbytes: int) -> int:
        """Allocate an extent of at least ``nbytes``; returns offset."""
        return self.alloc_run(nbytes, 1)[0][0]

    def alloc_run(self, nbytes: int, count: int) -> List[Tuple[int, int]]:
        """What ``count`` :meth:`alloc` calls of ``nbytes`` return, as
        ``(offset, extents)`` pieces of back-to-back extents; short only
        where the next :meth:`alloc` would raise :class:`StoreFull`."""
        if nbytes <= 0:
            raise InvalidArgument("extent size must be positive")
        want = _align_up(nbytes)
        pieces: List[Tuple[int, int]] = []
        while count:   # first fit: a hole serves as many as fit
            for index, (offset, length) in enumerate(self._free):
                if length >= want:
                    break
            else:
                break
            taken = min(count, length // want)
            pieces.append((offset, taken))
            count -= taken
            if length > taken * want:
                self._free[index] = (offset + taken * want, length - taken * want)
            else:
                del self._free[index]
        if count and self.cursor + want <= self.capacity:
            taken = min(count, (self.capacity - self.cursor) // want)
            pieces.append((self.cursor, taken))
            self.cursor += taken * want
        if not pieces:
            raise StoreFull(
                f"object store full: need {want}B, "
                f"{self.capacity - self.cursor}B left")
        return pieces

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

    def snapshot(self) -> AllocState:
        """The allocator's whole state, for :meth:`restore`."""
        return self.cursor, list(self._free)

    def restore(self, state: AllocState) -> None:
        """Undo every allocation and free made since ``state`` was
        taken (a failed superblock flip or GC delete)."""
        self.cursor, free = state
        self._free = list(free)

    def derive(self, owned: Iterable[Tuple[int, int]]
               ) -> List[Tuple[int, int]]:
        """The free list ``owned`` leaves: every stretch of ``[reserved,
        cursor)`` that no ``(offset, length)`` of it covers, coalesced.
        The store's one free-list derivation: a mount sets it, scrub
        compares the allocator with it and repair puts it back."""
        gaps = []
        at = self.reserved
        for offset, length in sorted(owned):
            if offset > at:
                gaps.append((at, offset - at))
            at = max(at, _align_up(offset + length))
        if self.cursor > at:
            gaps.append((at, self.cursor - at))
        return gaps

    def unowned(self, owned: Iterable[Tuple[int, int]]
                ) -> List[Tuple[int, int]]:
        """The stretches handed out and not freed that no ``(offset,
        length)`` of ``owned`` covers."""
        return self.derive([*self._free, *owned])

    def free_bytes(self) -> int:
        """Unallocated bytes remaining (tail + free list)."""
        tail = self.capacity - self.cursor
        return tail + sum(length for _off, length in self._free)

    def used_bytes(self) -> int:
        """Bytes handed out and not freed: everything below the cursor
        but the free list."""
        return (self.cursor - self.reserved
                - sum(length for _off, length in self._free))
