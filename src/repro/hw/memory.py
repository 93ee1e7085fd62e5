"""Physical memory: page frames and page payloads.

Pages carry either *real* payloads (actual bytes, used by correctness
tests that write data, crash the machine and read it back after a
restore) or *synthetic* payloads (a deterministic ``(seed, length)``
pair, used by the multi-hundred-MiB benchmark datasets so that a
500 MiB Redis instance does not materialize 500 MiB of Python bytes).
Both kinds flow through the identical checkpoint/flush/restore paths
and are accounted identically by the IO model; only the bytes are
virtual.  A synthetic page can always be *realized* — its content is a
pure function of its seed — so even synthetic data round-trips are
verifiable.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..units import PAGE_SIZE
from ..errors import InvalidArgument


def synthetic_bytes(seed: int, length: int = PAGE_SIZE) -> bytes:
    """Deterministic content of a synthetic page with ``seed``: the
    first ``length`` bytes of the SHAKE-128 stream of ``b"<seed>:"``,
    one C call however long the page."""
    return hashlib.shake_128(b"%d:" % seed).digest(length)


class Page:
    """A single page frame's contents.

    Exactly one of ``data`` (real payload, at most :data:`PAGE_SIZE`
    bytes) or ``seed`` (synthetic payload) is set.  Pages are treated
    as immutable values: a write to a mapped page replaces the Page
    object, which is what makes COW sharing between VM objects safe.
    """

    __slots__ = ("data", "seed")

    def __init__(self, data: Optional[bytes] = None,
                 seed: Optional[int] = None) -> None:
        if (data is None) == (seed is None):
            raise InvalidArgument("exactly one of data/seed must be given")
        if data is not None and len(data) > PAGE_SIZE:
            raise InvalidArgument("page payload larger than a page")
        self.data = data
        self.seed = seed

    @property
    def synthetic(self) -> bool:
        """True for (seed, length) pages with virtual content."""
        return self.seed is not None

    def realize(self) -> bytes:
        """The page's full content as bytes (zero-padded to page size)."""
        if self.seed is not None:
            return synthetic_bytes(self.seed)
        assert self.data is not None
        return self.data.ljust(PAGE_SIZE, b"\x00")

    def copy(self) -> "Page":
        """A value-equal private copy (the COW fault path uses this)."""
        if self.seed is not None:
            return Page(seed=self.seed)
        return Page(data=self.data)

    def same_content(self, other: "Page") -> bool:
        """Value equality of two pages' contents."""
        if self.seed is not None or other.seed is not None:
            return self.seed == other.seed
        return self.realize() == other.realize()

    def __repr__(self) -> str:
        if self.seed is not None:
            return f"Page(seed={self.seed})"
        assert self.data is not None
        return f"Page({len(self.data)}B)"


class PhysicalMemory:
    """Frame accounting for one machine.

    The simulator does not model individual frame addresses — VM
    objects hold :class:`Page` values directly — but it does account
    for how many frames are in use so that memory overcommitment and
    the pageout daemon (§6 "Memory Overcommitment") have real pressure
    to react to.
    """

    def __init__(self, total_bytes: int) -> None:
        if total_bytes < PAGE_SIZE:
            raise InvalidArgument("machine needs at least one page of RAM")
        self.total_frames = total_bytes // PAGE_SIZE
        self.used_frames = 0
        #: Lifetime allocation counter (for tests/diagnostics).
        self.alloc_count = 0

    @property
    def free_frames(self) -> int:
        """Frames not currently in use."""
        return self.total_frames - self.used_frames

    def usage_ratio(self) -> float:
        """Fraction of frames in use."""
        return self.used_frames / self.total_frames

    def allocate(self, nframes: int = 1) -> None:
        """Account for ``nframes`` newly used frames.

        Allocation never fails outright — the pageout daemon is
        responsible for keeping usage below the watermarks; exceeding
        physical capacity entirely indicates a simulator bug.
        """
        if nframes < 0:
            raise InvalidArgument("cannot allocate a negative frame count")
        self.used_frames += nframes
        self.alloc_count += nframes
        if self.used_frames > self.total_frames:
            raise MemoryError(
                f"simulated machine out of memory: "
                f"{self.used_frames}/{self.total_frames} frames"
            )

    def release(self, nframes: int = 1) -> None:
        """Return frames to the free pool."""
        if nframes < 0:
            raise InvalidArgument("cannot release a negative frame count")
        if nframes > self.used_frames:
            raise InvalidArgument("releasing more frames than are in use")
        self.used_frames -= nframes
