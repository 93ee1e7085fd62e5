"""Common machinery for the FileBench filesystem engines (Figure 3).

Each engine models one metadata-update strategy over the same striped
NVMe array: what differs between ZFS, FFS and the Aurora FS in
Figure 3 is the per-operation CPU/metadata cost and the synchronous
behaviour of ``fsync`` — the data path (stripe fan-out, device
bandwidth) is shared.  The engines are driven directly by the
FileBench workload generator; the *Aurora* engine additionally models
the 10 ms checkpoint cadence of the object store backing it.
"""

from __future__ import annotations

from typing import Dict

from ..errors import NoSuchFile
from ..hw.nvme import StripedArray, synthetic_payload
from ..units import KiB, STRIPE_SIZE

#: All engines use the paper's 64 KiB filesystem block size.
FS_BLOCK = 64 * KiB


class BenchFile:
    """A file handle inside a bench filesystem."""

    __slots__ = ("name", "size", "first_block")

    def __init__(self, name: str, first_block: int):
        self.name = name
        self.size = 0
        self.first_block = first_block


class BenchFilesystem:
    """Base engine: block allocation + device IO + stat counters."""

    name = "basefs"

    def __init__(self, machine):
        self.machine = machine
        self.clock = machine.clock
        self.device: StripedArray = machine.storage
        self.files: Dict[str, BenchFile] = {}
        self._cursor = 2 * STRIPE_SIZE  # skip the superblock area
        self.stats = {"creates": 0, "writes": 0, "fsyncs": 0,
                      "bytes_written": 0}

    # -- hooks implemented per engine ------------------------------------------------

    def _create_cost(self) -> int:
        raise NotImplementedError

    def _write_cost(self, nblocks: int, nbytes: int) -> int:
        """CPU/metadata nanoseconds charged per write call."""
        raise NotImplementedError

    def _fsync(self, file: BenchFile) -> None:
        raise NotImplementedError

    # -- operations -----------------------------------------------------------------------

    def _alloc_blocks(self, nbytes: int) -> int:
        offset = self._cursor
        blocks = (nbytes + FS_BLOCK - 1) // FS_BLOCK
        self._cursor += blocks * FS_BLOCK
        if self._cursor >= self.device.capacity:
            self._cursor = 2 * STRIPE_SIZE  # recycle (bench datasets loop)
        return offset

    def create(self, name: str) -> BenchFile:
        """Create a file: engine-specific metadata cost + allocation."""
        self.clock.advance(self._create_cost())
        file = BenchFile(name, self._alloc_blocks(FS_BLOCK))
        self.files[name] = file
        self.stats["creates"] += 1
        return file

    def lookup(self, name: str) -> BenchFile:
        """Find an existing file handle by name."""
        try:
            return self.files[name]
        except KeyError:
            raise NoSuchFile(name)

    def write(self, file: BenchFile, offset: int, nbytes: int,
              seed: int = 0) -> None:
        """Write ``nbytes`` at ``offset`` (data content is synthetic)."""
        nblocks = (nbytes + FS_BLOCK - 1) // FS_BLOCK
        self.clock.advance(self._write_cost(nblocks, nbytes))
        # Data IO: one device command per stripe-unit chunk so large
        # writes fan out across the array.
        base = self._alloc_blocks(nbytes)  # COW/new allocation per write
        remaining = nbytes
        chunk_off = base
        while remaining > 0:
            chunk = min(remaining, STRIPE_SIZE)
            self.device.submit_write(chunk_off,
                                     synthetic_payload(seed, chunk))
            chunk_off += chunk
            remaining -= chunk
        file.size = max(file.size, offset + nbytes)
        self.stats["writes"] += 1
        self.stats["bytes_written"] += nbytes

    def fsync(self, file: BenchFile) -> None:
        """Engine-specific synchronous flush of one file."""
        self._fsync(file)
        self.stats["fsyncs"] += 1

    def drain(self) -> None:
        """Wait for queued IO (end of a benchmark phase)."""
        deadline = max((dev._busy_until for dev in self.device.devices),
                       default=self.clock.now())
        self.clock.advance_to(deadline)
        self.device.poll()
