"""The Aurora filesystem as a FileBench engine (Figure 3).

Same interface as the ZFS/FFS engines, with Aurora's cost profile:
simple per-block mapping updates (the store's metadata is designed for
low-latency periodic checkpoints), a *global-lock* file creation path
(unoptimized, per §9.1), and a no-op ``fsync`` (checkpoint
consistency).  Dirty data reaches the device through the 10 ms
checkpoint cadence; the engine charges the periodic commit cost so
sustained throughput includes it.
"""

from __future__ import annotations

from ..core import costs
from ..units import MSEC
from .fsbase import BenchFile, BenchFilesystem


class AuroraFSModel(BenchFilesystem):
    """Aurora object-store-backed filesystem engine."""

    name = "aurora"

    def __init__(self, machine, checkpoint_period_ns: int = 10 * MSEC):
        super().__init__(machine)
        self.checkpoint_period_ns = checkpoint_period_ns
        self._next_commit = self.clock.now() + checkpoint_period_ns
        self.commits = 0

    def _maybe_commit(self) -> None:
        """Charge the periodic checkpoint commit when its time comes."""
        while self.clock.now() >= self._next_commit:
            self.clock.advance(costs.STORE_COMMIT)
            self._next_commit += self.checkpoint_period_ns
            self.commits += 1

    def _create_cost(self) -> int:
        return costs.SLSFS_CREATE_GLOBAL_LOCK

    def _write_cost(self, nblocks: int, nbytes: int) -> int:
        self._maybe_commit()
        return nblocks * costs.SLSFS_BLOCK_UPDATE

    def _fsync(self, file: BenchFile) -> None:
        # Checkpoint consistency: fsync is a no-op (§5.2); data becomes
        # durable at the next 10 ms checkpoint instead.
        self.clock.advance(costs.SLSFS_FSYNC)
        self._maybe_commit()

    def drain(self) -> None:
        """Wait out queued IO, charging periodic commits crossed."""
        super().drain()
        # Waiting out the queued IO spans checkpoint periods too.
        self._maybe_commit()
