"""The RocksDB facade: memtable + WAL + LSM tree.

Configurations map to the paper's Figure 6 bars:

* ``DBOptions(wal=False)`` — the ephemeral baseline (no persistence);
  also the configuration run under Aurora's transparent 10 ms
  checkpoints (Aurora-100Hz).
* ``DBOptions(wal=True, sync=False)`` — builtin WAL, buffered.
* ``DBOptions(wal=True, sync=True)`` — builtin WAL with fsync per
  write group (full persistence).

Writes land in the memtable (touching arena pages of the owning
process, so transparent checkpointing sees real dirty sets); the WAL
lives on the kernel filesystem, whose fsync cost profile is whatever
filesystem the machine mounts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ...core import costs
from ...units import MiB, PAGE_SIZE
from .compaction import LevelSet
from .memtable import MemTable
from .wal import WALWriter


@dataclass
class DBOptions:
    """Tunables selecting the Figure 6 configuration."""
    wal: bool = True
    sync: bool = False
    #: Flush threshold; the paper sizes it to hold the whole dataset.
    memtable_bytes: int = 256 * MiB
    group_commit_size: int = 32


class RocksDB:
    """One database instance owned by a simulated process."""

    def __init__(self, kernel, proc, directory: str = "/rocksdb",
                 options: Optional[DBOptions] = None):
        self.kernel = kernel
        self.proc = proc
        self.options = options or DBOptions()
        self.directory = directory
        if not kernel.vfs.exists(directory):
            kernel.mkdir(proc, directory)
        self.memtable = MemTable(seed=1)
        self.immutable: Optional[MemTable] = None
        self.levels = LevelSet(kernel, proc, directory)
        self.wal: Optional[WALWriter] = None
        if self.options.wal:
            self.wal = WALWriter(kernel, proc, f"{directory}/wal.log",
                                 self.options.group_commit_size)
        # Memtable arena: a real mapped region so writes dirty pages.
        self.arena = proc.vmspace.mmap(self.options.memtable_bytes,
                                       name="memtable-arena")
        self.arena_pages = self.options.memtable_bytes // PAGE_SIZE
        self._arena_cursor = 0
        self._node_rng = random.Random(7)
        self.stats = {"puts": 0, "gets": 0, "flushes": 0}

    # -- arena dirtying -----------------------------------------------------------------

    def _touch_arena(self, nbytes: int) -> None:
        """Advance the arena tail (value + node storage) and dirty an
        existing skiplist-node page: the write pattern transparent
        checkpointing must track."""
        space = self.proc.vmspace
        if self._arena_cursor + nbytes >= self.arena_pages * PAGE_SIZE:
            self._arena_cursor = 0
        start_page = self._arena_cursor // PAGE_SIZE
        self._arena_cursor += nbytes
        end_page = self._arena_cursor // PAGE_SIZE
        space.touch(self.arena + start_page * PAGE_SIZE,
                    max(end_page - start_page, 1), seed=start_page)
        if start_page > 8:
            # Interior node updates (skiplist level pointers + index
            # node) on random pages of the already-filled region.
            for _ in range(2):
                node_page = self._node_rng.randrange(0, start_page)
                space.touch(self.arena + node_page * PAGE_SIZE, 1,
                            seed=node_page)

    def preload(self, nbytes: int) -> None:
        """Pre-populate the memtable arena (the paper sizes the
        memtable to hold the whole database in memory, so benchmark
        runs start against an already-loaded arena)."""
        npages = min(nbytes // PAGE_SIZE, self.arena_pages - 1)
        self.proc.vmspace.fill(self.arena, npages, seed=0xDB)
        self._arena_cursor = npages * PAGE_SIZE

    # -- the data path ------------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Write: optional WAL append + memtable insert + arena dirtying."""
        self.kernel.clock.advance(costs.ROCKSDB_MEMTABLE_OP)
        if self.wal is not None:
            self.kernel.clock.advance(costs.ROCKSDB_WAL_ENCODE +
                                      costs.ROCKSDB_WAL_BUFFERED_APPEND)
            self.wal.append(key, value, sync=self.options.sync)
        self.memtable.put(key, value)
        self._touch_arena(len(key) + len(value)
                          + MemTable.ENTRY_OVERHEAD)
        self.stats["puts"] += 1
        if self.memtable.approximate_bytes >= self.options.memtable_bytes:
            self.flush_memtable()

    def delete(self, key: bytes) -> None:
        """Tombstone write."""
        self.kernel.clock.advance(costs.ROCKSDB_MEMTABLE_OP)
        if self.wal is not None:
            self.wal.append(key, b"", sync=self.options.sync)
        self.memtable.delete(key)
        self._touch_arena(len(key) + MemTable.ENTRY_OVERHEAD)

    def get(self, key: bytes) -> Optional[bytes]:
        """Read: memtable, immutable memtable, then the LSM tree."""
        self.kernel.clock.advance(costs.ROCKSDB_MEMTABLE_OP)
        self.stats["gets"] += 1
        found, value = self.memtable.get(key)
        if found:
            return value
        if self.immutable is not None:
            found, value = self.immutable.get(key)
            if found:
                return value
        found, value = self.levels.get(key)
        return value if found else None

    # -- flush / compaction ----------------------------------------------------------------------

    def flush_memtable(self) -> None:
        """Write the memtable as an L0 SSTable and reset the WAL."""
        entries = list(self.memtable.entries())
        if not entries:
            return
        self.immutable = self.memtable
        self.memtable = MemTable(seed=self.stats["flushes"] + 2)
        self.levels.add_l0(entries)
        self.immutable = None
        if self.wal is not None:
            self.wal.reset()
        self._arena_cursor = 0
        self.stats["flushes"] += 1
        self.levels.maybe_compact()

    # -- recovery ------------------------------------------------------------------------------------

    def recover(self) -> int:
        """Post-restart: replay the WAL into a fresh memtable.

        Returns the number of records replayed.  (SSTable discovery is
        the caller's job in this reproduction; the paper's experiment
        never flushes, so the WAL is the whole story.)"""
        if self.wal is None:
            return 0
        records = self.wal.replay()
        for key, value in records:
            if value == b"":
                self.memtable.delete(key)
            else:
                self.memtable.put(key, value)
        return len(records)
