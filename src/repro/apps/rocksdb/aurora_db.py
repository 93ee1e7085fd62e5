"""The Aurora RocksDB port (§9.6): 81k lines of persistence code
replaced by ~109.

What the paper's modified RocksDB does — and this class reproduces:

* the log-structured merge tree and its SSTables are **gone**: the
  memtable holds the whole database and Aurora persists it;
* the write-ahead log becomes an ``sls_journal`` region: every write
  (group) is one synchronous, non-COW journal append (~28 µs for
  4 KiB) before the acknowledgement;
* when the journal fills, the application triggers an Aurora
  checkpoint and truncates the journal — after which the journal's
  contents are redundant with the checkpoint.

Recovery = restore the checkpoint via Aurora, then replay the journal
tail into the memtable.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ...core import costs
from ...core.api import AuroraAPI
from ...units import MiB, PAGE_SIZE
from .memtable import MemTable
from .wal import decode_records, encode_record


class AuroraRocksDB:
    """RocksDB with its persistence layer replaced by the Aurora API."""

    def __init__(self, kernel, proc, api: AuroraAPI,
                 journal_bytes: int = 16 * MiB,
                 memtable_bytes: int = 256 * MiB,
                 group_commit_size: int = 32):
        self.kernel = kernel
        self.proc = proc
        self.api = api
        self.memtable = MemTable(seed=1)
        self.journal = api.sls_journal_open(journal_bytes)
        self.journal_capacity = journal_bytes
        self.group_commit_size = group_commit_size
        self._group: List[bytes] = []
        self._group_bytes = 0
        self.arena = proc.vmspace.mmap(memtable_bytes,
                                       name="memtable-arena")
        self.arena_pages = memtable_bytes // PAGE_SIZE
        self._arena_cursor = 0
        self._node_rng = random.Random(7)
        self.stats = {"puts": 0, "gets": 0, "journal_appends": 0,
                      "checkpoints": 0}

    # -- arena dirtying (same pattern as the baseline) ---------------------------------

    def _touch_arena(self, nbytes: int) -> None:
        space = self.proc.vmspace
        if self._arena_cursor + nbytes >= self.arena_pages * PAGE_SIZE:
            self._arena_cursor = 0
        start_page = self._arena_cursor // PAGE_SIZE
        self._arena_cursor += nbytes
        end_page = self._arena_cursor // PAGE_SIZE
        space.touch(self.arena + start_page * PAGE_SIZE,
                    max(end_page - start_page, 1), seed=start_page)
        if start_page > 8:
            for _ in range(2):
                node_page = self._node_rng.randrange(0, start_page)
                space.touch(self.arena + node_page * PAGE_SIZE, 1,
                            seed=node_page)

    def preload(self, nbytes: int) -> None:
        """Pre-populate the memtable arena (see RocksDB.preload)."""
        from ...units import PAGE_SIZE as _PS
        npages = min(nbytes // _PS, self.arena_pages - 1)
        self.proc.vmspace.fill(self.arena, npages, seed=0xDB)
        self._arena_cursor = npages * _PS

    # -- data path -------------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Write: journal (group-committed, synchronous) + memtable."""
        self.kernel.clock.advance(costs.ROCKSDB_MEMTABLE_OP +
                                  costs.ROCKSDB_WAL_ENCODE)
        self._group.append(encode_record(key, value))
        self._group_bytes += len(key) + len(value) + 16
        if len(self._group) >= self.group_commit_size:
            self._commit_group()
        self.memtable.put(key, value)
        self._touch_arena(len(key) + len(value) + MemTable.ENTRY_OVERHEAD)
        self.stats["puts"] += 1

    def _commit_group(self) -> None:
        if not self._group:
            return
        payload = b"".join(self._group)
        self._group = []
        self._group_bytes = 0
        if self._journal_nearly_full(len(payload)):
            self._rollover()
        self.journal.append(payload)
        self.stats["journal_appends"] += 1

    def _journal_nearly_full(self, nbytes: int) -> bool:
        from ...objstore.journal import SLOT_SIZE
        slots_needed = (nbytes + 512) // SLOT_SIZE + 2
        return self.journal.head_slot + slots_needed >= self.journal.nslots

    def _rollover(self) -> None:
        """Journal full: checkpoint via Aurora, then clear the WAL.

        The write that trips this waits for the checkpoint — the
        paper's explanation of the port's 99.9th-percentile tail."""
        self.api.sls_checkpoint(sync=True)
        self.journal.truncate()
        self.stats["checkpoints"] += 1

    def flush(self) -> None:
        """Group-commit any buffered records to the journal."""
        self._commit_group()

    def get(self, key: bytes) -> Optional[bytes]:
        """Reads never touch storage: the memtable is the database."""
        self.kernel.clock.advance(costs.ROCKSDB_MEMTABLE_OP)
        self.stats["gets"] += 1
        _found, value = self.memtable.get(key)
        return value

    def delete(self, key: bytes) -> None:
        """Tombstone write (an empty-value put)."""
        self.put(key, b"")

    # -- recovery ------------------------------------------------------------------------------

    @classmethod
    def recover(cls, kernel, proc, api: AuroraAPI, journal,
                memtable: Optional[MemTable] = None) -> "AuroraRocksDB":
        """After an Aurora restore: replay the journal tail.

        The restored process memory already holds the memtable as of
        the last checkpoint; journal records newer than it are
        replayed on top."""
        db = cls.__new__(cls)
        db.kernel = kernel
        db.proc = proc
        db.api = api
        db.memtable = memtable if memtable is not None else MemTable(seed=1)
        db.journal = journal
        db.journal_capacity = journal.capacity
        db.group_commit_size = 32
        db._group = []
        db._group_bytes = 0
        db.arena = None
        db.arena_pages = 0
        db._arena_cursor = 0
        db._node_rng = random.Random(7)
        db.stats = {"puts": 0, "gets": 0, "journal_appends": 0,
                    "checkpoints": 0}
        for chunk in journal.replay():
            for key, value in decode_records(chunk):
                db.memtable.put(key, value)
        return db
