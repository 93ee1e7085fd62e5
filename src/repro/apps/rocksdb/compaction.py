"""Leveled compaction.

L0 holds possibly-overlapping memtable flushes; L1+ are sorted,
non-overlapping runs whose total size grows by 10x per level.  When a
level exceeds its budget, its tables are merged with the overlapping
tables of the next level into fresh tables (newest version of each key
wins; tombstones are dropped at the bottom level).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ...units import MiB
from .sstable import SSTable

#: L0 flush count that triggers compaction into L1.
L0_COMPACTION_TRIGGER = 4
#: L1 size budget; each deeper level is 10x larger.
L1_BUDGET = 8 * MiB
LEVEL_MULTIPLIER = 10
MAX_LEVEL = 4


def merge_entries(sources: List[List[Tuple[bytes, Optional[bytes]]]],
                  drop_tombstones: bool
                  ) -> List[Tuple[bytes, Optional[bytes]]]:
    """k-way merge; earlier sources are newer and win on ties."""
    merged: List[Tuple[bytes, Optional[bytes]]] = []
    heap = []
    for source_index, entries in enumerate(sources):
        if entries:
            heap.append((entries[0][0], source_index, 0))
    heapq.heapify(heap)
    last_key: Optional[bytes] = None
    while heap:
        key, source_index, pos = heapq.heappop(heap)
        entries = sources[source_index]
        value = entries[pos][1]
        is_duplicate = key == last_key
        if not is_duplicate:
            # Among equal keys the smallest source_index (newest) pops
            # first because of tuple ordering.
            if value is not None or not drop_tombstones:
                merged.append((key, value))
            last_key = key
        if pos + 1 < len(entries):
            heapq.heappush(heap, (entries[pos + 1][0], source_index,
                                  pos + 1))
    return merged


class LevelSet:
    """The LSM tree's on-disk structure: tables per level."""

    def __init__(self, kernel, proc, directory: str):
        self.kernel = kernel
        self.proc = proc
        self.directory = directory
        self.levels: Dict[int, List[SSTable]] = {i: []
                                                 for i in range(MAX_LEVEL + 1)}
        self._file_counter = 0
        self.compactions = 0

    def _next_path(self) -> str:
        self._file_counter += 1
        return f"{self.directory}/{self._file_counter:06d}.sst"

    def table_size(self, table: SSTable) -> int:
        """On-disk bytes of one table."""
        return self.kernel.vfs.namei(table.path).size

    def level_bytes(self, level: int) -> int:
        """Total bytes at one level."""
        return sum(self.table_size(t) for t in self.levels[level])

    def add_l0(self, entries: List[Tuple[bytes, Optional[bytes]]]) -> SSTable:
        """Write a memtable flush as a new L0 table."""
        table = SSTable.build(self.kernel, self.proc, self._next_path(),
                              entries)
        self.levels[0].insert(0, table)  # newest first
        return table

    # -- reads ---------------------------------------------------------------------

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """LSM read path: L0 newest-first, then binary levels."""
        for table in self.levels[0]:          # newest first
            found, value = table.get(key)
            if found:
                return True, value
        for level in range(1, MAX_LEVEL + 1):
            for table in self.levels[level]:
                if table.smallest <= key <= table.largest:
                    found, value = table.get(key)
                    if found:
                        return True, value
                    break  # non-overlapping: only one candidate
        return False, None

    # -- compaction -------------------------------------------------------------------------

    def maybe_compact(self) -> int:
        """Run compactions until every level is within budget.

        Returns the number of compactions performed."""
        ran = 0
        if len(self.levels[0]) >= L0_COMPACTION_TRIGGER:
            self._compact_level(0)
            ran += 1
        budget = L1_BUDGET
        for level in range(1, MAX_LEVEL):
            if self.level_bytes(level) > budget:
                self._compact_level(level)
                ran += 1
            budget *= LEVEL_MULTIPLIER
        return ran

    def _compact_level(self, level: int) -> None:
        source_tables = list(self.levels[level])
        target = level + 1
        overlapping = [t for t in self.levels[target]
                       if any(t.overlaps(s) for s in source_tables)]
        sources = [t.entries() for t in source_tables] \
            + [t.entries() for t in overlapping]
        drop = target == MAX_LEVEL
        merged = merge_entries(sources, drop_tombstones=drop)
        self.levels[level] = []
        self.levels[target] = [t for t in self.levels[target]
                               if t not in overlapping]
        # Write the merged run as ~budget-sized tables.
        chunk: List[Tuple[bytes, Optional[bytes]]] = []
        chunk_bytes = 0
        for key, value in merged:
            chunk.append((key, value))
            chunk_bytes += len(key) + (len(value) if value else 0)
            if chunk_bytes >= 2 * MiB:
                self.levels[target].append(
                    SSTable.build(self.kernel, self.proc,
                                  self._next_path(), chunk))
                chunk, chunk_bytes = [], 0
        if chunk:
            self.levels[target].append(
                SSTable.build(self.kernel, self.proc, self._next_path(),
                              chunk))
        self.levels[target].sort(key=lambda t: t.smallest)
        # Delete the input files.
        for table in source_tables + overlapping:
            self.kernel.vfs.unlink(table.path)
        self.compactions += 1
