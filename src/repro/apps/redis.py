"""A Redis-like key-value store with fork-based RDB persistence.

Used by Tables 1 and 7: a 500 MiB instance checkpointed by CRIU, by
Redis's own RDB mechanism (BGSAVE forks; the child serializes the
keyspace while the parent keeps serving through COW), and by Aurora.
The data path is real — keys live in pages of the process heap, BGSAVE
uses the simulated kernel's actual ``fork`` (so its stop time *is* the
COW setup cost of §Table 7), and the serializer walks the keyspace.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core import costs
from ..errors import InvalidArgument, NoSuchFile
from ..units import MiB, PAGE_SIZE, pages_of


class RDBReport:
    """Timing of one RDB save."""

    def __init__(self):
        self.fork_stop_ns = 0      # parent stop time (BGSAVE)
        self.serialize_ns = 0      # child CPU serializing key/values
        self.io_write_ns = 0       # child writing the RDB file
        self.total_ns = 0
        self.keys = 0
        self.bytes_written = 0


class RedisServer:
    """One Redis instance running as a simulated process."""

    #: Keyspace hash-table pages per MiB of values (item headers, the
    #: main dict, expires dict...).
    OVERHEAD_RATIO = 0.06

    def __init__(self, kernel, name: str = "redis",
                 heap_bytes: int = 64 * MiB):
        self.kernel = kernel
        self.proc = kernel.spawn(name)
        self.heap_pages = pages_of(heap_bytes)
        self.heap = self.proc.vmspace.mmap(heap_bytes, name="redis-heap")
        #: Small-scale real data (correctness tests).
        self.data: Dict[str, bytes] = {}
        #: key -> (heap offset, length) for real-data keys.
        self._layout: Dict[str, Tuple[int, int]] = {}
        self._heap_cursor = 0
        #: Benchmark-scale synthetic keyspace.
        self.synthetic_keys = 0
        self.synthetic_value_size = 0
        self._filled_pages = 0

    # -- data path -----------------------------------------------------------------

    def set(self, key: str, value: bytes) -> None:
        """SET: store the value in heap pages (real bytes)."""
        self.kernel.clock.advance(costs.REDIS_OP_CPU)
        offset = self._heap_cursor
        if offset + len(value) > self.heap_pages * PAGE_SIZE:
            raise InvalidArgument("redis heap full")
        self.proc.vmspace.write(self.heap + offset, value)
        self._heap_cursor += max(len(value), 16)
        self.data[key] = value
        self._layout[key] = (offset, len(value))

    def get(self, key: str) -> bytes:
        """GET: read the value bytes back out of the heap."""
        self.kernel.clock.advance(costs.REDIS_OP_CPU)
        layout = self._layout.get(key)
        if layout is None:
            raise NoSuchFile(key)
        offset, length = layout
        return self.proc.vmspace.read(self.heap + offset, length)

    def populate_synthetic(self, total_bytes: int,
                           value_size: int = 4096) -> int:
        """Fill the instance to ``total_bytes`` resident (benchmarks).

        Returns the number of keys.  Pages are installed synthetically
        (content is a function of the seed) so a 500 MiB instance
        costs no real memory.
        """
        npages = pages_of(int(total_bytes * (1 + self.OVERHEAD_RATIO)))
        if npages > self.heap_pages:
            raise InvalidArgument("heap too small for the dataset")
        self.proc.vmspace.fill(self.heap, npages, seed=0x4ED1)
        self._filled_pages = npages
        self.synthetic_keys = total_bytes // value_size
        self.synthetic_value_size = value_size
        return self.synthetic_keys

    def resident_pages(self) -> int:
        """Pages resident in the server's address space."""
        return self.proc.vmspace.resident_pages()

    def key_count(self) -> int:
        """Total keys (synthetic + real)."""
        return self.synthetic_keys + len(self.data)

    def dataset_bytes(self) -> int:
        """Logical dataset size in bytes."""
        synthetic = self.synthetic_keys * self.synthetic_value_size
        real = sum(len(v) for v in self.data.values())
        return synthetic + real

    # -- RDB persistence ----------------------------------------------------------------

    def _serialize_keyspace_ns(self) -> int:
        return self.key_count() * costs.RDB_SERIALIZE_PER_KEY

    def _write_rdb_ns(self, nbytes: int) -> int:
        return (nbytes * 1_000_000_000) // costs.RDB_WRITE_BW

    def bgsave(self) -> RDBReport:
        """BGSAVE: fork, then the child serializes and writes.

        The parent's stop time is the fork itself (page-table COW
        setup — Table 7's 8 ms for 500 MiB); serialization and IO
        happen in the child, concurrent with the parent serving.
        """
        report = RDBReport()
        clock = self.kernel.clock
        t0 = clock.now()
        child = self.kernel.fork(self.proc, name="redis-bgsave")
        report.fork_stop_ns = clock.now() - t0

        report.keys = self.key_count()
        report.bytes_written = self.dataset_bytes()
        report.serialize_ns = self._serialize_keyspace_ns()
        report.io_write_ns = self._write_rdb_ns(report.bytes_written)
        # The child runs concurrently; its wall time is serialize+IO.
        report.total_ns = report.fork_stop_ns + report.serialize_ns \
            + report.io_write_ns
        child.exit(0)
        self.proc.reap(child)
        return report

    def save(self) -> RDBReport:
        """SAVE: blocking variant — the server stops for the duration."""
        report = RDBReport()
        report.keys = self.key_count()
        report.bytes_written = self.dataset_bytes()
        report.serialize_ns = self._serialize_keyspace_ns()
        report.io_write_ns = self._write_rdb_ns(report.bytes_written)
        report.fork_stop_ns = 0
        report.total_ns = report.serialize_ns + report.io_write_ns
        self.kernel.clock.advance(report.total_ns)
        return report
