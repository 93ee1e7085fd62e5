"""RocksDB's write-ahead log over the kernel filesystem.

CRC-framed records appended to a regular file.  ``sync=True`` issues
an ``fsync`` after the append — whose cost depends entirely on the
mounted filesystem (the crux of Figure 6: FFS pays a real flush, the
Aurora port replaces this file with ``sls_journal``).  Group commit is
modeled: concurrent writers share one fsync per batch, as RocksDB's
write group leader does.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Tuple

_HDR = struct.Struct("<II")  # crc32, length


def encode_record(key: bytes, value: bytes) -> bytes:
    """CRC-framed wire form of one (key, value)."""
    body = struct.pack("<I", len(key)) + key + value
    return _HDR.pack(zlib.crc32(body), len(body)) + body


def decode_records(data: bytes) -> List[Tuple[bytes, bytes]]:
    """Replay a WAL file; stops at the first torn/corrupt record."""
    out = []
    offset = 0
    while offset + _HDR.size <= len(data):
        crc, length = _HDR.unpack_from(data, offset)
        body = data[offset + _HDR.size:offset + _HDR.size + length]
        if len(body) != length or zlib.crc32(body) != crc:
            break
        (klen,) = struct.unpack_from("<I", body, 0)
        key = body[4:4 + klen]
        value = body[4 + klen:]
        out.append((key, value))
        offset += _HDR.size + length
    return out


class WALWriter:
    """Append-only log on one open file descriptor."""

    def __init__(self, kernel, proc, path: str,
                 group_commit_size: int = 32):
        from ...kernel.fs.file import O_CREAT, O_RDWR, O_APPEND

        self.kernel = kernel
        self.proc = proc
        self.path = path
        self.fd = kernel.open(proc, path, O_CREAT | O_RDWR | O_APPEND)
        self.group_commit_size = group_commit_size
        self._pending_in_group = 0
        #: Library-side buffer: buffered (non-sync) appends batch into
        #: page-sized kernel writes, as RocksDB's log writer does.
        self._buffer = bytearray()
        self.appends = 0
        self.syncs = 0

    def _drain_buffer(self) -> None:
        if self._buffer:
            self.kernel.write(self.proc, self.fd, bytes(self._buffer))
            self._buffer.clear()

    def append(self, key: bytes, value: bytes, sync: bool) -> None:
        """Append one record (buffered; fsync per sync write group)."""
        record = encode_record(key, value)
        self._buffer += record
        self.appends += 1
        if len(self._buffer) >= 4096:
            self._drain_buffer()
        if sync:
            # Group commit: one fsync per group_commit_size writers.
            self._pending_in_group += 1
            if self._pending_in_group >= self.group_commit_size:
                self._drain_buffer()
                self.kernel.fsync(self.proc, self.fd)
                self.syncs += 1
                self._pending_in_group = 0

    def flush(self) -> None:
        """Drain the library buffer and fsync any pending group."""
        self._drain_buffer()
        if self._pending_in_group:
            self.kernel.fsync(self.proc, self.fd)
            self.syncs += 1
            self._pending_in_group = 0

    def size(self) -> int:
        """Log bytes, including the not-yet-drained buffer."""
        return self.proc.fdtable.get(self.fd).vnode.size \
            + len(self._buffer)

    def replay(self) -> List[Tuple[bytes, bytes]]:
        """Replay the *durable* part of the log (a crash loses the
        library buffer — that is the No Sync configuration's deal)."""
        vnode = self.proc.fdtable.get(self.fd).vnode
        return decode_records(vnode.read(0, vnode.size))

    def reset(self) -> None:
        """Truncate after a memtable flush made the log obsolete."""
        self.proc.fdtable.get(self.fd).vnode.truncate(0)
        self.proc.fdtable.get(self.fd).offset = 0
        self._pending_in_group = 0
        self._buffer.clear()
