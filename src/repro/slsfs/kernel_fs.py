"""Conventional block filesystems (FFS, ZFS) for baseline machines.

The unmodified RocksDB, Redis and CRIU experiments and the FFS and ZFS
rows of Figure 3 run on a machine with a conventional filesystem whose
``fsync`` actually costs something.  Each plugs its metadata-update
strategy's costs into the kernel's VFS hook points, while file *data*
still lives in vnode VM objects (and is volatile across crashes, as on
a real machine whose dirty page cache dies with the power).

The data path is shared (:class:`BlockFilesystem`): a write charges its
metadata cost and queues its data at a fresh allocation, one command
per stripe unit so large writes fan out over the array (write-behind);
``fsync`` charges the sync cost, then writes the inode and dirty tail
synchronously (one page: the common small append); ``sync`` waits
until every queued write has landed.
"""

from __future__ import annotations

from ..core import costs
from ..hw.nvme import synthetic_payload
from ..kernel.fs.filesystem import Filesystem
from ..kernel.fs.vfs import VFS
from ..kernel.fs.vnode import Vnode
from ..units import FS_BLOCK, GiB, MiB, PAGE_SIZE, STRIPE_SIZE

#: Data blocks are allocated past the superblock area; fsync's
#: synchronous writes cycle through the sync area.
DATA_START, SYNC_START, SYNC_END = 2 * STRIPE_SIZE, 128 * MiB, 4 * GiB


def blocks_of(nbytes: int) -> int:
    """Filesystem blocks an ``nbytes`` write allocates."""
    return (nbytes + FS_BLOCK - 1) // FS_BLOCK


class BlockFilesystem(Filesystem):
    """Per-engine create, write and fsync costs over one write-behind
    data path on the machine's striped array."""

    #: Nanoseconds per file or directory creation, and per fsync.
    create_cost = fsync_cost = 0

    def __init__(self, kernel):
        super().__init__(kernel, self.fs_type)
        self.storage = kernel.machine.storage
        self._cursor = DATA_START
        self._sync_cursor = SYNC_START

    def write_cost(self, nbytes: int) -> int:
        """CPU/metadata nanoseconds charged per write call."""
        raise NotImplementedError

    def on_create(self, vnode: Vnode) -> None:
        """Charge the engine's create path."""
        self.kernel.clock.advance(self.create_cost)

    def on_data_write(self, vnode: Vnode, offset: int, nbytes: int) -> None:
        """Charge the write, then queue its data at a new allocation
        (COW or fresh block per write)."""
        self.kernel.clock.advance(self.write_cost(nbytes))
        base = self._cursor
        self._cursor += blocks_of(nbytes) * FS_BLOCK
        if self._cursor >= self.storage.capacity:
            self._cursor = DATA_START    # recycle (bench datasets loop)
        self.storage.submit_writes(
            (base + start, 1, synthetic_payload(
                vnode.inode, min(STRIPE_SIZE, nbytes - start)))
            for start in range(0, nbytes, STRIPE_SIZE))

    def on_fsync(self, vnode: Vnode) -> None:
        """Synchronously push the inode + dirty data to the device."""
        self.kernel.clock.advance(self.fsync_cost)
        self.storage.write(self._sync_cursor, b"\x00" * PAGE_SIZE, sync=True)
        self._sync_cursor += FS_BLOCK
        if self._sync_cursor > SYNC_END:
            self._sync_cursor = SYNC_START

    def sync(self) -> None:
        """Wait out the queued writes."""
        self.storage.drain()


class FFSKernelFilesystem(BlockFilesystem):
    """FFS with soft updates + journaling (SU+J): cheap in-place block
    updates (cylinder-group bitmaps, no COW tree) and *fragments* —
    sub-block writes skip a full block's metadata churn, the reason FFS
    wins the 4 KiB bars of Figure 3(b) (§9.1)."""

    fs_type = "ffs"
    #: Inode allocation + directory update, journaled by SU+J.
    create_cost = costs.FFS_CREATE + costs.FFS_SUJ_RECORD
    fsync_cost = costs.FFS_FSYNC

    def write_cost(self, nbytes: int) -> int:
        """The fragment path for sub-block writes, else per block."""
        return (costs.FFS_FRAG_WRITE if nbytes < FS_BLOCK
                else blocks_of(nbytes) * costs.FFS_BLOCK_UPDATE)


class ZFSKernelFilesystem(BlockFilesystem):
    """ZFS: every write COWs through the indirect-block tree, a per-write
    cost that hits small writes hardest; ``checksums`` adds the ZFS+CSUM
    bars' per-block cost.  ``fsync`` commits through the intent log
    (ZIL), "slower than FFS and Aurora because its COW mechanism
    generates complex changes to file system state" (§9.1)."""

    fs_type = "zfs"
    #: dnode allocation + directory ZAP update.
    create_cost = costs.ZFS_CREATE
    fsync_cost = costs.ZFS_ZIL_COMMIT

    def __init__(self, kernel, checksums: bool = False):
        super().__init__(kernel)
        self.checksums = checksums

    def write_cost(self, nbytes: int) -> int:
        """COW tree update per write, plus per-block checksums."""
        return costs.ZFS_COW_TREE_UPDATE + (
            blocks_of(nbytes) * costs.ZFS_CHECKSUM_PER_64K
            if self.checksums else 0)


def mount_ffs(machine) -> FFSKernelFilesystem:
    """Replace a machine's root filesystem with FFS."""
    fs = FFSKernelFilesystem(machine.kernel)
    machine.kernel.vfs = VFS(machine.kernel, fs)
    return fs


def mount_zfs(machine, checksums: bool = False) -> ZFSKernelFilesystem:
    """Replace a machine's root filesystem with ZFS."""
    fs = ZFSKernelFilesystem(machine.kernel, checksums)
    machine.kernel.vfs = VFS(machine.kernel, fs)
    return fs
