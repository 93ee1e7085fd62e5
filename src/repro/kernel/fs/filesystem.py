"""Filesystem base class and the in-memory filesystem.

:class:`Filesystem` owns the inode table and provides the hook points
(`on_create`, `on_dirty`, `on_data_write`, `on_fsync`, `sync`) that concrete
filesystems use to charge their metadata-update costs and, in the
Aurora filesystem's case, to persist state into the object store.
:class:`MemFS` is the trivial volatile implementation used as the root
filesystem of machines that are not running Aurora.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...errors import NoSuchFile
from .vnode import Vnode, VDIR, VREG


class Filesystem:
    """Inode table + lifecycle hooks for one mounted filesystem."""

    fs_type = "basefs"

    def __init__(self, kernel, name: str = ""):
        self.kernel = kernel
        self.name = name or self.fs_type
        self._vnodes: Dict[int, Vnode] = {}
        self._next_inode = 2  # inode 1 is the root, allocated below
        self.root = self._make_vnode(VDIR, inode=1)
        self.root.link_count = 1

    # -- inode management ------------------------------------------------------

    def _make_vnode(self, vtype: str, inode: Optional[int] = None) -> Vnode:
        if inode is None:
            inode = self._next_inode
            self._next_inode += 1
        vnode = Vnode(self.kernel, self, inode, vtype)
        self._vnodes[inode] = vnode
        return vnode

    def alloc_vnode(self, vtype: str = VREG) -> Vnode:
        """Create a vnode and fire the on_create hook."""
        vnode = self._make_vnode(vtype)
        self.on_create(vnode)
        return vnode

    def getvnode(self, inode: int) -> Vnode:
        """Vnode by inode (ENOENT when absent)."""
        try:
            return self._vnodes[inode]
        except KeyError:
            raise NoSuchFile(f"inode {inode} not in {self.name}")

    def has_inode(self, inode: int) -> bool:
        """True when the inode is live in this filesystem."""
        return inode in self._vnodes

    def forget_vnode(self, vnode: Vnode) -> None:
        """Reclaim a vnode with no links and no open references."""
        self._vnodes.pop(vnode.inode, None)
        vnode.unref()

    def all_vnodes(self):
        """Every live vnode (checkpoint walks)."""
        return list(self._vnodes.values())

    # -- hooks (cost charging / persistence) -------------------------------------

    def on_create(self, vnode: Vnode) -> None:
        """Called when a vnode is allocated."""

    def on_dirty(self, vnode: Vnode) -> None:
        """Called whenever a vnode's metadata or data is modified
        (:meth:`Vnode.mark_dirty`)."""

    def on_data_write(self, vnode: Vnode, offset: int, nbytes: int) -> None:
        """Called after file data is modified."""

    def on_fsync(self, vnode: Vnode) -> None:
        """Called for fsync(2); implementations charge their sync cost."""

    def sync(self) -> None:
        """sync(2): return once what was written is on media (if any)."""


class MemFS(Filesystem):
    """A volatile in-memory filesystem (tmpfs-like).

    Loses everything on a machine crash — which is exactly the failure
    mode Aurora's file system exists to fix, and what the crash tests
    contrast against.
    """

    fs_type = "memfs"

