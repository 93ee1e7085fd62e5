"""Vnodes: in-kernel file representations.

A regular vnode owns a VM object holding its pages, so ``read``/
``write`` system calls, ``mmap`` of the file, and Aurora's checkpointer
all observe a single source of truth.  Link counts are the *filesystem*
reclamation counts; Aurora's object store keeps its own reference
counts so an unlinked-but-open ("anonymous") file survives a crash
(§5.2 "File System").
"""

from __future__ import annotations

from typing import Dict, Optional

from ...errors import InvalidArgument, IsADirectory, NotADirectory
from ...hw.memory import Page
from ...units import PAGE_SIZE, pages_of
from ..kobject import KObject
from ..vm.vmobject import VMObject, VNODE

VREG = "reg"
VDIR = "dir"


class Vnode(KObject):
    """One file or directory inside a mounted filesystem."""

    obj_type = "vnode"

    def __init__(self, kernel, fs, inode: int, vtype: str = VREG):
        super().__init__(kernel)
        self.fs = fs
        self.inode = inode
        self.vtype = vtype
        self.link_count = 0
        self.size = 0
        if vtype == VREG:
            self.vmobject: Optional[VMObject] = VMObject(
                kernel, 0, kind=VNODE, vnode=self, name=f"vnode:{inode}")
        else:
            self.vmobject = None
        #: Directory entries: name -> inode number.
        self.entries: Dict[str, int] = {}

    def mark_dirty(self) -> None:
        """Stamp the mutation epoch and tell the filesystem: every
        change to size, link count or entries passes through here, so
        this is where a filesystem learns which inodes to persist."""
        super().mark_dirty()
        self.fs.on_dirty(self)

    # -- regular file data ----------------------------------------------------

    def _require_reg(self) -> VMObject:
        if self.vtype != VREG or self.vmobject is None:
            raise IsADirectory(f"inode {self.inode} is a directory")
        return self.vmobject

    def write(self, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``; grows the file; returns len."""
        obj = self._require_reg()
        end = offset + len(data)
        obj.grow(pages_of(end))
        pos = 0
        while pos < len(data):
            pindex = (offset + pos) // PAGE_SIZE
            page_off = (offset + pos) % PAGE_SIZE
            chunk = min(len(data) - pos, PAGE_SIZE - page_off)
            existing = obj.pages.get(pindex)
            content = bytearray(existing.realize() if existing else
                                b"\x00" * PAGE_SIZE)
            content[page_off:page_off + chunk] = data[pos:pos + chunk]
            obj.insert_page(pindex, Page(data=bytes(content)))
            pos += chunk
        self.size = max(self.size, end)
        self.mark_dirty()
        self.fs.on_data_write(self, offset, len(data))
        return len(data)

    def write_synthetic(self, offset: int, nbytes: int, seed: int) -> int:
        """Benchmark path: dirty whole pages with synthetic payloads."""
        obj = self._require_reg()
        if offset % PAGE_SIZE or nbytes % PAGE_SIZE:
            raise InvalidArgument("synthetic writes must be page aligned")
        end = offset + nbytes
        obj.grow(pages_of(end))
        first = offset // PAGE_SIZE
        for i in range(nbytes // PAGE_SIZE):
            obj.insert_page(first + i, Page(seed=seed + i))
        self.size = max(self.size, end)
        self.mark_dirty()
        self.fs.on_data_write(self, offset, nbytes)
        return nbytes

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` at ``offset`` (short at EOF)."""
        obj = self._require_reg()
        nbytes = max(0, min(nbytes, self.size - offset))
        out = bytearray()
        pos = 0
        while pos < nbytes:
            pindex = (offset + pos) // PAGE_SIZE
            page_off = (offset + pos) % PAGE_SIZE
            chunk = min(nbytes - pos, PAGE_SIZE - page_off)
            page = obj.pages.get(pindex)
            content = page.realize() if page else b"\x00" * PAGE_SIZE
            out += content[page_off:page_off + chunk]
            pos += chunk
        return bytes(out)

    def truncate(self, length: int = 0) -> None:
        """Cut the file to ``length`` bytes, dropping tail pages."""
        obj = self._require_reg()
        keep = pages_of(length)
        for pindex in [p for p in obj.pages if p >= keep]:
            obj.remove_page(pindex)
        self.size = length
        self.mark_dirty()

    def resident_bytes(self) -> int:
        """Bytes of file data currently in memory."""
        if self.vmobject is None:
            return 0
        return self.vmobject.resident_count() * PAGE_SIZE

    # -- directory operations ---------------------------------------------------

    def _require_dir(self) -> None:
        if self.vtype != VDIR:
            raise NotADirectory(f"inode {self.inode} is not a directory")

    def dir_add(self, name: str, inode: int) -> None:
        """Insert a directory entry."""
        self._require_dir()
        self.entries[name] = inode
        self.mark_dirty()

    def dir_remove(self, name: str) -> int:
        """Remove a directory entry; returns the inode it named."""
        self._require_dir()
        inode = self.entries.pop(name)
        self.mark_dirty()
        return inode

    def dir_lookup(self, name: str) -> Optional[int]:
        """The inode a name maps to, or None."""
        self._require_dir()
        return self.entries.get(name)

    def destroy(self) -> None:
        """Release the data object when the vnode is reclaimed."""
        if self.vmobject is not None:
            self.vmobject.unref()
            self.vmobject = None

    def __repr__(self) -> str:
        return f"Vnode(inode={self.inode}, {self.vtype}, {self.size}B)"
