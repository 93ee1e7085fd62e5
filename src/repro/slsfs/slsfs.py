"""The Aurora file system (§5.2 "File System", §9.1).

A namespace into the single level store:

* file data lives in vnode VM objects and is flushed into object-store
  checkpoints on the same cadence as application checkpoints — so
  ``fsync`` is a no-op (*checkpoint consistency*), which is why Aurora
  wins FileBench's varmail personality;
* vnodes are identified by inode number (checkpoints store just the
  reference — no namei/name-cache walk in the stop path);
* *hidden link counts*: a file that is unlinked but still open — or
  referenced by any checkpoint — is never reclaimed, fixing the
  anonymous-file edge case that breaks restore on conventional
  filesystems;
* file creation currently takes a global lock (the paper's §9.1 calls
  this out as unoptimized; Figure 3c shows the cost, so we keep it).

On-disk layout: inodes are ordinary store objects.  Each inode is one
``"slsfs-inode"`` record (inode, vtype, size, link_count, entries)
under the inode's file OID — the OID its pages are already stored
under — plus a ``"slsfs-header"`` record carrying ``next_inode`` under
:data:`NAMESPACE_OID`.  An FS checkpoint stages the records of the
inodes *dirtied* since the previous one (every mutation of a field the
record carries goes through :meth:`Vnode.mark_dirty`, which lands in
:meth:`SLSFS.on_dirty`) and their dirty pages, so its cost is its
delta; :meth:`SLSFS.recover` reads the namespace back through the
store's ordinary newest-wins ``merged_view``.  Inode records need no
tombstones: a persisted inode is never forgotten (the hidden link
count), only unlinked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core import costs, telemetry
from ..errors import RestoreError
from ..kernel.fs.filesystem import Filesystem
from ..kernel.fs.vnode import Vnode
from ..objstore.checkpoint import NO_PAGES, PageRuns
from ..objstore.oid import CLASS_FILE, make_oid
from ..units import PAGE_SIZE, pages_of

#: Reserved OID for the header record (top serial, never allocated).
NAMESPACE_OID = make_oid(CLASS_FILE, (1 << 56) - 1)


class SLSFS(Filesystem):
    """The Aurora filesystem, mounted over an object store."""

    fs_type = "slsfs"
    #: Reserved store group id for filesystem checkpoints.  App group
    #: ids come from OID serials, which start at 1 — 0 never collides.
    GROUP_ID = 0

    def __init__(self, kernel, store):
        self.store = store
        #: inode -> on-disk OID (stable across the file's lifetime).
        self.inode_oids: Dict[int, int] = {}
        #: inodes whose record or data changed since the last FS
        #: checkpoint.
        self._dirty_inodes: Set[int] = set()
        #: inode -> set of dirty page indexes.
        self._dirty_pages: Dict[int, Set[int]] = {}
        #: inodes a checkpoint references (the hidden link count: these
        #: are never reclaimed).
        self._persisted_inodes: Set[int] = set()
        self.last_ckpt_id: Optional[int] = None
        super().__init__(kernel, "slsfs")

    # -- filesystem hooks ---------------------------------------------------------

    def on_create(self, vnode: Vnode) -> None:
        # File creation is unoptimized: a global lock (§9.1).
        """Charge the (global-lock) create path and allocate the OID."""
        self.kernel.clock.advance(costs.SLSFS_CREATE_GLOBAL_LOCK)
        if vnode.inode not in self.inode_oids:
            self.inode_oids[vnode.inode] = self.store.alloc_oid(CLASS_FILE)
        self._dirty_inodes.add(vnode.inode)

    def on_data_write(self, vnode: Vnode, offset: int, nbytes: int) -> None:
        """Charge per-block mapping updates; track the dirty range."""
        first = offset // PAGE_SIZE
        last = (offset + max(nbytes, 1) - 1) // PAGE_SIZE
        nblocks = last - first + 1
        self.kernel.clock.advance(nblocks * costs.SLSFS_BLOCK_UPDATE)
        self._dirty_inodes.add(vnode.inode)
        self._dirty_pages.setdefault(vnode.inode, set()).update(
            range(first, last + 1))

    def on_fsync(self, vnode: Vnode) -> None:
        # Checkpoint consistency: fsync is a no-op (§5.2).
        """No-op under checkpoint consistency (still a syscall)."""
        self.kernel.clock.advance(costs.SLSFS_FSYNC)

    def on_dirty(self, vnode: Vnode) -> None:
        """The inode's record changed: stage it at the next FS
        checkpoint."""
        self._dirty_inodes.add(vnode.inode)

    def forget_vnode(self, vnode: Vnode) -> None:
        """Reclamation override: the hidden link count.

        A vnode referenced by the store (it has been checkpointed)
        survives having zero filesystem links and zero open files —
        that is what lets an application using an anonymous file be
        restored (§5.2)."""
        if vnode.inode in self._persisted_inodes:
            return
        super().forget_vnode(vnode)

    def oid_of(self, vnode: Vnode) -> int:
        """Stable on-disk OID for a vnode (allocated on first use)."""
        oid = self.inode_oids.get(vnode.inode)
        if oid is None:
            oid = self.store.alloc_oid(CLASS_FILE)
            self.inode_oids[vnode.inode] = oid
        return oid

    def has_dirty(self) -> bool:
        """True when namespace or file data changed since the last FS checkpoint."""
        return bool(self._dirty_inodes)

    # -- checkpointing ---------------------------------------------------------------

    def checkpoint(self, sync: bool = False):
        """Flush the dirty inodes' records and pages as one FS checkpoint.

        Called by the orchestrator on the group-checkpoint cadence so
        that file state commits atomically alongside application
        state (checkpoint consistency)."""
        registry = telemetry.registry()
        registry.counter("sls.fs.checkpoints").add(1)
        registry.counter("sls.fs.dirty_inodes").add(len(self._dirty_inodes))
        txn = self.store.begin_checkpoint(self.GROUP_ID, name="slsfs",
                                          parent=self.last_ckpt_id)
        txn.put_object(NAMESPACE_OID, "slsfs-header",
                       {"next_inode": self._next_inode})
        stage = self._dirty_inodes
        if self.root.inode not in self._persisted_inodes:
            # Nothing ever dirties an empty root, and dirtying it at
            # mount would give every file-free machine an FS
            # checkpoint: the first checkpoint stages it regardless.
            stage = stage | {self.root.inode}
        for inode in sorted(stage):
            vnode = self._vnodes.get(inode)
            if vnode is None:
                continue    # created and forgotten between checkpoints
            oid = self.oid_of(vnode)
            txn.put_object(oid, "slsfs-inode", {
                "inode": inode,
                "vtype": vnode.vtype,
                "size": vnode.size,
                "link_count": vnode.link_count,
                "entries": dict(vnode.entries),
            })
            self._persisted_inodes.add(inode)
            if vnode.vmobject is None:
                continue
            dirty = self._dirty_pages.get(inode)
            if dirty is None:
                pages = dict(vnode.vmobject.pages)
            else:
                pages = {pindex: vnode.vmobject.pages[pindex]
                         for pindex in dirty
                         if pindex in vnode.vmobject.pages}
            txn.put_pages(oid, pages)
        self._dirty_inodes.clear()
        self._dirty_pages.clear()
        info = self.store.commit(txn, sync=sync)
        self.last_ckpt_id = info.ckpt_id
        return info

    # -- recovery -----------------------------------------------------------------------

    def _load_pages(self, wanted: List[Tuple[Vnode, PageRuns]]) -> None:
        """Fill vnodes from their page locators with one batched fetch
        (locators past EOF belong to a since-truncated tail)."""
        slots = [(vnode.vmobject, pindex, locator)
                 for vnode, locators in wanted
                 for pindex, locator
                 in locators.slice(0, vnode.vmobject.size_pages).items()]
        pages = self.store.fetch_pages(locator for _o, _p, locator in slots)
        for (obj, pindex, _locator), page in zip(slots, pages):
            obj.insert_page(pindex, page)

    def recover(self) -> bool:
        """Rebuild the filesystem from its latest complete checkpoint.

        Returns True when a checkpoint was found.  Data is restored
        eagerly (mount-time cost proportional to FS size)."""
        latest = self.store.find_latest_complete(self.GROUP_ID)
        if latest is None:
            return False
        record_extents, page_locs = self.store.merged_view(latest.ckpt_id)
        if NAMESPACE_OID not in record_extents:
            raise RestoreError("slsfs checkpoint lacks a header record")
        decoded = self.store.read_object_records(record_extents)
        otype, header = decoded.pop(NAMESPACE_OID)
        if otype != "slsfs-header":
            raise RestoreError(f"unexpected record type {otype}")

        self._vnodes.clear()
        self.inode_oids.clear()
        self._dirty_inodes.clear()
        self._dirty_pages.clear()
        self._next_inode = header["next_inode"]
        wanted = []
        for oid, (otype, info) in sorted(decoded.items()):
            if otype != "slsfs-inode":
                raise RestoreError(f"unexpected record type {otype}")
            inode = info["inode"]
            vnode = Vnode(self.kernel, self, inode, info["vtype"])
            vnode.size = info["size"]
            vnode.link_count = info["link_count"]
            vnode.entries = info["entries"]
            self._vnodes[inode] = vnode
            self.inode_oids[inode] = oid
            self._persisted_inodes.add(inode)
            if vnode.vmobject is not None:
                vnode.vmobject.grow(pages_of(info["size"]))
                vnode.vmobject.sls_oid = oid
                wanted.append((vnode, page_locs.get(oid, NO_PAGES)))
        self._load_pages(wanted)
        self.root = self._vnodes[1]
        self.last_ckpt_id = latest.ckpt_id
        self.kernel.vfs.invalidate_cache()
        return True

    # -- application-restore support -------------------------------------------------------

    def vnode_for_restore(self, inode: int, oid: int,
                          state: dict) -> Vnode:
        """Find (or resurrect) the vnode an application checkpoint
        references by inode number."""
        vnode = self._vnodes.get(inode)
        if vnode is not None:
            return vnode
        # Anonymous file whose namespace entry is long gone: the
        # hidden link count (store reference) lets us resurrect it.
        latest = self.store.find_latest_complete(self.GROUP_ID)
        if latest is None:
            raise RestoreError(f"no FS checkpoint holds inode {inode}")
        _records, page_locs = self.store.merged_view(latest.ckpt_id)
        vnode = Vnode(self.kernel, self, inode, state["vtype"])
        vnode.size = state["size"]
        vnode.link_count = 0
        self._vnodes[inode] = vnode
        self.inode_oids[inode] = oid
        self._persisted_inodes.add(inode)
        # No FS checkpoint holds this inode's record yet.
        self._dirty_inodes.add(inode)
        if vnode.vmobject is not None:
            vnode.vmobject.grow(pages_of(state["size"]))
            self._load_pages([(vnode, page_locs.get(oid, NO_PAGES))])
        return vnode
