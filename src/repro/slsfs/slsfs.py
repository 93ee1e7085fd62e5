"""The Aurora file system (§5.2 "File System", §9.1).

A namespace into the single level store:

* file data lives in vnode VM objects and is flushed into object-store
  checkpoints on the same cadence as application checkpoints — so
  ``fsync`` is a no-op (*checkpoint consistency*), which is why Aurora
  wins FileBench's varmail personality;
* a data write costs one mapping update per 64 KiB filesystem block it
  touches, and ``sync`` is a synchronous FS checkpoint;
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
from ..errors import ReproError, RestoreError
from ..kernel.fs.filesystem import Filesystem
from ..kernel.fs.vnode import Vnode
from ..kernel.vm.vmobject import page_run
from ..objstore.checkpoint import NO_PAGES, PageRuns
from ..objstore.oid import CLASS_FILE, make_oid
from ..units import FS_BLOCK, PAGE_SIZE, pages_of

#: Reserved OID for the header record (top serial, never allocated).
NAMESPACE_OID = make_oid(CLASS_FILE, (1 << 56) - 1)


def _spans(pages: Set[int]) -> List[List[int]]:
    """``pages`` as sorted ``[lo, hi)`` spans of consecutive indexes."""
    spans: List[List[int]] = []
    for pindex in sorted(pages):
        if spans and spans[-1][1] == pindex:
            spans[-1][1] = pindex + 1
        else:
            spans.append([pindex, pindex + 1])
    return spans


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
        self.oid_of(vnode)
        self._dirty_inodes.add(vnode.inode)

    def on_data_write(self, vnode: Vnode, offset: int, nbytes: int) -> None:
        """Charge one mapping update per 64 KiB filesystem block the
        write touches; track the dirty pages."""
        end = offset + max(nbytes, 1) - 1
        blocks = end // FS_BLOCK - offset // FS_BLOCK + 1
        self.kernel.clock.advance(blocks * costs.SLSFS_BLOCK_UPDATE)
        self._dirty_inodes.add(vnode.inode)
        self._dirty_pages.setdefault(vnode.inode, set()).update(
            range(offset // PAGE_SIZE, end // PAGE_SIZE + 1))

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
        dirty_pages = self._dirty_pages
        fresh: Set[int] = set()
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
            if inode not in self._persisted_inodes:
                fresh.add(inode)
                self._persisted_inodes.add(inode)
            if vnode.vmobject is None:
                continue
            obj = vnode.vmobject
            dirty = dirty_pages.get(inode)
            txn.put_pages(oid, obj.content() if dirty is None else [
                run for lo, hi in _spans(dirty)
                for run in obj.content(lo, hi)], obj)
        self._dirty_inodes, self._dirty_pages = set(), {}
        parent = self.last_ckpt_id

        def unstage(_exc: Optional[Exception] = None) -> None:
            """The commit failed: what it staged is dirty again, the
            inodes only it held are not persisted, and the next FS
            checkpoint parents onto this one's parent."""
            for inode, pages in dirty_pages.items():
                if inode not in self._dirty_inodes:
                    self._dirty_pages[inode] = pages
                elif inode in self._dirty_pages:
                    self._dirty_pages[inode] |= pages
            for inode in stage - dirty_pages.keys():
                self._dirty_pages.pop(inode, None)  # all of its content
            self._dirty_inodes |= stage
            self._persisted_inodes -= fresh
            if self.last_ckpt_id == txn.info.ckpt_id:
                self.last_ckpt_id = parent

        try:
            info = self.store.commit(txn, sync=sync, on_failure=unstage)
        except ReproError:
            unstage()
            raise
        self.last_ckpt_id = info.ckpt_id
        return info

    def sync(self) -> None:
        """sync(2): a synchronous FS checkpoint of what is dirty; returns
        once it and every FS checkpoint before it have landed."""
        if self.has_dirty():
            self.checkpoint(sync=True)
        pending = self.store.pending_commit_deadline
        while pending(self.GROUP_ID) is not None:
            self.store.loop.run_until(pending(self.GROUP_ID))

    # -- recovery -----------------------------------------------------------------------

    def _load_pages(self, wanted: List[Tuple[Vnode, PageRuns]]) -> None:
        """Fill vnodes from their page locators with one batched fetch
        of their runs (runs past EOF belong to a since-truncated tail)."""
        tables = [(vnode.vmobject,
                   locators.slice(0, vnode.vmobject.size_pages).runs)
                  for vnode, locators in wanted]
        pages = iter(self.store.fetch_pages(
            run for _obj, runs in tables for run in runs))
        for obj, runs in tables:
            obj.insert([page_run(pindex, next(pages)) for run in runs
                        for pindex in range(run[1], run[1] + run[2])])

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
