"""System shadowing (§6) — Aurora's memory-tracking mechanism.

At every checkpoint, each writable VM object reachable from the
consistency group gets one fresh shadow:

* every map entry (in every member process) and every shared-memory
  descriptor backmap is repointed to the shadow, so sharing semantics
  survive — the thing ``fork``'s COW cannot do;
* the pages the application dirtied since the last checkpoint sit in
  the now-frozen previous top, which is flushed to the store
  *concurrently* with execution;
* the dirtied PTEs are write-protected (cost linear in the dirty set —
  Table 5's slope) and the TLB is shot down.

Chains are eagerly bounded: once a frozen shadow's flush completes, the
next checkpoint collapses it into its parent — in the *reversed*
direction (shadow pages move down), so the cost is proportional to the
small dirty set rather than the parent's full resident set.  The
classic forward direction is kept for the ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import InvalidArgument
from ..hw.memory import Page
from ..kernel.vm.vmobject import DEVICE, VNODE, VMObject
from ..objstore.oid import CLASS_MEMORY
from . import costs, telemetry
from .group import ConsistencyGroup, ObjectTrack

REVERSE = "reverse"   # Aurora's optimized direction (§6)
FORWARD = "forward"   # classic Mach/FreeBSD direction (ablation)
NONE = "none"         # never collapse: chains grow (ablation)


class FlushItem:
    """One logical object's contribution to a checkpoint flush: its
    metadata ``record`` and ``pages``, the newest-wins merged dirty
    set (the store sorts and packs it into extents)."""

    __slots__ = ("oid", "record", "pages")

    def __init__(self, oid: int, record: Dict[str, Any],
                 pages: Dict[int, Page]) -> None:
        self.oid = oid
        self.record = record
        self.pages = pages


def _chain_segment(top: VMObject) -> List[VMObject]:
    """``top``'s chain segment, newest first.

    Stops (exclusive) at the first object that belongs to a
    *different* logical object — its content is persisted under its
    own OID and linked via ``backing_oid``.
    """
    segment: List[VMObject] = []
    for obj in top.chain():
        if obj is not top and obj.sls_oid not in (None, top.sls_oid):
            break
        if obj.backing_offset != 0:
            raise InvalidArgument("system shadowing assumes offset-0 chains")
        segment.append(obj)
    return segment


def merged_chain_pages(top: VMObject) -> Dict[int, Page]:
    """Newest-wins pages of ``top``'s chain segment.

    Merges bottom-up with one C-speed ``dict.update`` per chain object
    (later = newer = wins), so a full-checkpoint merge over a
    million-page object costs a few dict bulk-copies instead of a
    million ``setdefault`` probes.
    """
    segment = _chain_segment(top)
    pages: Dict[int, Page] = {}
    for obj in reversed(segment):
        pages.update(obj.pages)
    return pages


def chain_backing_oid(top: VMObject) -> Optional[int]:
    """OID of the tracked object this chain segment bottoms out on."""
    for obj in top.chain():
        if obj is not top and obj.sls_oid not in (None, top.sls_oid):
            return obj.sls_oid
    return None


def object_record(top: VMObject) -> Dict[str, Any]:
    """The vmobject metadata document persisted per checkpoint."""
    return {
        "size_pages": top.size_pages,
        "kind": top.kind,
        "name": top.name,
        "backing_oid": chain_backing_oid(top),
    }


class ShadowEngine:
    """Per-orchestrator shadowing state and operations."""

    def __init__(self, kernel: Any, store: Any,
                 collapse_direction: str = REVERSE) -> None:
        self.kernel = kernel
        self.store = store
        if collapse_direction not in (REVERSE, FORWARD, NONE):
            raise InvalidArgument(f"bad direction {collapse_direction}")
        self.collapse_direction = collapse_direction
        self.stats = telemetry.StatsView(
            "sls.shadow",
            keys=("shadows_created", "collapses", "collapse_pages_moved",
                  "ptes_downgraded", "tlb_shootdowns", "dirty_runs"))

    # -- collapse ---------------------------------------------------------------

    def _chain_child_of(self, track: ObjectTrack,
                        frozen: VMObject) -> Optional[VMObject]:
        obj = track.active
        while obj is not None and obj.backing is not frozen:
            obj = obj.backing
        return obj

    def collapse_completed(self, group: ConsistencyGroup) -> int:
        """Collapse every flushed frozen shadow (start of a checkpoint).

        Returns total pages moved (the operation's cost driver).
        """
        total_moved = 0
        if self.collapse_direction == NONE:
            # Ablation: leave every flushed shadow in the chain.  The
            # shadow pass clears the track slots itself; fault paths
            # pay for the growing chains.
            return 0
        for track in group.tracks.values():
            frozen = track.frozen
            if frozen is None or not track.flushed:
                continue
            if frozen.backing is None:
                # The frozen object is the chain's base; nothing below
                # to merge into — it simply stays as the base.
                track.frozen = None
                track.flushed = False
                continue
            if frozen.shadow_count != 1:
                # A privately faulted (fork-COW) shadow still hangs off
                # this object; collapsing would orphan it.  Defer.
                continue
            child = self._chain_child_of(track, frozen)
            assert child is not None, "frozen shadow not in its own chain"
            if self.collapse_direction == REVERSE:
                moved = self._collapse_reverse(frozen, child)
            else:
                moved = self._collapse_forward(frozen, child)
            self.kernel.clock.advance(
                costs.COLLAPSE_BASE + moved * costs.COLLAPSE_PAGE_MOVE)
            self.stats["collapses"] += 1
            self.stats["collapse_pages_moved"] += moved
            total_moved += moved
            track.frozen = None
            track.flushed = False
        return total_moved

    def _collapse_reverse(self, frozen: VMObject, child: VMObject) -> int:
        """Aurora's direction: frozen's few pages move *down* into the
        parent; cost ∝ dirty set."""
        parent, moved = frozen.collapse_into_parent()
        # Repoint the child over the departed middle object, adopting
        # the reference collapse_into_parent() took for us.
        frozen.shadow_count -= 1
        child.backing = parent
        parent.shadow_count += 1
        frozen.unref()  # drop the child's old backing reference
        return moved

    def _collapse_forward(self, frozen: VMObject, child: VMObject) -> int:
        """Classic direction: the parent's (large) resident set moves
        *up* into the frozen shadow, which then becomes the chain's
        base; cost ∝ parent resident count ("the original collapse
        operation inserts the parent's pages into the shadow", §6)."""
        frozen.frozen = False  # it becomes the (mutable) chain base
        return frozen.collapse_forward()

    # -- the shadow pass ----------------------------------------------------------

    def _group_tops(self, group: ConsistencyGroup) -> List[VMObject]:
        seen: Set[int] = set()
        tops: List[VMObject] = []
        for proc in group.persistent_processes():
            for entry in proc.vmspace.map:
                if not entry.writable() or entry.sls_excluded:
                    continue
                obj = entry.vmobject
                if obj.kind in (DEVICE, VNODE):
                    # Devices are never persisted; file-backed shared
                    # mappings are persisted by the Aurora FS (§6).
                    continue
                if obj.kid not in seen:
                    seen.add(obj.kid)
                    tops.append(obj)
        return tops

    @staticmethod
    def running_spaces(group: ConsistencyGroup) -> List[Tuple[Any, Any]]:
        """One ``(pmap, map entries by object)`` pair per running
        process, built once per shadow pass: one scan of each map, not
        one per shadowed object.  A pass repoints each object once, so
        the index stays valid while entries move to their shadows."""
        return [(proc.vmspace.pmap, proc.vmspace.entries_by_object())
                for proc in group.processes if proc.state == "running"]

    def _repoint_entries(self, spaces: List[Tuple[Any, Any]],
                         old: VMObject, new: VMObject) -> int:
        """Repoint every reference to ``old`` onto ``new``; returns the
        number of PTEs write-protected."""
        downgraded = 0
        for pmap, by_object in spaces:
            for entry in by_object.get(old.kid, ()):
                entry.set_object(new)
                downgraded += pmap.write_protect_range(
                    entry.start_page, entry.npages)
        segment = self.kernel.shm_backmap.get(old.kid)
        if segment is not None:
            segment.replace_object(new)
        return downgraded

    def track_for(self, group: ConsistencyGroup,
                  top: VMObject) -> ObjectTrack:
        """The track of ``top``'s logical object, created (and ``top``
        given its OID) the first time the group sees it."""
        if top.sls_oid is not None:
            return group.tracks[top.sls_oid]
        return self._new_track(
            group, top, group.oid_for(top, self.store, CLASS_MEMORY))

    @staticmethod
    def _new_track(group: ConsistencyGroup, top: VMObject,
                   oid: int) -> ObjectTrack:
        top.sls_oid = oid
        track = group.tracks[oid] = ObjectTrack(oid, top)
        return track

    def freeze(self, spaces: List[Tuple[Any, Any]], track: ObjectTrack,
               top: VMObject, shadow_name: str,
               full: bool = False) -> Tuple[FlushItem, int]:
        """Freeze ``top`` under a fresh shadow called ``shadow_name``.

        Every reference in ``spaces`` (:meth:`running_spaces`) and the
        shm backmap moves to the shadow, the COW marks are charged, and
        the track now flushes ``top`` and writes into the shadow.
        Returns what to flush — the record and the dirty pages (the
        whole chain segment for a new object or a ``full`` checkpoint)
        — and the number of PTEs downgraded; the TLB shootdown is the
        caller's.
        """
        dirty = merged_chain_pages(top) if track.new or full \
            else dict(top.pages)
        item = FlushItem(track.oid, object_record(top), dirty)
        shadow = top.shadow(name=shadow_name)
        shadow.sls_oid = track.oid
        downgraded = self._repoint_entries(spaces, top, shadow)
        self.kernel.clock.advance(len(dirty) * costs.COW_MARK_PER_PAGE)
        top.frozen = True
        track.frozen = top
        track.active = shadow
        track.flushed = False
        track.new = False
        return item, downgraded

    def shadow_group(self, group: ConsistencyGroup,
                     full: bool = False) -> List[FlushItem]:
        """The synchronous (stop-time) part of memory checkpointing.

        Creates the system shadows, repoints entries/descriptors,
        write-protects the dirty PTEs and shoots down the TLB.  Returns
        the flush items whose pages the orchestrator hands to the
        store asynchronously.
        """
        kernel = self.kernel
        items: List[FlushItem] = []
        total_downgraded = 0
        spaces = self.running_spaces(group)
        for top in self._group_tops(group):
            track = self.track_for(group, top)
            if track.active is not top:
                # An entry faulted privately and its shadow became
                # the new top for that entry while the old active
                # still exists elsewhere; treat as new logical obj.
                track = self._new_track(
                    group, top, self.store.alloc_oid(CLASS_MEMORY))
            if track.frozen is not None:
                if not track.flushed:
                    raise InvalidArgument(
                        "previous checkpoint still flushing; the "
                        "orchestrator must wait before shadowing again (§7)")
                # Flushed but its collapse was deferred (a private
                # fork shadow still hangs off it): leave it embedded
                # in the chain and carry on.
                track.frozen = None
                track.flushed = False

            # Per-object cost: locking + metadata serialization.  The
            # number of address-space objects is the dominant stop-time
            # factor for complex applications (§9.4).
            kernel.clock.advance(costs.CKPT_VMOBJECT)
            item, downgraded = self.freeze(spaces, track, top,
                                           f"sys:{top.name}", full)
            self.stats["shadows_created"] += 1
            total_downgraded += downgraded
            # One run per dirty index whose predecessor is clean.
            dirty = item.pages
            self.stats["dirty_runs"] += sum(
                pindex - 1 not in dirty for pindex in dirty)
            items.append(item)

        if total_downgraded or items:
            ncores = min(len(list(group.all_threads())), len(kernel.cpus))
            kernel.cpus.tlb_shootdown(ncores, max(total_downgraded, 1))
            self.stats["tlb_shootdowns"] += 1
            self.stats["ptes_downgraded"] += total_downgraded
        return items

    def mark_flushed(self, group: ConsistencyGroup) -> None:
        """Called when a checkpoint's flush completes: frozen shadows
        become collapsible at the next checkpoint (§6)."""
        for track in group.tracks.values():
            if track.frozen is not None:
                track.flushed = True
