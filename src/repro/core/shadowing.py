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

A flush item carries the dirty content as the VM objects hold it —
runs, with the runs they evicted dirty (:mod:`repro.kernel.swap`) — plus
the objects the runs came from, so the flip that makes them durable,
and nothing else, marks them clean there (:meth:`FlushItem.stage`).  A
new object's or a full checkpoint's content is the chain segment's
newest-wins merge (:func:`merged_chain`), older runs cut by
:func:`~repro.core.runs.splice`; so is every dirty piece of it after a
``mode="mem"`` checkpoint, and of an object left under fork-private
shadows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import InvalidArgument
from ..kernel.swap import is_dirty
from ..kernel.vm.vmobject import DEVICE, VNODE, VMObject, is_clean
from ..objstore.oid import CLASS_MEMORY
from . import costs, telemetry
from .group import ConsistencyGroup, ObjectTrack
from .runs import LocatorRun, bare_spans, run_start, splice

REVERSE = "reverse"   # Aurora's optimized direction (§6)
FORWARD = "forward"   # classic Mach/FreeBSD direction (ablation)
NONE = "none"         # never collapse: chains grow (ablation)

#: Run pieces paired with the VM object holding them.
Sources = List[Tuple[VMObject, List[LocatorRun]]]


class FlushItem:
    """One logical object's contribution to a checkpoint flush: its
    metadata ``record`` and its newest-wins merged dirty set as ``runs``
    (sorted, disjoint; the store packs them into extents).
    ``sources`` pairs each VM object the runs came from with its pieces,
    so that once the checkpoint is durable the pieces are marked clean
    where they live (:meth:`stage`)."""

    __slots__ = ("oid", "record", "runs", "sources")

    def __init__(self, oid: int, record: Dict[str, Any],
                 sources: Sources) -> None:
        self.oid = oid
        self.record = record
        self.sources = sources
        self.runs = sources[0][1] if len(sources) == 1 else sorted(
            (run for _owner, runs in sources for run in runs), key=run_start)

    def page_count(self) -> int:
        """Pages flushed."""
        return sum(run[2] for run in self.runs)

    def stretches(self) -> int:
        """Maximal stretches of consecutive indexes the item holds
        (adjacent runs join)."""
        ends = {run[1] + run[2] for run in self.runs}
        return sum(run[1] not in ends for run in self.runs)

    def stage(self, txn: Any) -> None:
        """Stage the runs in ``txn``, each piece with the object it came
        from: the flip that makes them durable marks them clean there."""
        for owner, runs in self.sources:
            txn.put_pages(self.oid, runs, owner)


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


def flushed_runs(obj: VMObject, runs: List[LocatorRun]
                 ) -> List[LocatorRun]:
    """``runs`` (some of ``obj``'s) with ``obj``'s dirty evicted runs,
    sorted: what a flush of ``obj`` stages."""
    evicted = obj.kernel.pageout.evicted.get(obj.kid)
    if evicted:
        return sorted([*runs, *filter(is_dirty, evicted)], key=run_start)
    return runs


def merged_chain(top: VMObject, dirty_only: bool = False) -> Sources:
    """Newest-wins content of ``top``'s chain segment, merged bottom-up
    in one walk, as ``(owner, pieces)`` — each object's runs (only its
    dirty ones with ``dirty_only``) and dirty evicted runs, minus what a
    newer object holds or evicted (one :func:`~repro.core.runs.splice`
    per newer object), so a flush marks clean only what it wrote."""
    evicted = top.kernel.pageout.evicted
    sources: Sources = []
    for obj in reversed(_chain_segment(top)):
        held = obj.content()
        runs = flushed_runs(obj, [run for run in held if not is_clean(run)]
                            if dirty_only else held)
        if obj.kid in evicted:
            held = sorted([*held, *evicted[obj.kid]], key=run_start)
        if held:
            cover = bare_spans(held)
            sources = [(owner, splice(pieces, cover)[0])
                       for owner, pieces in sources]
            sources.append((obj, runs))
    return [(owner, runs) for owner, runs in sources if runs]


def chain_backing_oid(top: VMObject) -> Optional[int]:
    """OID of the tracked object this chain segment bottoms out on."""
    for obj in top.chain():
        if obj is not top and obj.sls_oid not in (None, top.sls_oid):
            return obj.sls_oid
    return None


def system_shadow_name(name: str) -> str:
    """The name of the system shadow made of an object called
    ``name``: ``sys:`` once, however many checkpoints deep."""
    return name if name.startswith("sys:") else f"sys:{name}"


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

    def __init__(self, kernel: Any, store: Any) -> None:
        self.kernel = kernel
        self.store = store
        #: REVERSE; the ablations set FORWARD or NONE here.
        self.collapse_direction = REVERSE
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
        total_moved = collapses = 0
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
            if frozen.shadow_count != 1 or frozen.backing.shadow_count != 1 \
                    or frozen.backing.sls_oid not in (None, track.oid):
                # A privately faulted (fork-COW) shadow still hangs off
                # this object, or off its parent: collapsing would
                # orphan it, or push one side's pages into the object
                # the other side reads through.  Or the parent is
                # another logical object (this one began as a
                # fork-private shadow over it): pages moved either way
                # would change that object's content behind its own
                # flushes.  Defer.
                continue
            child = self._chain_child_of(track, frozen)
            assert child is not None, "frozen shadow not in its own chain"
            if self.collapse_direction == REVERSE:
                moved = self._collapse_reverse(frozen, child)
            else:
                moved = self._collapse_forward(frozen, child)
            self.kernel.clock.advance(
                costs.COLLAPSE_BASE + moved * costs.COLLAPSE_PAGE_MOVE)
            collapses += 1
            total_moved += moved
            track.frozen = None
            track.flushed = False
        if collapses:
            self.stats["collapses"] += collapses
            self.stats["collapse_pages_moved"] += total_moved
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
               top: VMObject, full: bool = False,
               mem: bool = False) -> Tuple[FlushItem, int]:
        """Freeze ``top`` under a fresh :func:`system_shadow_name` shadow.

        Every reference in ``spaces`` (:meth:`running_spaces`) and the
        shm backmap moves to the shadow, the COW marks are charged, and
        the track now flushes ``top`` and writes into the shadow.
        Returns what to flush — the record and the dirty content (the
        whole chain segment, newest wins, for a new object or a ``full``
        checkpoint; every dirty piece of it after a ``mem`` checkpoint,
        which makes nothing durable) — and the number of PTEs
        downgraded; the TLB shootdown is the caller's.
        """
        if full or track.new and not (mem and track.unsaved):
            sources = merged_chain(top)
        elif track.unsaved and not mem:
            sources = merged_chain(top, dirty_only=True)
        else:
            runs = flushed_runs(top, top.content())
            sources = [(top, runs)] if runs else []
        item = FlushItem(track.oid, object_record(top), sources)
        shadow = top.shadow(name=system_shadow_name(top.name))
        shadow.sls_oid = track.oid
        downgraded = self._repoint_entries(spaces, top, shadow)
        self.kernel.clock.advance(item.page_count()
                                  * costs.COW_MARK_PER_PAGE)
        top.frozen = True
        track.frozen = top
        track.active = shadow
        track.flushed = False
        if mem:
            track.unsaved = True
        else:
            track.new = track.unsaved = False
        return item, downgraded

    def shadow_group(self, group: ConsistencyGroup, full: bool = False,
                     mem: bool = False) -> List[FlushItem]:
        """The synchronous (stop-time) part of memory checkpointing.

        Creates the system shadows, repoints entries/descriptors,
        write-protects the dirty PTEs and shoots down the TLB.  Returns
        the flush items whose pages the orchestrator hands to the
        store asynchronously (for a ``mem`` checkpoint, to a
        transaction never committed).
        """
        kernel = self.kernel
        items: List[FlushItem] = []
        total_downgraded = dirty_runs = 0
        spaces = self.running_spaces(group)
        tops = self._group_tops(group)
        for top in tops:
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
            item, downgraded = self.freeze(spaces, track, top, full, mem)
            total_downgraded += downgraded
            dirty_runs += item.stretches()
            items.append(item)
        if tops:
            # Booked once per pass: a counter update is a registry
            # lookup (telemetry.StatsView), too dear per object.
            self.stats["shadows_created"] += len(tops)
            self.stats["dirty_runs"] += dirty_runs
        items += self._fork_private_items(group, tops, items)
        if total_downgraded or items:
            self._shootdown(group, total_downgraded)
        return items

    def shadow_region(self, group: ConsistencyGroup, top: VMObject,
                      full: bool) -> FlushItem:
        """The shadow pass of an atomic checkpoint (``sls_memckpt``,
        §7): freeze only ``top``, one region's object (its whole chain
        segment when ``full``), then one TLB shootdown."""
        item, downgraded = self.freeze(self.running_spaces(group),
                                       self.track_for(group, top), top, full)
        self._shootdown(group, downgraded)
        return item

    def _shootdown(self, group: ConsistencyGroup, downgraded: int) -> None:
        """One TLB shootdown across the cores the group's threads run
        on, after ``downgraded`` PTEs lost write access."""
        cpus = self.kernel.cpus
        cpus.tlb_shootdown(min(len(list(group.all_threads())), len(cpus)),
                           max(downgraded, 1))
        self.stats["tlb_shootdowns"] += 1
        self.stats["ptes_downgraded"] += downgraded

    def _fork_private_items(self, group: ConsistencyGroup,
                            tops: List[VMObject],
                            items: List[FlushItem]) -> List[FlushItem]:
        """The dirty pieces of tracked objects below ``tops`` (flushed
        as ``items``) that no map entry maps any more: what was written
        before a fork, once both sides write through private shadows.
        Chains may enter one such object at different depths (one side
        still reads its base, the other its newer shadow): its pieces
        are merged from the newest object any chain reaches."""
        seen = {item.oid for item in items}
        heads: Dict[int, VMObject] = {}
        for top in tops:
            for obj in top.chain():
                oid = obj.sls_oid
                if oid in seen or oid not in group.tracks:
                    continue
                head = heads.get(oid)
                if head is None or head in obj.chain():
                    heads[oid] = obj
        found: List[FlushItem] = []
        for oid, head in heads.items():
            sources = merged_chain(head, dirty_only=True)
            if sources:
                found.append(FlushItem(oid, object_record(head), sources))
        return found

    def mark_flushed(self, group: ConsistencyGroup) -> None:
        """Called when a checkpoint's flush completes: frozen shadows
        become collapsible at the next checkpoint (§6)."""
        for track in group.tracks.values():
            if track.frozen is not None:
                track.flushed = True
