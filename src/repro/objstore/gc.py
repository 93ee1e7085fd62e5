"""Garbage collection: WAFL/ZFS-style snapshot deletion (§7).

Deleting the oldest checkpoint of a group *transfers* the pieces of
its delta that are still visible through younger checkpoints, then
frees whatever nothing references.  There is no log cleaner and no
background compaction, and a delete's device IO is proportional to
the deleted delta, never to store size: it reads no payload and
writes only the children's metadata and a flip.  Its host time is
O(victim extents + OIDs of the record extents that changed): a record
index is a table of per-extent entries, an entry a child keeps whole
is shared with its encoding, and only one that lost OIDs is rebuilt.

Everything is transferred *by reference*.  A child adopts each of the
victim's extents that still backs state the child's subtree can reach
— a packed page extent, or a record extent holding the newest record
of at least one OID the child neither superseded nor dropped — by
listing it in its own ``owned_extents``, so children forked by a
restore share one copy; ownership is those lists alone.  No payload
is read or written: a record extent is immutable and its size does
not depend on how many of its records are still wanted, so copying it
forward would cost device IO for the same space.  A victim's extent that no other checkpoint of its
group lists once the children have adopted is freed (a child is always
in its parent's group, so the group is where an adopter can be).
Records for OIDs no surviving checkpoint's live set can reach are
dropped from the index outright.

Release is deferred (the rule the crash-schedule sweep holds GC to):
nothing the durable superblock can reach — the victim's extents and
metadata record, each child's previous metadata record — is discarded
or handed back to the allocator before the superblock flip that
unreferences it has landed.  The release list rides
``_write_catalog_and_superblock``, so a crash at any IO of a delete
still mounts the last committed state.  A child's metadata goes
through the store's retry policy, as a commit's does.  A delete that
fails short of a crash — a child's metadata write or the flip itself —
takes back every in-memory change it made, so memory, the allocator
and the durable catalog still agree and the delete can be retried.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core import telemetry
from ..core.faults import InjectedCrash
from ..errors import InvalidArgument, MachineCrashed, ReproError
from .checkpoint import (CheckpointInfo, PageRuns, RecordEntry, RecordIndex,
                         overlay_page_maps)


def _children_of(store: Any, ckpt_id: int) -> List[CheckpointInfo]:
    return [info for info in store.checkpoints.values()
            if info.parent == ckpt_id]


def _subtree_needed(store: Any, child: CheckpointInfo) -> Optional[Set[int]]:
    """OIDs a restore anywhere in ``child``'s subtree may still need.

    The union of effective live sets over the child and all of its
    descendants.  Returns None — transfer everything — when any
    subtree checkpoint has no bounded live set (SLSFS checkpoints and
    pure-partial chains carry no liveness info).  Read-only: a
    subtree with one live set gets that set, not a copy.
    """
    needed: Set[int] = set()
    last: Optional[Set[int]] = None
    stack = [child]
    while stack:
        info = stack.pop()
        live = store.effective_live_oids(info.ckpt_id)
        if live is None:
            return None
        if live is not last:
            # An unchanged live set is one object down the chain.
            needed = needed | live if needed else live
            last = live
        stack.extend(_children_of(store, info.ckpt_id))
    return needed


class _Rollback:
    """What a delete or truncate changes in memory before its flip
    lands, and how to take it back.  Used as a context manager around
    the delete: if a child's metadata write or the flip fails,
    :meth:`undo` leaves the store exactly as it was — the
    catalog (order included), every child's metadata fields, the
    allocator and the media — so the delete can simply be retried.
    Saving copies the checkpoint table and the free list; everything
    else is saved as the delete touches it."""

    def __init__(self, store: Any) -> None:
        self.store = store
        self.checkpoints: Dict[int, CheckpointInfo] = dict(store.checkpoints)
        self.alloc = store.alloc.snapshot()
        #: Per child: the child, its parent, metadata extent, owned
        #: extent count, page tables and record index.
        self.children: List[Tuple[CheckpointInfo, Optional[int],
                                  Optional[Tuple[int, int]], int,
                                  Dict[int, PageRuns], RecordIndex]] = []
        #: Child metadata extents this delete wrote.
        self.written: List[int] = []

    def save_child(self, child: CheckpointInfo) -> None:
        """Remember ``child``'s fields before it adopts (a record index
        is replaced, never edited: the old table is kept)."""
        self.children.append((child, child.parent, child.meta_extent,
                              len(child.owned_extents), dict(child.pages),
                              child.object_records))

    def __enter__(self) -> "_Rollback":
        return self

    def __exit__(self, kind: Any, exc: Optional[BaseException],
                 trace: Any) -> None:
        # A power failure is not undone: the host is dying.
        if isinstance(exc, ReproError) and not isinstance(
                exc, (InjectedCrash, MachineCrashed)):
            self.undo()

    def undo(self) -> None:
        store = self.store
        for (child, parent, meta_extent, owned, pages,
             object_records) in self.children:
            child.parent = parent
            child.meta_extent = meta_extent
            del child.owned_extents[owned:]
            child.pages.clear()
            child.pages.update(pages)
            child.object_records = object_records
        store.checkpoints.clear()
        store.checkpoints.update(self.checkpoints)
        for offset in self.written:
            store.device.discard_extent(offset)
        store.alloc.restore(self.alloc)


def truncate_checkpoint(store: Any, ckpt_id: int) -> int:
    """Delete one checkpoint from the *new* end of the chain.

    The mirror image of :func:`delete_checkpoint`: only a checkpoint
    with no children may be truncated.  Nothing is forwarded — the
    victim is the newest state, so nobody references its delta — and
    its extents are reclaimed once the flip lands.  Quorum recovery
    uses this to discard a replica's non-quorum tail (Aurora-style
    truncation of writes that never reached the write quorum).

    Returns bytes reclaimed.
    """
    info = store.get_checkpoint(ckpt_id)
    if _children_of(store, ckpt_id):
        raise InvalidArgument(
            f"checkpoint {ckpt_id} still has descendants; truncate "
            f"from the new end of the chain")
    with _Rollback(store):
        release = _unreference_victim(store, info)
        del store.checkpoints[ckpt_id]
        store._write_catalog_and_superblock(release=release)
    return sum(length for _offset, length in release)


def _unreference_victim(store: Any,
                        info: CheckpointInfo) -> List[Tuple[int, int]]:
    """The extents to release once the flip that drops ``info`` lands:
    each of its owned extents no other checkpoint of its group lists
    (its adopters have listed theirs by now), in ``owned_extents``
    order, then its metadata record — a checkpoint that owned zero page
    extents (a pure OS-state delta) still gives back its record and
    meta extents, so reclaimed-bytes telemetry must not read zero for
    it."""
    held = {offset for other in store.checkpoints.values()
            if other.group_id == info.group_id and other is not info
            for offset, _length in other.owned_extents}
    release = [extent for extent in info.owned_extents
               if extent[0] not in held]
    if info.meta_extent is not None:
        release.append(info.meta_extent)
    return release


def delete_checkpoint(store: Any, ckpt_id: int) -> int:
    """Delete one checkpoint; returns bytes reclaimed.

    Only a chain head (a checkpoint whose parent is already deleted or
    never existed) may be removed, mirroring how snapshot stores
    reclaim history from the old end.  A failed child metadata write
    or flip takes every in-memory change back (:class:`_Rollback`).
    """
    info = store.get_checkpoint(ckpt_id)
    if info.parent is not None and info.parent in store.checkpoints:
        raise InvalidArgument(
            f"checkpoint {ckpt_id} still has ancestor {info.parent}; "
            f"delete from the old end of the chain")
    children = _children_of(store, ckpt_id)
    registry = telemetry.registry()
    tallies: List[Tuple[telemetry.Counter, int]] = []
    with _Rollback(store) as rollback:
        # Transfer still-visible state into each child delta.
        for child in children:
            needed = _subtree_needed(store, child)
            rollback.save_child(child)
            # Pages the child never overwrote are adopted by overlay;
            # the child then owns every victim extent its table points
            # into.
            overlay_page_maps(child.pages, info.pages, keep=needed)
            adopted: Set[int] = set()
            for oid in info.pages:
                if needed is None or oid in needed:
                    adopted |= child.pages[oid].extents()
            # Records are adopted per extent: an entry loses the OIDs the
            # child rewrote and (dropped) those no longer needed, and is
            # shared if it lost none, left out if all, else rebuilt.
            rewritten = set(child.object_records)
            entries = list(child.object_records.entries)
            forwarded = dropped = 0
            for entry in info.object_records.entries:
                gone = entry.oid_set & rewritten
                if needed is not None:
                    dead = entry.oid_set - needed - gone
                    dropped += len(dead)
                    gone |= dead
                if len(gone) == len(entry.oids):
                    continue
                forwarded += len(entry.oids) - len(gone)
                adopted.add(entry.extent[0])
                entries.append(entry if not gone else RecordEntry(
                    entry.extent, [oid for oid in entry.oids
                                   if oid not in gone]))
            child.object_records = RecordIndex(entries)
            child.owned_extents += [extent for extent in info.owned_extents
                                    if extent[0] in adopted]
            child.parent = info.parent
            tallies.append((registry.counter(
                "sls.store.gc.records_forwarded", group=info.group_id),
                forwarded))
            tallies.append((registry.counter(
                "sls.store.gc.records_dropped", group=info.group_id),
                dropped))

        # What no other checkpoint lists goes once the flip lands.
        release = _unreference_victim(store, info)
        del store.checkpoints[ckpt_id]
        reclaimed = sum(length for _offset, length in release)

        # Children metadata changed (adopted state, new parent):
        # rewrite their meta records COW-style, then flip the
        # superblock.
        for child in children:
            new_extent = store._write_meta(child)
            rollback.written.append(new_extent[0])
            if child.meta_extent is not None:
                release.append(child.meta_extent)
            child.meta_extent = new_extent
        store._write_catalog_and_superblock(release=release)
    # Counted once the flip has landed, so a retried delete counts once.
    for counter, count in tallies:
        counter.add(count)
    return reclaimed
