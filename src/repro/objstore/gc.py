"""Garbage collection: WAFL/ZFS-style snapshot deletion (§7).

Deleting the oldest checkpoint of a group *transfers* the pieces of
its delta that are still visible through younger checkpoints, then
frees whatever nothing references.  There is no log cleaner and no
background compaction, and a delete's device IO is proportional to
the deleted delta, never to store size: it reads no payload, and its
flip writes only the surviving children's metadata.  Its host time is
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
forward would cost device IO for the same space.  A victim's extent
that no other checkpoint of its group lists once the children have
adopted is freed (a child is always in its parent's group, so the
group is where an adopter can be).
Records for OIDs no surviving checkpoint's live set can reach are
dropped from the index outright.

A delete has no flip and does no IO of its own: it is staged into a
store transaction (:class:`~repro.objstore.store.Flip`) — the commit
that takes a group past its history limit, or one with no new
checkpoint — and marks each adopting child on ``Flip.rewrite``.  The
one flip writes one metadata record per marked checkpoint still in
the catalog, so a child that is itself a later victim of the same
flip is never written, and drops every victim.  Release is deferred
(the rule the crash-schedule sweep holds GC to): nothing the durable
superblock can reach — the victim's extents and metadata record, each
child's previous metadata record — is discarded or handed back to the
allocator before that flip has landed.  A failure short of a crash
before the superblock lands takes back the newest staged victim and
the flip is tried again (``ObjectStore._stage_and_flip``).
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

from ..core import events, telemetry
from ..errors import InvalidArgument
from .checkpoint import (CheckpointInfo, RecordEntry, RecordIndex,
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


def delete_checkpoint(store: Any, ckpt_id: int, flip: Any,
                      truncate: bool = False) -> None:
    """Stage deleting one checkpoint into ``flip``.

    Only a chain head (a checkpoint whose parent is already deleted or
    never existed) may be removed, mirroring how snapshot stores
    reclaim history from the old end.  The children adopt here, with no
    IO, and go on ``flip.rewrite``: the flip that writes their metadata
    and drops the victim is the caller's.  With ``truncate`` the victim
    comes from the *new* end instead and must have no children, so
    nothing is forwarded: quorum recovery discards a replica's
    non-quorum tail this way (Aurora-style truncation of writes that
    never reached the write quorum).
    """
    info = store.get_checkpoint(ckpt_id)
    children = _children_of(store, ckpt_id)
    if truncate and children:
        raise InvalidArgument(
            f"checkpoint {ckpt_id} still has descendants; truncate "
            f"from the new end of the chain")
    if not truncate and info.parent in store.checkpoints:
        raise InvalidArgument(
            f"checkpoint {ckpt_id} still has ancestor {info.parent}; "
            f"delete from the old end of the chain")
    # Transfer still-visible state into each child delta.
    forwarded = dropped = 0
    for child in children:
        needed = _subtree_needed(store, child)
        # Each field is replaced, never edited, so a rollback puts the
        # old values back (and never touches a shared record entry).
        flip.save(child, "parent", "owned_extents", "pages",
                  "object_records")
        # Pages the child never overwrote are adopted by overlay; the
        # child then owns every victim extent its table points into.
        child.pages = dict(child.pages)
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
        child.owned_extents = child.owned_extents + [
            extent for extent in info.owned_extents if extent[0] in adopted]
        child.parent = info.parent
        # Adopted state and a new parent: the flip writes its metadata.
        flip.rewrite.append(child)

    # The flip drops the victim and unreferences each of its extents no
    # other checkpoint of its group lists (its adopters list theirs by
    # now), in ``owned_extents`` order, then its metadata record — so a
    # pure OS-state delta's reclaimed bytes do not read zero.
    held = {offset for other in store.checkpoints.values()
            if other.group_id == info.group_id and other is not info
            for offset, _length in other.owned_extents}
    release = [extent for extent in info.owned_extents
               if extent[0] not in held]
    if info.meta_extent is not None:
        release.append(info.meta_extent)
    del store.checkpoints[ckpt_id]
    flip.release += release
    reclaimed = sum(length for _offset, length in release)

    def landed() -> None:
        # Counted once the flip has landed: a retried delete counts once.
        if children:
            registry = telemetry.registry()
            registry.counter("sls.store.gc.records_forwarded",
                             group=info.group_id).add(forwarded)
            registry.counter("sls.store.gc.records_dropped",
                             group=info.group_id).add(dropped)
        store.stats["reclaimed_bytes"] += reclaimed
        events.emit(store.clock.now(), events.GC_RECLAIM,
                    group=info.group_id, ckpt=ckpt_id, bytes=reclaimed,
                    **({"truncated": True} if truncate else {}))

    flip.landed.append(landed)
