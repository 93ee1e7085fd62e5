"""Garbage collection: WAFL/ZFS-style snapshot deletion (§7).

Deleting the oldest checkpoint of a group *transfers* the pieces of
its delta that are still visible through younger checkpoints, then
frees whatever nothing references.  There is no log cleaner and no
background compaction — reclamation cost is proportional to the
deleted delta, never to store size, so it cannot stall the 100 Hz
checkpoint loop.

Everything is transferred *by reference*.  A child adopts each of the
victim's extents that still backs state the child's subtree can reach
— a packed page extent, or a record extent holding the newest record
of at least one OID the child neither superseded nor dropped — by
listing it in its own ``owned_extents``; the store's per-extent
reference count (``extent_refs``, rebuilt from checkpoint metadata at
recovery) goes up by one per adopter, so children forked by a restore
share one copy.  No payload is read or written: a record extent is
immutable and its size does not depend on how many of its records are
still wanted, so copying it forward would cost device IO for the same
space.  An extent none of the children adopted loses its last
reference with the victim and is freed.  Records for OIDs no surviving
checkpoint's live set can reach are dropped from the index outright.

Release is deferred (the rule the crash-schedule sweep holds GC to):
nothing the durable superblock can reach — the victim's extents and
metadata record, each child's previous metadata record — is discarded
or handed back to the allocator before the superblock flip that
unreferences it has landed.  The release list rides
``_write_catalog_and_superblock``, so a crash at any IO of a delete
still mounts the last committed state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core import telemetry
from ..errors import InvalidArgument
from . import records
from .checkpoint import CheckpointInfo, overlay_page_maps


def _children_of(store: Any, ckpt_id: int) -> List[CheckpointInfo]:
    return [info for info in store.checkpoints.values()
            if info.parent == ckpt_id]


def _subtree_needed(store: Any, child: CheckpointInfo) -> Optional[Set[int]]:
    """OIDs a restore anywhere in ``child``'s subtree may still need.

    The union of effective live sets over the child and all of its
    descendants.  Returns None — transfer everything — when any
    subtree checkpoint has no bounded live set (SLSFS checkpoints and
    pure-partial chains carry no liveness info).
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
            needed |= live
            last = live
        stack.extend(_children_of(store, info.ckpt_id))
    return needed


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
    release = _unreference_victim(store, info)
    del store.checkpoints[ckpt_id]
    store._write_catalog_and_superblock(release=release)
    return sum(length for _offset, length in release)


def _unreference_victim(store: Any,
                        info: CheckpointInfo) -> List[Tuple[int, int]]:
    """Drop ``info``'s extent references; returns the extents to
    release once the flip lands: whatever hit zero, plus the victim's
    metadata record — a checkpoint that owned zero page extents (a
    pure OS-state delta) still gives back its record and meta extents,
    so reclaimed-bytes telemetry must not read zero for it."""
    refs: Dict[int, int] = store.extent_refs
    release: List[Tuple[int, int]] = []
    for offset, length in info.owned_extents:
        refs[offset] = refs.get(offset, 1) - 1
        if refs[offset] <= 0:
            refs.pop(offset, None)
            release.append((offset, length))
    if info.meta_extent is not None:
        release.append(info.meta_extent)
    return release


def delete_checkpoint(store: Any, ckpt_id: int) -> int:
    """Delete one checkpoint; returns bytes reclaimed.

    Only a chain head (a checkpoint whose parent is already deleted or
    never existed) may be removed, mirroring how snapshot stores
    reclaim history from the old end.
    """
    info = store.get_checkpoint(ckpt_id)
    if info.parent is not None and info.parent in store.checkpoints:
        raise InvalidArgument(
            f"checkpoint {ckpt_id} still has ancestor {info.parent}; "
            f"delete from the old end of the chain")
    children = _children_of(store, ckpt_id)
    registry = telemetry.registry()

    refs: Dict[int, int] = store.extent_refs
    # Transfer still-visible state into each child delta.
    for child in children:
        needed = _subtree_needed(store, child)
        # Pages the child never overwrote are adopted by overlay; the
        # child then owns every victim extent its table points into.
        overlay_page_maps(child.pages, info.pages, keep=needed)
        adopted: Set[int] = set()
        for oid in info.pages:
            if needed is None or oid in needed:
                adopted |= child.pages[oid].extents()
        forwarded = dropped = 0
        for oid, extent in info.object_records.items():
            if oid in child.object_records:
                continue
            if needed is not None and oid not in needed:
                dropped += 1
                continue
            child.object_records[oid] = extent
            adopted.add(extent[0])
            forwarded += 1
        for offset, length in info.owned_extents:
            if offset in adopted:
                child.owned_extents.append((offset, length))
                refs[offset] = refs.get(offset, 0) + 1
        child.parent = info.parent
        registry.counter("sls.store.gc.records_forwarded",
                         group=info.group_id).add(forwarded)
        registry.counter("sls.store.gc.records_dropped",
                         group=info.group_id).add(dropped)

    # Drop the deleted checkpoint's references; whatever hit zero goes
    # once the flip lands.
    release = _unreference_victim(store, info)
    del store.checkpoints[ckpt_id]
    reclaimed = sum(length for _offset, length in release)

    # Children metadata changed (adopted state, new parent): rewrite
    # their meta records COW-style, then flip the superblock.
    for child in children:
        payload = records.encode(records.REC_CKPT_META, child.encode_meta())
        new_extent = store.alloc.alloc(len(payload))
        store.device.write(new_extent, payload)
        if child.meta_extent is not None:
            release.append(child.meta_extent)
        child.meta_extent = (new_extent, len(payload))
    store._write_catalog_and_superblock(release=release)
    return reclaimed
