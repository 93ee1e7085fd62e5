"""Crash recovery: find the last complete state of the store.

The commit protocol guarantees the superblock only ever points at
fully durable state, so recovery is: read both superblock slots, pick
the valid one with the highest generation, rebuild the in-memory maps
by reading the catalog and every checkpoint's metadata record, and
derive the free list from what they own — everything else below the
allocation cursor is free, because nothing durable reaches it.
Incomplete checkpoints are invisible by construction (their metadata
was never reachable), satisfying §7: "Aurora prevents resuming
incomplete checkpoints by finding the last complete checkpoint after
a crash."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..errors import CorruptRecord, StoreError
from . import records
from .blockalloc import ExtentAllocator
from .checkpoint import CheckpointInfo
from .journal import Journal
from .oid import OIDAllocator


@dataclass
class RecoveredState:
    """Summary of what :func:`recover` found."""

    generation: int
    checkpoint_count: int
    journal_count: int


def _read_superblocks(device: Any
                      ) -> List[Tuple[int, Optional[dict], bool]]:
    """``(slot, decoded-or-None, slot-holds-data)`` for both superblock
    slots, newest generation first (undecodable slots last) — the one
    reader behind mount, the black box, scrub and repair.

    The third element distinguishes a slot that was simply never
    written (young store: only one generation so far) from one that
    holds bytes which no longer decode — only the latter is damage.
    """
    from .store import SUPERBLOCK_SLOTS

    slots = []
    for slot in SUPERBLOCK_SLOTS:
        decoded = None
        present = bool(device.has_extent(slot))
        if present:
            try:
                payload = device.read(slot)
                if isinstance(payload, bytes):
                    decoded = records.decode(payload, records.REC_SUPERBLOCK)
            except (CorruptRecord, StoreError):
                decoded = None
        slots.append((slot, decoded, present))
    # Stable, so equal generations and undecodable slots keep slot order.
    slots.sort(key=lambda item: (item[1] is None,
                                 -(item[1] or {}).get("generation", 0)))
    return slots


def read_checkpoint_meta(device: Any, entry: dict
                         ) -> Tuple[CheckpointInfo, List[Tuple[int, int]]]:
    """The checkpoint a catalog entry names, decoded from its metadata
    record, and what it owns as ``(offset, length)`` spans: the record
    and one span per on-media owned-extent run (each run is contiguous,
    :func:`~repro.objstore.checkpoint.encode_extent_runs`) — the one
    reader behind mount and scrub.  Raises CorruptRecord (or StoreError
    from the device) when the record is unreadable."""
    meta_extent = tuple(entry["meta_extent"])
    payload = device.read(meta_extent[0])
    if not isinstance(payload, bytes):
        raise CorruptRecord("metadata extent holds synthetic data")
    raw = records.decode(payload, records.REC_CKPT_META)
    info = CheckpointInfo.decode_meta(raw)
    info.meta_extent = meta_extent
    spans = [(offset, count * length)
             for offset, count, length in raw["owned_extents"]]
    spans.append(meta_extent)
    return info, spans


def recover(store: Any) -> Optional[RecoveredState]:
    """Rebuild ``store``'s in-memory state from the device.

    Returns None when no valid superblock exists (blank array).
    Tries superblock generations newest-first: if the newest
    generation's metadata turns out corrupt (a torn catalog or
    checkpoint record), recovery falls back to the previous
    generation rather than failing the mount.
    """
    last_error: Optional[Exception] = None
    for _slot, superblock, _present in _read_superblocks(store.device):
        if superblock is None:
            continue
        try:
            return _rebuild(store, superblock)
        except (CorruptRecord, StoreError) as exc:
            last_error = exc
    if last_error is None:
        return None
    raise StoreError(f"no recoverable superblock generation: {last_error}")


def _rebuild(store: Any, superblock: dict) -> RecoveredState:
    store._generation = superblock["generation"]
    store.alloc = ExtentAllocator(store.device.capacity,
                                  cursor=superblock["alloc_cursor"])
    store.oids = OIDAllocator(next_serial=superblock["oid_cursor"])
    store._ckpt_counter = superblock["ckpt_counter"]
    store._catalog_extent = tuple(superblock["catalog_extent"])
    store._flightrec_extent = tuple(superblock["flightrec"])
    # Promised cluster epoch: absent until the store joins a cluster
    # epoch — the promise survives the crash exactly because it rides
    # the superblock.
    store.cluster_epoch = superblock.get("cluster_epoch", 0)
    owned = [store._catalog_extent, store._flightrec_extent]

    catalog = records.decode(store.device.read(store._catalog_extent[0]),
                             records.REC_CATALOG)
    store.checkpoints = {}
    for _ckpt_id, entry in catalog["checkpoints"].items():
        info, spans = read_checkpoint_meta(store.device, entry)
        info.complete = True
        store.checkpoints[info.ckpt_id] = info
        owned += spans

    store.journals = {}
    for _jid, meta in superblock["journal_dir"].items():
        journal = Journal.decode_meta(store, meta)
        journal.replay()  # fixes epoch/head from the header slot
        store.journals[journal.jid] = journal
        owned.append((journal.base, journal.capacity))

    # Whatever these owners do not hold is free: the previous
    # generation's catalog and flight record (the older slot names them
    # only as a fallback for an unreadable newer one), an async commit's
    # extents in flight at the crash, evicted pages no commit adopted.
    store.alloc.restore((store.alloc.cursor, store.alloc.derive(owned)))
    return RecoveredState(
        generation=store._generation,
        checkpoint_count=len(store.checkpoints),
        journal_count=len(store.journals),
    )
