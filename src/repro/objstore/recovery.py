"""Crash recovery: find the last complete state of the store.

The commit protocol guarantees the superblock only ever points at
fully durable state, so recovery is: read both superblock slots, pick
the valid one with the highest generation, and rebuild the in-memory
maps by reading the catalog and every checkpoint's metadata record.
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
    store.alloc._free = [(pair[0], pair[1])
                         for pair in superblock["free_list"]]
    store.oids = OIDAllocator(next_serial=superblock["oid_cursor"])
    store._ckpt_counter = superblock["ckpt_counter"]
    store._catalog_extent = tuple(superblock["catalog_extent"])
    store._flightrec_extent = tuple(superblock["flightrec"])
    # Promised cluster epoch: absent until the store joins a cluster
    # epoch — the promise survives the crash exactly because it rides
    # the superblock.
    store.cluster_epoch = superblock.get("cluster_epoch", 0)

    catalog = records.decode(store.device.read(store._catalog_extent[0]),
                             records.REC_CATALOG)
    store.checkpoints = {}
    store.extent_refs = {}
    for _ckpt_id, entry in catalog["checkpoints"].items():
        meta_extent = tuple(entry["meta_extent"])
        meta = records.decode(store.device.read(meta_extent[0]),
                              records.REC_CKPT_META)
        info = CheckpointInfo.decode_meta(meta)
        info.meta_extent = meta_extent
        info.complete = True
        store.checkpoints[info.ckpt_id] = info
        for offset, _length in info.owned_extents:
            store.extent_refs[offset] = store.extent_refs.get(offset, 0) + 1

    store.journals = {}
    for _jid, meta in superblock["journal_dir"].items():
        journal = Journal.decode_meta(store, meta)
        journal.replay()  # fixes epoch/head from the header slot
        store.journals[journal.jid] = journal

    return RecoveredState(
        generation=store._generation,
        checkpoint_count=len(store.checkpoints),
        journal_count=len(store.journals),
    )
