"""``sls send`` / ``sls recv``: application migration between machines.

A checkpoint is serialized into a self-contained stream (records +
page payloads) and imported into another machine's object store as a
fresh checkpoint, where a normal restore resumes the application —
the transparent-migration building block of §1.  Incremental streams
carry only the deltas since a baseline the receiver already holds,
which is the pre-copy primitive live migration is built from.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import serde
from ..errors import RestoreError, SLSError
from ..hw.memory import Page
from ..objstore.checkpoint import overlay_page_maps

STREAM_MAGIC = "aurora-stream-v1"


def _encode_pages(page_locs, store) -> dict:
    """Page payloads for the stream: seeds for synthetic pages, bytes
    otherwise."""
    out: Dict[str, dict] = {}
    for oid, locators in page_locs.items():
        obj_pages = {}
        for pindex, locator in locators.items():
            if locator.kind == "syn":
                obj_pages[str(pindex)] = {"seed": locator.seed}
            else:
                page = store.fetch_page(locator)
                obj_pages[str(pindex)] = {"data": page.realize()}
        out[str(oid)] = obj_pages
    return out


def send_checkpoint(sls, group_id: int, ckpt_id: Optional[int] = None,
                    since: Optional[int] = None) -> bytes:
    """Serialize a checkpoint into a migration stream.

    ``since`` produces an *incremental* stream: only the deltas of
    checkpoints newer than that id (the receiver must already hold the
    baseline).  Without it the stream carries the full merged view.
    """
    store = sls.store
    if ckpt_id is None:
        chain = store.checkpoints_for(group_id, include_partial=True)
        if not chain:
            raise SLSError(f"group {group_id} has nothing to send")
        ckpt_id = chain[-1].ckpt_id

    if since is None:
        record_extents, page_locs = store.merged_view(ckpt_id)
    else:
        record_extents, page_locs = {}, {}
        for info in store.parent_chain(ckpt_id):
            if info.ckpt_id <= since:
                break
            for oid, extent in info.object_records.items():
                record_extents.setdefault(oid, extent)
            overlay_page_maps(page_locs, info.pages)

    records = {}
    for oid, extent in record_extents.items():
        _oid, otype, state = store.read_object_record(extent, oid=oid)
        records[str(oid)] = [otype, state]

    stream = serde.dumps({
        "magic": STREAM_MAGIC,
        "group_id": group_id,
        "ckpt_id": ckpt_id,
        "since": since,
        "records": records,
        "pages": _encode_pages(page_locs, store),
    })
    # Charge the wire time on the sender's clock.
    sls.machine.clock.advance(sls.machine.nic.send(len(stream)))
    return stream


def recv_checkpoint(sls, stream: bytes, name: str = "recv") -> int:
    """Import a migration stream; returns the new local checkpoint id.

    Full streams create a new baseline; incremental streams chain onto
    the group's newest local checkpoint.  ``name`` labels the imported
    checkpoint; cluster replicas encode the primary's checkpoint id in
    it so the mapping survives a replica reboot.
    """
    document = serde.loads(stream)
    if document.get("magic") != STREAM_MAGIC:
        raise RestoreError("not an Aurora migration stream")
    store = sls.store
    group_id = document["group_id"]
    parent = None
    if document["since"] is not None:
        chain = store.checkpoints_for(group_id, include_partial=True)
        if not chain:
            raise RestoreError("incremental stream without a local "
                               "baseline")
        parent = chain[-1].ckpt_id
    txn = store.begin_checkpoint(group_id, name=name, parent=parent)
    for oid_str, (otype, state) in document["records"].items():
        txn.put_object(int(oid_str), otype, state)
    for oid_str, obj_pages in document["pages"].items():
        pages = {}
        for pindex_str, payload in obj_pages.items():
            if "seed" in payload:
                pages[int(pindex_str)] = Page(seed=payload["seed"])
            else:
                pages[int(pindex_str)] = Page(data=payload["data"])
        txn.put_pages(int(oid_str), pages)
    info = store.commit(txn, sync=True)
    return info.ckpt_id


def migrate(src_sls, dst_sls, group, rounds: int = 2):
    """Pre-copy live migration: iterative incremental streams, then a
    final stop-and-copy round, then restore on the destination.

    Returns the destination RestoreResult.
    """
    group_id = group.group_id
    src_sls.checkpoint(group, name="migrate-base", full=True, sync=True)
    baseline = group.last_complete_id
    stream = send_checkpoint(src_sls, group_id, ckpt_id=baseline)
    recv_checkpoint(dst_sls, stream)
    last_sent = baseline

    for _round in range(max(rounds - 1, 0)):
        src_sls.checkpoint(group, name="migrate-delta", sync=True)
        delta_id = group.last_complete_id
        if delta_id == last_sent:
            break
        stream = send_checkpoint(src_sls, group_id, ckpt_id=delta_id,
                                 since=last_sent)
        recv_checkpoint(dst_sls, stream)
        last_sent = delta_id

    # Final round: stop the source for good.
    src_sls.checkpoint(group, name="migrate-final", sync=True)
    final_id = group.last_complete_id
    if final_id != last_sent:
        stream = send_checkpoint(src_sls, group_id, ckpt_id=final_id,
                                 since=last_sent)
        recv_checkpoint(dst_sls, stream)
    for proc in list(group.processes):
        group.remove_process(proc)
        proc.exit(0)
    src_sls.groups.pop(group_id, None)
    group.cancel_timer()
    return dst_sls.restore(group_id)
