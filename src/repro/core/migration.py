"""``sls send`` / ``sls recv``: application migration between machines.

A checkpoint is serialized into a self-contained stream (records +
page payloads) and imported into another machine's object store as a
fresh checkpoint, where a normal restore resumes the application —
the transparent-migration building block of §1.  Incremental streams
carry only the deltas since a baseline the receiver already holds,
which is the pre-copy primitive live migration is built from.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .. import serde
from ..errors import RestoreError, SLSError
from ..hw.memory import Page
from ..kernel.vm.vmobject import page_run
from ..objstore.checkpoint import PageRuns, overlay_page_maps
from ..objstore.store import ObjectStore
from ..units import PAGE_SIZE
from .group import ConsistencyGroup
from .orchestrator import Orchestrator
from .restore import RestoreResult
from .runs import build_arith_runs, expand_arith_runs

STREAM_MAGIC = "aurora-stream-v2"


def _wire_pages(page_locs: Dict[int, PageRuns],
                store: ObjectStore) -> Dict[str, List[List[Any]]]:
    """The delta's page tables as the metadata document's runs:
    ``"syn"`` runs verbatim, real pages (one batched read) as
    ``["dat", first, count, bytes]`` — one run per stretch of adjacent
    page indexes, however the sender's extents happen to cut it."""
    wire = {str(oid): table.encode() for oid, table in page_locs.items()}
    fetched = iter(store.fetch_pages(
        run for runs in wire.values() for run in runs if run[0] == "ext"))
    for key, runs in wire.items():
        out: List[List[Any]] = []
        for run in runs:
            if run[0] == "ext":
                start, count = run[1], run[2]
                data = b"".join(next(fetched).realize()
                                for _ in range(count))
                if out and out[-1][0] == "dat" \
                        and out[-1][1] + out[-1][2] == start:
                    out[-1][2] += count
                    out[-1][3] += data
                    continue
                run = ["dat", start, count, data]
            out.append(run)
        wire[key] = out
    return wire


def serialize_checkpoint(sls: Orchestrator, group_id: int,
                         ckpt_id: Optional[int] = None,
                         since: Optional[int] = None) -> bytes:
    """Serialize a checkpoint into a migration stream.

    ``since`` produces an *incremental* stream: only the deltas of
    checkpoints newer than that id (the receiver must already hold the
    baseline).  Without it the stream carries the full merged view.

    The stream is *canonical* — records, page runs and the live set,
    no checkpoint id and no extent offset, so every store holding the
    same delta serializes it to the same bytes — and *complete*: the
    effective live set travels, so the receiver restores exactly the
    objects the sender would.
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

    live = store.effective_live_oids(ckpt_id)
    return serde.dumps({
        "magic": STREAM_MAGIC,
        "group_id": group_id,
        "incremental": since is not None,
        "live": None if live is None else build_arith_runs(live),
        "records": {str(oid): list(record) for oid, record
                    in store.read_object_records(record_extents).items()},
        "pages": _wire_pages(page_locs, store),
    })


def send_checkpoint(sls: Orchestrator, group_id: int,
                    ckpt_id: Optional[int] = None,
                    since: Optional[int] = None) -> bytes:
    """:func:`serialize_checkpoint`, then put the stream on the wire:
    the transmission is charged on the sender's clock."""
    stream = serialize_checkpoint(sls, group_id, ckpt_id, since)
    sls.machine.clock.advance(sls.machine.nic.send(len(stream)))
    return stream


def recv_checkpoint(sls: Orchestrator, stream: bytes,
                    name: str = "recv", keep: Optional[int] = None) -> int:
    """Import a migration stream; returns the new local checkpoint id.

    Full streams create a new baseline; incremental streams chain onto
    the group's newest local checkpoint.  ``name`` labels the imported
    checkpoint; cluster replicas encode the primary's checkpoint id in
    it so the mapping survives a replica reboot, and ``keep`` so it
    trims with the primary, in the commit's one flip.
    """
    document = serde.loads(stream)
    if document.get("magic") != STREAM_MAGIC:
        raise RestoreError("not an Aurora migration stream")
    store = sls.store
    group_id = document["group_id"]
    parent = None
    if document["incremental"]:
        chain = store.checkpoints_for(group_id, include_partial=True)
        if not chain:
            raise RestoreError("incremental stream without a local "
                               "baseline")
        parent = chain[-1].ckpt_id
    txn = store.begin_checkpoint(group_id, name=name, parent=parent)
    if document["live"] is not None:
        txn.info.live_oids = set(expand_arith_runs(document["live"]))
    for oid_str, (otype, state) in document["records"].items():
        txn.put_object(int(oid_str), otype, state)
    for oid_str, runs in document["pages"].items():
        # Synthetic runs are staged as they travel; only real bytes
        # become pages.
        staged: List[Any] = []
        for run in runs:
            if run[0] == "syn":
                staged.append(run)
            elif run[0] == "dat":
                staged += (page_run(run[1] + i, Page(
                    data=run[3][i * PAGE_SIZE:(i + 1) * PAGE_SIZE]))
                    for i in range(run[2]))
            else:
                raise RestoreError(f"bad page run kind {run[0]!r}")
        txn.put_pages(int(oid_str), staged)
    info = store.commit(txn, sync=True, keep=keep)
    return info.ckpt_id


def migrate(src_sls: Orchestrator, dst_sls: Orchestrator,
            group: ConsistencyGroup, rounds: int = 2) -> RestoreResult:
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
