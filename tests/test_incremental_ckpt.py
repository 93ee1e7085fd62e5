"""Incremental kernel-state checkpoints: epoch dirty-tracking from
KObject through the store's record chains.

The serializer walks everything (liveness) but re-writes only what
mutated since the group's epoch floor; unchanged records resolve
through ``merged_view``'s newest-wins chain walk; GC hands
still-live records to the survivor when the chain is truncated.  These tests pin the
protocol edges: floor advancement only on successful disk commits,
deletion semantics via ``live_oids``, reclaimed-bytes accounting for
page-less deltas, and byte-identical restore/scrub across a
``retain_last``-truncated incremental chain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.core.faults import FaultPlan
from repro.core.pipeline import MODE_MEM
from repro.core.serialize import CheckpointSerializer
from repro.core import telemetry
from repro.errors import NoSpace
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.objstore import records
from repro.objstore.checkpoint import encode_record_index
from repro.objstore.scrub import LIVENESS, scrub

from .serialize_reference import RecordSink


@pytest.fixture
def setup():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    return machine, sls, proc, group


def _open_files(kernel, proc, count, prefix="/f"):
    fds = [kernel.open(proc, f"{prefix}{i}", O_CREAT | O_RDWR)
           for i in range(count)]
    for fd in fds:
        kernel.write(proc, fd, b"seed")
    return fds


# -- the incremental skip ------------------------------------------------------


def test_clean_records_skipped_after_first_checkpoint(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    _open_files(kernel, proc, 16)

    first = sls.checkpoint(group, sync=True)
    assert first.records_skipped == 0
    assert first.records_written > 32          # files + vnodes + proc

    second = sls.checkpoint(group, sync=True)
    # Only the always-dirty process + descriptor records remain.
    assert second.records_written <= 3
    assert second.records_skipped >= 32
    info = sls.store.get_checkpoint(second.info.ckpt_id)
    assert info.records_skipped == second.records_skipped
    assert info.live_oids is not None
    # Everything live is either in this delta or a parent's.
    merged, _pages = sls.store.merged_view(second.info.ckpt_id)
    assert info.live_oids <= set(merged)


def test_records_written_tracks_dirty_set_10x(setup):
    """The acceptance ratio at test scale: with 1% of a 200-fd group
    mutating per tick, steady-state records-written drops >= 10x
    versus the full walk."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fds = _open_files(kernel, proc, 200)

    full = sls.checkpoint(group, sync=True)
    for fd in fds[:2]:                          # 1% of the objects
        kernel.write(proc, fd, b"x")
    incremental = sls.checkpoint(group, sync=True)
    assert full.records_written >= 10 * incremental.records_written
    assert incremental.records_skipped > 0


def test_full_flag_overrides_the_epoch_floor(setup):
    machine, sls, proc, group = setup
    _open_files(machine.kernel, proc, 8)
    first = sls.checkpoint(group, sync=True)
    forced = sls.checkpoint(group, full=True, sync=True)
    assert forced.records_skipped == 0
    assert forced.records_written == first.records_written


def test_closed_file_leaves_the_live_set(setup):
    """live_oids distinguishes "unchanged" from "deleted": a closed
    descriptor's records drop out of the merged view even though an
    ancestor delta still physically holds them."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fds = _open_files(kernel, proc, 4)
    first = sls.checkpoint(group, sync=True)
    merged_before, _ = sls.store.merged_view(first.info.ckpt_id)

    kernel.close(proc, fds[0])
    second = sls.checkpoint(group, sync=True)
    merged_after, _ = sls.store.merged_view(second.info.ckpt_id)
    dropped = set(merged_before) - set(merged_after)
    assert dropped, "closing an fd must shrink the merged view"
    info = sls.store.get_checkpoint(second.info.ckpt_id)
    assert dropped & (set(merged_before) - info.live_oids) == dropped


def test_mem_checkpoint_never_advances_the_floor(setup):
    """An in-memory checkpoint may skip by the floor but must not
    advance it: a later disk checkpoint still captures mutations made
    before the mem checkpoint."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fds = _open_files(kernel, proc, 4)
    sls.checkpoint(group, sync=True)
    floor = group.ckpt_epoch
    assert floor is not None

    kernel.write(proc, fds[0], b"dirty")
    sls.checkpoint(group, mode=MODE_MEM)
    assert group.ckpt_epoch == floor

    disk = sls.checkpoint(group, sync=True)
    # The mutated OpenFile + vnode records are in the disk delta.
    info = sls.store.get_checkpoint(disk.info.ckpt_id)
    decoded = sls.store.read_object_records(info.object_records)
    assert any(otype == "file" for otype, _s in decoded.values())
    assert group.ckpt_epoch is not None and group.ckpt_epoch > floor


def test_failed_commit_never_advances_the_floor(setup):
    """ENOSPC mid-commit fails the checkpoint; the epoch floor stays
    put, so nothing mutated before the failure can ever be skipped by
    a later (successful) checkpoint."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fds = _open_files(kernel, proc, 4)
    sls.checkpoint(group, sync=True)
    floor = group.ckpt_epoch

    kernel.write(proc, fds[0], b"must-survive")
    machine.set_fault_plan(FaultPlan(name="enospc").nospace_at_io(1))
    with pytest.raises(NoSpace):
        sls.checkpoint(group, sync=True)
    assert group.ckpt_epoch == floor
    machine.set_fault_plan(FaultPlan(name="clear"))


# -- GC: record forwarding on truncation --------------------------------------


def test_retain_last_forwards_records_across_truncation(setup):
    """Truncating an incremental chain hands still-live records to
    the oldest survivor by reference — no record payload is read or
    rewritten; the merged view afterwards is unchanged and every
    record still checksums."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fds = _open_files(kernel, proc, 12)
    sls.checkpoint(group, sync=True)
    for tick in range(3):
        kernel.write(proc, fds[tick], b"tick%d" % tick)
        last = sls.checkpoint(group, sync=True)

    view_before = sls.store.merged_view(last.info.ckpt_id)[0]
    merged_before = sls.store.read_object_records(view_before)
    reads = machine.storage.bytes_read
    forwarded = telemetry.registry().counter(
        "sls.store.gc.records_forwarded", group=group.group_id)
    forwarded0 = forwarded.value
    reclaimed = sls.store.retain_last(group.group_id, 1)
    assert reclaimed > 0
    assert forwarded.value > forwarded0
    assert machine.storage.bytes_read == reads
    view_after = sls.store.merged_view(last.info.ckpt_id)[0]
    assert view_after == view_before    # same extents, adopted in place
    merged_after = sls.store.read_object_records(view_after)
    assert merged_after == merged_before

    report = scrub(sls.store, sls)
    assert report.ok, report.findings
    assert report.liveness_checked > 0


def test_truncated_incremental_chain_restores_byte_identical(setup):
    """The acceptance path: restore across a retain_last-truncated
    incremental chain returns exactly the bytes of the last durable
    checkpoint."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fds = _open_files(kernel, proc, 8)
    sls.checkpoint(group, sync=True)
    kernel.write(proc, fds[3], b"-generation-2")
    sls.checkpoint(group, sync=True)
    kernel.write(proc, fds[5], b"-generation-3")
    sls.checkpoint(group, sync=True)
    gid = group.group_id
    sls.store.retain_last(gid, 1)

    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    assert scrub(sls2.store, sls2).ok
    result = sls2.restore(gid, periodic=False)
    root = result.root
    for index, expected in ((3, b"seed-generation-2"),
                            (5, b"seed-generation-3"),
                            (7, b"seed")):
        machine.kernel.lseek(root, fds[index], 0)
        data = machine.kernel.read(root, fds[index], 64)
        assert data == expected, f"fd {index}"


def test_gc_drops_records_dead_in_every_survivor(setup):
    """A record live in no surviving checkpoint's effective set is not
    forwarded — truncation is what actually erases deleted state."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fds = _open_files(kernel, proc, 4)
    first = sls.checkpoint(group, sync=True)
    merged_first = set(sls.store.merged_view(first.info.ckpt_id)[0])
    kernel.close(proc, fds[0])
    last = sls.checkpoint(group, sync=True)

    sls.store.retain_last(group.group_id, 1)
    survivor = sls.store.get_checkpoint(last.info.ckpt_id)
    # The closed file's records were dropped, not forwarded.
    assert not (merged_first - survivor.live_oids) & \
        set(survivor.object_records)
    assert scrub(sls.store, sls).ok


def test_reclaimed_bytes_counted_for_pageless_checkpoints(setup):
    """The telemetry fix: deleting a checkpoint that owns zero page
    extents (a pure OS-state delta) still reports its record + meta
    bytes as reclaimed, in the return value and in
    ``sls.store.reclaimed_bytes``."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fds = _open_files(kernel, proc, 4)
    sls.checkpoint(group, sync=True)
    # Mutate kernel state only - no new page data in the delta.
    kernel.lseek(proc, fds[0], 1)
    mid = sls.checkpoint(group, sync=True)
    sls.checkpoint(group, sync=True)

    info = sls.store.get_checkpoint(mid.info.ckpt_id)
    assert not info.pages and info.data_bytes == 0

    before = sls.store.stats["reclaimed_bytes"]
    reclaimed = sls.store.retain_last(group.group_id, 1)
    assert reclaimed > 0
    assert sls.store.stats["reclaimed_bytes"] - before == reclaimed


def test_chain_depth_histogram_samples_every_commit(setup):
    machine, sls, proc, group = setup
    _open_files(machine.kernel, proc, 2)
    hist = telemetry.registry().histogram("sls.store.chain_depth",
                                          group=group.group_id)
    count0 = hist.count
    for _ in range(4):
        sls.checkpoint(group, sync=True)
    assert hist.count == count0 + 4
    assert hist.max >= 4


# -- scrub: the liveness invariant --------------------------------------------


def test_scrub_flags_unreachable_live_record(setup):
    """Doctoring a parent delta's metadata to lose a record that a
    descendant's live set still needs produces a ``liveness``
    finding — the invariant record forwarding exists to protect."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    _open_files(kernel, proc, 4)
    first = sls.checkpoint(group, sync=True)
    last = sls.checkpoint(group, sync=True)

    parent = sls.store.get_checkpoint(first.info.ckpt_id)
    live = sls.store.get_checkpoint(last.info.ckpt_id).live_oids
    victim_oid = next(oid for oid in parent.object_records
                      if oid in live)
    doctored = parent.encode_meta()
    doctored["object_records"] = encode_record_index(
        {oid: extent for oid, extent in parent.object_records.items()
         if oid != victim_oid})
    payload = records.encode(records.REC_CKPT_META, doctored)
    sls.store.device.write(parent.meta_extent[0], payload)

    report = scrub(sls.store)
    assert any(finding.kind == LIVENESS for finding in report.findings), \
        report.findings


# -- the property: merged_view == from-scratch full serialization -------------


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.integers(0, 5)),
        st.tuples(st.just("write"), st.integers(0, 7)),
        st.tuples(st.just("close"), st.integers(0, 7)),
        st.tuples(st.just("pipe"), st.just(0)),
        st.tuples(st.just("ckpt"), st.just(0)),
    ),
    min_size=1, max_size=20)


@settings(max_examples=15, deadline=None)
@given(_ops)
def test_merged_view_equals_full_serialization(op_list):
    """Over any random mutate/checkpoint interleaving, the merged
    (newest-wins, liveness-filtered) record view at the last
    checkpoint decodes to exactly what a from-scratch full
    serialization of the live kernel state would write."""
    machine = Machine()
    sls = load_aurora(machine)
    kernel = machine.kernel
    proc = kernel.spawn("prop")
    group = sls.attach(proc, periodic=False)

    files = []
    for op, arg in op_list:
        if op == "open":
            files.append(kernel.open(proc, f"/prop{arg}",
                                     O_CREAT | O_RDWR))
        elif op == "write" and files:
            kernel.write(proc, files[arg % len(files)], b"w" * 24)
        elif op == "close" and files:
            kernel.close(proc, files.pop(arg % len(files)))
        elif op == "pipe":
            kernel.pipe(proc)
        elif op == "ckpt":
            sls.checkpoint(group, sync=True)
    final = sls.checkpoint(group, sync=True)

    merged, _pages = sls.store.merged_view(final.info.ckpt_id)
    on_disk = {
        oid: (otype, state)
        for oid, (otype, state)
        in sls.store.read_object_records(merged).items()
        if otype != "vmobject"          # flush items, not serializer output
    }

    sink = RecordSink()
    CheckpointSerializer(kernel, group, sls.store, sink).serialize_all()
    scratch = {}
    for oid, (otype, state) in sink.records.items():
        _oid, r_otype, r_state = records.decode_object(
            records.encode_object(oid, otype, state))
        scratch[oid] = (r_otype, r_state)

    assert on_disk == scratch
