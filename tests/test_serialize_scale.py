"""Liveness without the walk: identical simulated result and bytes,
O(dirty) host work.

4 000 open slsfs files take eight checkpoints with forty seeded files
written between them (the shape of the ``posix_wide`` benchmark
workload).  Three guards, all deterministic:

(a) the simulated numbers, the record counts and the last metadata
    record's bytes are pinned from the slot-by-slot walk this path
    replaced, so the replay may not move them;
(b) in steady state the serializer visits only the slots that can have
    changed, looks up O(dirty) OIDs, and never sorts the live set
    again — the per-slot walk cannot quietly return;
(c) the memo is columnar — whole containers, no object per slot: the
    population of long-lived tracked objects sets the cyclic
    collector's schedule, which moved ``setup_s`` on this very shape
    when a prototype kept a tuple per slot.

A second test counts stamp reads: the replay finds its slots from the
kernel's dirty log, so a steady checkpoint reads the ``dirty_epoch`` of
no clean slot, and the log never holds an epoch it could not be asked
for.
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import weakref
from array import array

from repro import Machine, load_aurora
from repro.core.group import ConsistencyGroup
from repro.core.serialize import CheckpointSerializer
from repro.kernel.fs.file import O_CREAT, O_RDWR, OpenFile
from repro.objstore import checkpoint as checkpoint_mod

from .test_touch_runs import _count

NFILES = 4000
CHECKPOINTS = 8
WRITES = 40

#: Measured at the parent commit (every slot walked at every
#: checkpoint), same script.  ``clock_ns`` and ``meta_sha256`` were
#: re-recorded once when record extents became one table per record
#: shape: shorter record writes, and the metadata record's extent
#: index names the smaller extents (was 2 142 254 815 and
#: ``23b5539a…e38760``).  Both moved again when owned extents went to
#: media as ``[offset, count, length]`` runs: the metadata record's
#: ``owned_extents`` field and its shorter write (was 2 141 733 548
#: and ``ab567480…5a27fa6d``).  Both moved again when record tables
#: and the page-locator map became typed columns: the metadata
#: record's page table and shorter record and metadata writes (was
#: 2 141 729 634 and ``b7687f1a…68823cd9df``).  Both moved again when a
#: trimming commit became one transaction: the five trims (history 4)
#: no longer write a catalog and superblock of their own (−339 901 ns),
#: so later extents land at other offsets and ``time_ns`` reads
#: earlier; the retained documents are otherwise the same (was
#: 2 141 582 126 and ``a0e79661…b8460a94``).  Both moved again when the
#: superblock stopped carrying the free list: shorter superblock
#: writes, so ``time_ns`` reads earlier and the document is otherwise
#: the same (was 2 141 242 225 and ``4fbc3e03…c2d594f252``).
PINNED = {
    "clock_ns": 2_141_240_766,
    "stop_ns": [1_468_600] * CHECKPOINTS,
    "records_written": [82] * CHECKPOINTS,
    "records_skipped": [7_921] * CHECKPOINTS,
    "meta_sha256": "b0c359ffed51add2991929b4e114a860bb0c2aabb11200767f"
                   "6e0836a697724c",
}
#: Tracked objects the set-up adds under CPython 3.11 at the parent
#: commit (other versions track instances differently).
PINNED_TRACKED_311 = 44_779


def _build(nfiles: int):
    machine = Machine()
    sls = load_aurora(machine)
    kernel = machine.kernel
    proc = kernel.spawn("wide")
    kernel.mkdir(proc, "/wide")
    fds = [kernel.open(proc, f"/wide/f{i}", O_CREAT | O_RDWR)
           for i in range(nfiles)]
    for fd in fds:
        kernel.write(proc, fd, b"seed")
    group = sls.attach(proc, periodic=False, history_limit=4)
    sls.checkpoint(group, sync=True)
    return machine, sls, proc, fds, group


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_replay_is_odirty_sim_identical_and_heap_neutral(monkeypatch):
    _build(4)       # imports and first-use caches are not the set-up's
    before = _tracked()
    machine, sls, proc, fds, group = _build(NFILES)
    tracked = _tracked() - before

    rng = random.Random(19)
    stop_ns, written, skipped = [], [], []
    calls = {}
    with monkeypatch.context() as patch:
        _count(patch, CheckpointSerializer, "serialize_file", calls)
        _count(patch, ConsistencyGroup, "oid_for", calls)
        build_runs = checkpoint_mod.build_arith_runs

        def counting_sets(indexes):
            # The live set is the one *set* the metadata encoder
            # sorts; the record index passes lists.
            calls["live_set_sorts"] = (calls.get("live_set_sorts", 0)
                                       + isinstance(indexes, set))
            return build_runs(indexes)

        patch.setattr(checkpoint_mod, "build_arith_runs", counting_sets)
        for ckpt in range(CHECKPOINTS):
            for fd in rng.sample(fds, WRITES):
                machine.kernel.write(proc, fd, b"t%06d" % ckpt)
            result = sls.checkpoint(group, sync=True)
            stop_ns.append(result.stop_ns)
            written.append(result.records_written)
            skipped.append(result.records_skipped)

    info = sls.store.checkpoints[group.last_ckpt_id]
    meta = machine.storage.read(info.meta_extent[0])
    # (a) the simulated result and the bytes are the walk's.
    assert {
        "clock_ns": machine.clock.now(),
        "stop_ns": stop_ns,
        "records_written": written,
        "records_skipped": skipped,
        "meta_sha256": hashlib.sha256(meta).hexdigest(),
    } == PINNED
    # (b) O(dirty): one visit per written file (no `always` slot and
    # nothing in flight here), a handful of OID lookups per visit (the
    # file, its vnode, the table, the process), no sort of a live set
    # that did not change — through eight commits and the child
    # metadata GC rewrites for history_limit=4.
    assert calls["serialize_file"] == WRITES * CHECKPOINTS
    assert calls["oid_for"] <= (3 * WRITES + 4) * CHECKPOINTS
    assert calls["live_set_sorts"] == 0

    # (c) columnar memos: whole containers — the files, the sorted kids
    # (the kernel's own ints), their slots and the always-visited slots
    # as arrays, the OID set, the parent's live set (which the
    # checkpoints hold anyway) and a weak reference to the last pass's
    # — and nothing tracked inside them but the files the table holds
    # anyway.
    memo, = group.walk_memos.values()
    columns = [getattr(memo, name) for name in memo.__slots__]
    assert [type(column) for column in columns] == [
        int, dict, list, list, array, array, set, set, weakref.ref]
    assert {type(obj) for column in columns
            for obj in gc.get_referents(column)
            if gc.is_tracked(obj) and not isinstance(obj, type)} \
        == {OpenFile}
    if sys.version_info[:2] == (3, 11):
        assert tracked <= PINNED_TRACKED_311 + 50


def _count_stamp_reads(objs, reads):
    """Swap each object's class for a subclass whose ``dirty_epoch`` is
    a property that records the kid of every read."""
    stamp = property(
        lambda self: reads.append(self.kid) or self.__dict__["dirty_epoch"],
        lambda self, epoch: self.__dict__.__setitem__("dirty_epoch", epoch))
    counted = {}
    for obj in objs:
        cls = type(obj)
        if cls not in counted:
            counted[cls] = type(f"Counted{cls.__name__}", (cls,),
                                {"dirty_epoch": stamp})
        obj.__class__ = counted[cls]


def test_replay_reads_no_clean_stamp_and_the_log_stays_pruned():
    machine, sls, proc, fds, group = _build(2000)
    kernel = machine.kernel
    files = [proc.fdtable.get(fd) for fd in fds]
    reads = []
    _count_stamp_reads(files + [file.fobj for file in files], reads)
    rng = random.Random(7)
    for ckpt in range(50):
        written = rng.sample(fds, 1 + ckpt % 12)
        for fd in written:
            machine.kernel.write(proc, fd, b"w%02d" % ckpt)
        reads.clear()
        sls.checkpoint(group, sync=True)
        dirty = {kid for fd in written
                 for kid in (proc.fdtable.get(fd).kid,
                             proc.fdtable.get(fd).fobj.kid)}
        assert dirty <= set(reads) and set(reads) <= dirty, ckpt
        # The log holds only the epochs above the lowest floor.
        assert kernel.dirty_base == group.ckpt_epoch
        assert kernel.dirty_log == []
    assert group.ckpt_epoch == kernel.dirty_epoch - 1
