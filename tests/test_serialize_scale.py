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
(c) the memo is columnar — four containers, no object per slot: the
    population of long-lived tracked objects sets the cyclic
    collector's schedule, which moved ``setup_s`` on this very shape
    when a prototype kept a tuple per slot.
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys

from repro import Machine, load_aurora
from repro.core.group import ConsistencyGroup
from repro.core.serialize import CheckpointSerializer
from repro.kernel.fs.file import O_CREAT, O_RDWR, OpenFile
from repro.kernel.fs.vnode import Vnode
from repro.objstore import checkpoint as checkpoint_mod

from .test_touch_runs import _count

NFILES = 4000
CHECKPOINTS = 8
WRITES = 40

#: Measured at the parent commit (every slot walked at every
#: checkpoint), same script.
PINNED = {
    "clock_ns": 2_142_254_815,
    "stop_ns": [1_468_600] * CHECKPOINTS,
    "records_written": [82] * CHECKPOINTS,
    "records_skipped": [7_921] * CHECKPOINTS,
    "meta_sha256": "23b5539a173fb063c0fd344a90d9b4011da284cb2d11a6b8"
                   "373f067893e38760",
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

    # (c) columnar memos: four containers, and nothing tracked inside
    # them but the kernel objects the table holds anyway.
    memo, = group.walk_memos.values()
    columns = [getattr(memo, name) for name in memo.__slots__]
    assert [type(column) for column in columns] == [int, dict, list, list,
                                                    set]
    assert {type(obj) for column in columns
            for obj in gc.get_referents(column) if gc.is_tracked(obj)} \
        == {OpenFile, Vnode}
    if sys.version_info[:2] == (3, 11):
        assert tracked <= PINNED_TRACKED_311 + 50
