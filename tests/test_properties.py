"""Property-based tests on the system's core invariants.

These are the heavyweight guarantees the reproduction stands on:

* the VM layer behaves like flat memory under arbitrary write/fork/read
  interleavings;
* a checkpoint/crash/restore cycle always reproduces exactly the
  checkpointed bytes;
* the store's incremental merged views always equal a flat model of
  the same write history, at *every* checkpoint in the chain, before
  and after garbage collection;
* journals replay exactly the appends of the current epoch;
* the extent allocator never hands out overlapping live extents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.hw.memory import Page
from repro.machine import Machine as _Machine
from repro.objstore.blockalloc import ExtentAllocator
from repro.objstore.checkpoint import NO_PAGES
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore.store import ObjectStore
from repro.units import GiB, KiB, MiB, PAGE_SIZE
from tests.content import page_runs

MEM_OID = make_oid(CLASS_MEMORY, 777)


# -- VM vs flat-memory model -----------------------------------------------------

vm_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 60),
                  st.binary(min_size=1, max_size=200)),
        st.tuples(st.just("fork"), st.just(0), st.just(b"")),
        st.tuples(st.just("switch"), st.integers(0, 3), st.just(b"")),
    ),
    min_size=1, max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(vm_ops)
def test_vmspace_matches_flat_memory_model(ops):
    """Arbitrary interleavings of writes, forks and process switches
    behave exactly like independent flat address spaces with COW
    snapshots at fork points."""
    machine = Machine()
    kernel = machine.kernel
    root = kernel.spawn("root")
    region = 64 * PAGE_SIZE
    addr = root.vmspace.mmap(region, name="heap")
    procs = [root]
    models = [bytearray(region)]
    current = 0
    for op, arg, payload in ops:
        if op == "write":
            offset = arg * 100
            if offset + len(payload) > region:
                continue
            procs[current].vmspace.write(addr + offset, payload)
            models[current][offset:offset + len(payload)] = payload
        elif op == "fork" and len(procs) < 4:
            child = kernel.fork(procs[current])
            procs.append(child)
            models.append(bytearray(models[current]))
        elif op == "switch":
            current = arg % len(procs)
    for proc, model in zip(procs, models):
        for offset in range(0, region, 16 * PAGE_SIZE):
            got = proc.vmspace.read(addr + offset, 64)
            assert got == bytes(model[offset:offset + 64])


# -- checkpoint / crash / restore round trip -----------------------------------------


ckpt_writes = st.lists(
    st.tuples(st.integers(0, 31), st.binary(min_size=1, max_size=64)),
    min_size=1, max_size=16)


@settings(max_examples=25, deadline=None)
@given(st.lists(ckpt_writes, min_size=1, max_size=4),
       st.integers(0, 3))
def test_restore_reproduces_any_checkpoint(rounds, target_index):
    """Write in rounds with a checkpoint after each; crash; restoring
    round k reproduces exactly the memory as of round k."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    region = 32 * PAGE_SIZE
    addr = proc.vmspace.mmap(region, name="heap")
    group = sls.attach(proc, periodic=False)

    model = bytearray(region)
    snapshots = []
    ckpt_ids = []
    for writes in rounds:
        for slot, payload in writes:
            offset = slot * 128
            if offset + len(payload) > region:
                continue
            proc.vmspace.write(addr + offset, payload)
            model[offset:offset + len(payload)] = payload
        res = sls.checkpoint(group, sync=True)
        snapshots.append(bytes(model))
        ckpt_ids.append(res.info.ckpt_id)

    target = min(target_index, len(ckpt_ids) - 1)
    gid = group.group_id
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    result = sls2.restore(gid, ckpt_id=ckpt_ids[target], periodic=False)
    got = result.root.vmspace.read(addr, region)
    assert got == snapshots[target]


# -- store merged views vs flat model ----------------------------------------------------


page_rounds = st.lists(
    st.dictionaries(st.integers(0, 15), st.integers(1, 10_000),
                    min_size=1, max_size=8),
    min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(page_rounds, st.data())
def test_merged_views_equal_flat_model_even_after_gc(rounds, data):
    """Every checkpoint's merged view equals the flat model of writes
    up to it; deleting history from the old end never changes the
    views of the survivors."""
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    model = {}
    snapshots = []
    infos = []
    parent = None
    for round_pages in rounds:
        txn = store.begin_checkpoint(group_id=5, parent=parent)
        txn.put_pages(MEM_OID, page_runs({
            pindex: Page(seed=seed) for pindex, seed in round_pages.items()}))
        info = store.commit(txn, sync=True)
        model.update(round_pages)
        snapshots.append(dict(model))
        infos.append(info)
        parent = info.ckpt_id

    def check(index):
        _records, pages = store.merged_view(infos[index].ckpt_id)
        runs = pages.get(MEM_OID, NO_PAGES).runs
        got = dict(zip((p for run in runs for p in range(run[1], run[1] + run[2])),
                       (page.seed for page in store.fetch_pages(runs))))
        assert got == snapshots[index]

    for index in range(len(infos)):
        check(index)

    # GC a random prefix and re-check every survivor.
    ndelete = data.draw(st.integers(0, len(infos) - 1))
    for index in range(ndelete):
        store.delete_checkpoint(infos[index].ckpt_id)
    for index in range(ndelete, len(infos)):
        check(index)


# -- journal model ---------------------------------------------------------------------------


journal_ops = st.lists(
    st.one_of(st.binary(min_size=1, max_size=6000),
              st.just("truncate")),
    min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(journal_ops)
def test_journal_replay_matches_model(ops):
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    journal = store.journal_create(4 * MiB)
    model = []
    for op in ops:
        if op == "truncate":
            journal.truncate()
            model = []
        else:
            journal.append(op)
            model.append(op)
    jid = journal.jid
    machine.crash()
    machine.boot()
    store2 = ObjectStore(machine)
    assert store2.mount()
    assert store2.journal(jid).replay() == model


# -- extent allocator ----------------------------------------------------------------------------


alloc_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 512 * 1024)),
        st.tuples(st.just("free"), st.integers(0, 10 ** 6)),
    ),
    min_size=1, max_size=60)


@settings(max_examples=80, deadline=None)
@given(alloc_ops)
def test_allocator_never_overlaps_live_extents(ops):
    alloc = ExtentAllocator(1 * GiB)
    live = {}  # offset -> aligned length
    for op, arg in ops:
        if op == "alloc":
            offset = alloc.alloc(arg)
            length = (arg + 4 * KiB - 1) // (4 * KiB) * (4 * KiB)
            for other_off, other_len in live.items():
                assert offset + length <= other_off \
                    or other_off + other_len <= offset, \
                    "allocator handed out an overlapping extent"
            live[offset] = length
        elif live:
            victim = sorted(live)[arg % len(live)]
            alloc.free(victim, live.pop(victim))


# -- PID reservation under churn -----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
def test_pid_allocator_unique_under_churn(ops):
    from repro.kernel.proc.pid import PIDAllocator
    alloc = PIDAllocator(first=10, limit=60)
    live = set()
    for op in ops:
        if op == 0 or not live:
            if len(live) >= 45:
                continue
            pid = alloc.allocate()
            assert pid not in live
            live.add(pid)
        elif op == 1:
            victim = next(iter(live))
            live.discard(victim)
            alloc.release(victim)
        else:
            # Reservation of an arbitrary id either fails (in use) or
            # yields a unique id.
            target = 10 + (len(live) * 7) % 50
            if alloc.reserve(target):
                assert target not in live
                live.add(target)
