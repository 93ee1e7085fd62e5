"""The object store: OIDs, allocation, commits, merged views, GC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (InvalidArgument, NoSuchCheckpoint, StoreError,
                          StoreFull)
from repro.hw.memory import Page
from repro.machine import Machine
from repro.objstore.blockalloc import ExtentAllocator
from repro.objstore.oid import (CLASS_MEMORY, CLASS_POSIX, OIDAllocator,
                                make_oid, oid_class, oid_serial)
from repro.objstore.store import ObjectStore
from repro.units import KiB, MiB, PAGE_SIZE, STRIPE_SIZE

MEM_OID = make_oid(CLASS_MEMORY, 500)
POSIX_OID = make_oid(CLASS_POSIX, 501)


@pytest.fixture
def store():
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    return store


# -- OIDs ----------------------------------------------------------------------


def test_oid_encoding_round_trip():
    oid = make_oid(CLASS_MEMORY, 12345)
    assert oid_class(oid) == CLASS_MEMORY
    assert oid_serial(oid) == 12345


def test_oid_allocator_monotonic():
    alloc = OIDAllocator()
    a = alloc.allocate(CLASS_POSIX)
    b = alloc.allocate(CLASS_MEMORY)
    assert oid_serial(b) == oid_serial(a) + 1


def test_oid_rejects_bad_class():
    with pytest.raises(InvalidArgument):
        make_oid(0x7F, 1)


# -- extent allocator ------------------------------------------------------------------


def test_alloc_is_aligned_and_disjoint():
    alloc = ExtentAllocator(16 * MiB)
    offsets = [alloc.alloc(5000) for _ in range(10)]
    assert all(off % (4 * KiB) == 0 for off in offsets)
    assert len(set(offsets)) == 10


def test_free_and_reuse():
    alloc = ExtentAllocator(16 * MiB)
    first = alloc.alloc(8 * KiB)
    alloc.alloc(8 * KiB)
    alloc.free(first, 8 * KiB)
    assert alloc.alloc(4 * KiB) == first  # first fit reuses the hole


def test_free_coalesces_neighbours():
    alloc = ExtentAllocator(16 * MiB)
    a = alloc.alloc(4 * KiB)
    b = alloc.alloc(4 * KiB)
    c = alloc.alloc(4 * KiB)
    alloc.free(a, 4 * KiB)
    alloc.free(c, 4 * KiB)
    alloc.free(b, 4 * KiB)
    assert len(alloc._free) == 1
    assert alloc._free[0] == (a, 12 * KiB)


def test_store_full():
    alloc = ExtentAllocator(512 * KiB)
    with pytest.raises(StoreFull):
        for _ in range(1000):
            alloc.alloc(64 * KiB)


# -- commits and views ----------------------------------------------------------------------


def test_sync_commit_is_immediately_complete(store):
    txn = store.begin_checkpoint(group_id=9)
    txn.put_object(POSIX_OID, "proc", {"pid": 1})
    info = store.commit(txn, sync=True)
    assert info.complete
    assert store.find_latest_complete(9) is info


def test_async_commit_completes_via_event_loop(store):
    txn = store.begin_checkpoint(group_id=9)
    txn.put_pages(MEM_OID, {i: Page(seed=i) for i in range(64)})
    seen = []
    info = store.commit(txn, on_complete=seen.append)
    assert not info.complete
    assert seen == []
    store.machine.loop.drain()
    assert info.complete
    assert seen == [info]


def test_incremental_merged_view_newest_wins(store):
    txn1 = store.begin_checkpoint(group_id=9)
    txn1.put_object(POSIX_OID, "proc", {"step": 1})
    txn1.put_pages(MEM_OID, {0: Page(seed=10), 1: Page(seed=11)})
    info1 = store.commit(txn1, sync=True)

    txn2 = store.begin_checkpoint(group_id=9, parent=info1.ckpt_id)
    txn2.put_object(POSIX_OID, "proc", {"step": 2})
    txn2.put_pages(MEM_OID, {1: Page(seed=21)})
    info2 = store.commit(txn2, sync=True)

    records, pages = store.merged_view(info2.ckpt_id)
    _otype, state = store.read_object_records(records)[POSIX_OID]
    assert state == {"step": 2}
    assert store.fetch_page(pages[MEM_OID].lookup(0)).seed == 10
    assert store.fetch_page(pages[MEM_OID].lookup(1)).seed == 21

    # The older view is still intact (time travel).
    records1, pages1 = store.merged_view(info1.ckpt_id)
    _t, state1 = store.read_object_records(records1)[POSIX_OID]
    assert state1 == {"step": 1}
    assert store.fetch_page(pages1[MEM_OID].lookup(1)).seed == 11


def test_real_page_round_trip(store):
    txn = store.begin_checkpoint(group_id=9)
    payload = bytes(range(200))
    txn.put_pages(MEM_OID, {3: Page(data=payload)})
    info = store.commit(txn, sync=True)
    _records, pages = store.merged_view(info.ckpt_id)
    fetched = store.fetch_page(pages[MEM_OID].lookup(3))
    assert fetched.realize()[:200] == payload


def test_large_flush_packs_into_stripe_extents(store):
    txn = store.begin_checkpoint(group_id=9)
    npages = 64  # 256 KiB of real data
    txn.put_pages(MEM_OID, {i: Page(data=bytes([i]) * 100)
                            for i in range(npages)})
    info = store.commit(txn, sync=True)
    data_extents = [e for e in info.owned_extents
                    if e[1] >= PAGE_SIZE]
    assert all(length <= STRIPE_SIZE for _off, length in data_extents)
    assert info.data_bytes == npages * PAGE_SIZE


def test_double_commit_rejected(store):
    txn = store.begin_checkpoint(group_id=9)
    store.commit(txn, sync=True)
    with pytest.raises(InvalidArgument):
        store.commit(txn, sync=True)


def test_unknown_checkpoint(store):
    with pytest.raises(NoSuchCheckpoint):
        store.get_checkpoint(404)


def test_checkpoints_for_filters_partials(store):
    txn = store.begin_checkpoint(group_id=9)
    full = store.commit(txn, sync=True)
    txn2 = store.begin_checkpoint(group_id=9, parent=full.ckpt_id,
                                  partial=True)
    store.commit(txn2, sync=True)
    assert len(store.checkpoints_for(9)) == 1
    assert len(store.checkpoints_for(9, include_partial=True)) == 2


# -- garbage collection -------------------------------------------------------------------------


def _chain(store, n):
    infos = []
    parent = None
    for i in range(n):
        txn = store.begin_checkpoint(group_id=9, parent=parent)
        txn.put_pages(MEM_OID, {0: Page(seed=100 + i), i + 1: Page(seed=i)})
        info = store.commit(txn, sync=True)
        infos.append(info)
        parent = info.ckpt_id
    return infos


def test_delete_oldest_transfers_visible_state(store):
    infos = _chain(store, 3)
    reclaimed = store.delete_checkpoint(infos[0].ckpt_id)
    assert reclaimed > 0
    _records, pages = store.merged_view(infos[2].ckpt_id)
    # Page 1 only ever existed in the deleted checkpoint's delta; it
    # must have been transferred, and the newest page 0 must win.
    assert store.fetch_page(pages[MEM_OID].lookup(1)).seed == 0
    assert store.fetch_page(pages[MEM_OID].lookup(0)).seed == 102


def test_delete_middle_rejected(store):
    infos = _chain(store, 3)
    with pytest.raises(InvalidArgument):
        store.delete_checkpoint(infos[1].ckpt_id)


def test_retain_last_trims_history(store):
    infos = _chain(store, 6)
    store.retain_last(9, keep=2)
    remaining = store.checkpoints_for(9)
    assert [i.ckpt_id for i in remaining] == [infos[4].ckpt_id,
                                              infos[5].ckpt_id]
    _records, pages = store.merged_view(infos[5].ckpt_id)
    assert len(pages[MEM_OID]) == 7  # page 0 + pages 1..6 all visible


def test_gc_reclaims_space(store):
    infos = _chain(store, 5)
    used_before = store.used_bytes()
    store.retain_last(9, keep=1)
    assert store.used_bytes() < used_before


# -- crash recovery ------------------------------------------------------------------------------------


def test_recovery_finds_only_complete_checkpoints():
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    txn = store.begin_checkpoint(group_id=9)
    txn.put_pages(MEM_OID, {0: Page(data=b"durable")})
    done = store.commit(txn, sync=True)

    # Second checkpoint: crash while its flush is still queued.
    txn2 = store.begin_checkpoint(group_id=9, parent=done.ckpt_id)
    txn2.put_pages(MEM_OID, {0: Page(data=b"torn")})
    store.commit(txn2, sync=False)
    machine.crash()
    machine.boot()

    store2 = ObjectStore(machine)
    assert store2.mount()
    latest = store2.find_latest_complete(9)
    assert latest.ckpt_id == done.ckpt_id
    _records, pages = store2.merged_view(latest.ckpt_id)
    durable = store2.fetch_page(pages[MEM_OID].lookup(0))
    assert durable.realize()[:7] == b"durable"


def test_mount_blank_array_returns_false():
    machine = Machine()
    store = ObjectStore(machine)
    assert not store.mount()


def test_recovery_preserves_oid_cursor():
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    oid = store.alloc_oid(CLASS_POSIX)
    txn = store.begin_checkpoint(group_id=9)
    txn.put_object(oid, "proc", {})
    store.commit(txn, sync=True)
    machine.crash()
    machine.boot()
    store2 = ObjectStore(machine)
    store2.mount()
    assert oid_serial(store2.alloc_oid(CLASS_POSIX)) > oid_serial(oid)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000),
       st.integers(min_value=1, max_value=6))
def test_crash_at_any_point_recovers_a_complete_prefix(crash_delay, nckpts):
    """Crash at an arbitrary instant during a chain of async commits:
    recovery always yields a prefix of complete checkpoints whose
    merged views are intact."""
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    parent = None
    for i in range(nckpts):
        txn = store.begin_checkpoint(group_id=9, parent=parent)
        txn.put_pages(MEM_OID, {j: Page(seed=i * 100 + j)
                                for j in range(8)})
        info = store.commit(txn, sync=False)
        parent = info.ckpt_id
        machine.loop.run_until(machine.clock.now() + crash_delay)
    machine.crash()
    machine.boot()
    store2 = ObjectStore(machine)
    if not store2.mount():
        return  # crashed before the first superblock landed
    chain = store2.checkpoints_for(9)
    # A (possibly empty) prefix survived.
    assert len(chain) <= nckpts
    if chain:
        surviving = len(chain)
        _records, pages = store2.merged_view(chain[-1].ckpt_id)
        for j in range(8):
            assert store2.fetch_page(pages[MEM_OID].lookup(j)).seed == \
                (surviving - 1) * 100 + j
