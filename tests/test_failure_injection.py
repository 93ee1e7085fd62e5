"""Failure injection: corrupted media, full devices, failed IO.

The single level store's value proposition is surviving ugly failure
modes; these tests inject them deliberately.
"""

import pytest

from repro import Machine, load_aurora
from repro.errors import CorruptRecord, NoSpace, StoreError, StoreFull
from repro.hw.memory import Page
from repro.kernel.aio import AIO_WRITE
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore.store import ObjectStore, SUPERBLOCK_SLOTS
from repro.units import GiB, KiB, MiB, PAGE_SIZE

MEM_OID = make_oid(CLASS_MEMORY, 99)


@pytest.fixture(params=["sync", "async"])
def commit_mode(request):
    """Every failure here must hold on both commit paths: the blocking
    sls_checkpoint+barrier one and the continuous (async) one."""
    return request.param


def _commit(machine, store, txn, mode):
    """Commit ``txn`` via the requested path, to durability."""
    if mode == "sync":
        return store.commit(txn, sync=True)
    info = store.commit(txn, sync=False)
    while not info.complete:
        deadline = store.pending_commit_deadline(info.group_id)
        assert deadline is not None, "async commit stalled incomplete"
        machine.loop.run_until(deadline)
        machine.storage.poll()
    return info


def _store_with_chain(machine, nckpts=3, mode="sync"):
    store = ObjectStore(machine)
    store.format()
    parent = None
    infos = []
    for index in range(nckpts):
        txn = store.begin_checkpoint(group_id=4, parent=parent)
        txn.put_pages(MEM_OID, {0: Page(seed=index)})
        info = _commit(machine, store, txn, mode)
        infos.append(info)
        parent = info.ckpt_id
    return store, infos


def _corrupt_extent(machine, offset):
    payload = machine.storage.read(offset)
    if isinstance(payload, bytes):
        flipped = bytes([payload[0] ^ 0xFF]) + payload[1:]
        machine.storage.discard_extent(offset)
        machine.storage.write(offset, flipped)


def test_corrupt_newest_superblock_falls_back(commit_mode):
    machine = Machine()
    store, infos = _store_with_chain(machine, mode=commit_mode)
    newest_slot = SUPERBLOCK_SLOTS[store._generation % 2]
    machine.crash()
    machine.boot()
    _corrupt_extent(machine, newest_slot)
    store2 = ObjectStore(machine)
    assert store2.mount()
    # One generation was lost, but the store is consistent: whatever
    # checkpoints the surviving generation references are readable.
    for info in store2.checkpoints.values():
        _records, pages = store2.merged_view(info.ckpt_id)
        store2.fetch_page(pages[MEM_OID].lookup(0))


def test_corrupt_catalog_falls_back_a_generation(commit_mode):
    machine = Machine()
    store, infos = _store_with_chain(machine, mode=commit_mode)
    catalog_offset = store._catalog_extent[0]
    machine.crash()
    machine.boot()
    _corrupt_extent(machine, catalog_offset)
    store2 = ObjectStore(machine)
    assert store2.mount()
    # The previous generation lacks the newest checkpoint but is sane.
    assert len(store2.checkpoints) >= 1


def test_both_superblocks_corrupt_reads_as_blank(commit_mode):
    """With no valid superblock at all the array is indistinguishable
    from unformatted: mount() reports that rather than guessing."""
    machine = Machine()
    store, _infos = _store_with_chain(machine, mode=commit_mode)
    machine.crash()
    machine.boot()
    for slot in SUPERBLOCK_SLOTS:
        _corrupt_extent(machine, slot)
    store2 = ObjectStore(machine)
    assert not store2.mount()


def test_torn_page_extent_detected_on_read(commit_mode):
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    txn = store.begin_checkpoint(group_id=4)
    txn.put_pages(MEM_OID, {0: Page(data=b"real bytes" * 40)})
    info = _commit(machine, store, txn, commit_mode)
    _records, pages = store.merged_view(info.ckpt_id)
    locator = pages[MEM_OID].lookup(0)
    # Corrupt the data extent, then try to read the page back.
    raw = machine.storage.read(locator.extent)
    machine.storage.discard_extent(locator.extent)
    machine.storage.write(locator.extent, b"\x00" * len(raw))
    page = store.fetch_page(locator)
    # Data extents are raw page payloads (checksums live on records);
    # the corruption surfaces as different content, which the crash
    # property tests bound to never happen for *committed* superblock
    # generations — here we simply observe the torn content.
    assert page.realize() != Page(data=b"real bytes" * 40).realize()


def test_store_full_surfaces_cleanly(commit_mode):
    """ENOSPC is raised at commit() on both paths: extents are
    allocated up front, before any write is queued."""
    machine = Machine(capacity_per_device=2 * MiB)
    store = ObjectStore(machine)
    store.format()
    txn = store.begin_checkpoint(group_id=4)
    txn.put_pages(MEM_OID, {i: Page(seed=i) for i in range(4096)})
    with pytest.raises(StoreFull):
        store.commit(txn, sync=(commit_mode == "sync"))


def test_checkpoint_on_full_store_does_not_corrupt_previous():
    machine = Machine(capacity_per_device=2 * MiB)
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(2048 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"safe state")
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True)
    gid = group.group_id
    # Dirty far more than the remaining space and try to checkpoint:
    # 2044 pages of data alone exceed the array minus the reserved
    # superblock region, so the overflow does not depend on metadata
    # overhead (run-compressed metadata is tiny).
    proc.vmspace.fill(addr + 4 * PAGE_SIZE, 2044, seed=1)
    with pytest.raises(StoreFull):
        sls.checkpoint(group, sync=True)
    # The first checkpoint still restores after a crash.
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    result = sls2.restore(gid)
    assert result.root.vmspace.read(addr, 10) == b"safe state"


def test_failed_aio_lands_in_checkpoint_state():
    machine = Machine()
    kernel = machine.kernel
    request = kernel.aio.submit(AIO_WRITE, None, 4096, 8192)
    kernel.aio.fail(request, "ENOSPC")
    state = kernel.aio.quiesce()
    assert state["failed"][0]["error"] == "ENOSPC"


def test_journal_full_is_clean_and_journal_still_replays():
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    journal = store.journal_create(32 * KiB)
    written = []
    with pytest.raises(NoSpace):
        for index in range(100):
            payload = f"entry-{index}".encode()
            journal.append(payload)
            written.append(payload)
    assert journal.replay() == written


def test_crash_during_async_flush_preserves_prior_checkpoint():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(512 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"v1")
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True)
    gid = group.group_id
    proc.vmspace.fill(addr, 512, seed=9)
    proc.vmspace.write(addr, b"v2")
    sls.checkpoint(group)          # async; flush in flight
    machine.crash()                # tear it
    machine.boot()
    sls2 = load_aurora(machine)
    result = sls2.restore(gid)
    assert result.root.vmspace.read(addr, 2) == b"v1"
