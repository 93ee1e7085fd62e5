"""Memory overcommitment (pageout daemon) and asynchronous IO."""

import pytest

from repro import Machine, load_aurora
from repro.hw.memory import SYNTHETIC_CLEAN, synthetic_bytes
from repro.kernel.aio import AIO_READ, AIO_WRITE
from repro.kernel.swap import MADV_DONTNEED
from repro.kernel.vm.vmobject import VMObject
from repro.units import MiB, PAGE_SIZE


def small_machine():
    """A machine with tiny RAM so pageout pressure is easy to create."""
    machine = Machine(ram_bytes=4 * MiB)  # 1024 frames
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("hog")
    group = sls.attach(proc, periodic=False)
    return machine, sls, proc, group


def test_pageout_evicts_clean_pages_without_io():
    machine, sls, proc, group = small_machine()
    kernel = machine.kernel
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    # Checkpoint while comfortably below the watermark (no automatic
    # pageout yet): the flush stamps these pages clean.
    proc.vmspace.fill(addr, 700, seed=0)
    sls.checkpoint(group, sync=True)
    # Now create pressure with fresh dirty pages.
    proc.vmspace.fill(addr + 700 * PAGE_SIZE, 230, seed=1)
    track = next(iter(group.tracks.values()))
    chain = list(track.active.chain())
    assert kernel.pageout.memory_pressure()
    written_before = machine.storage.bytes_written
    evicted = kernel.pageout.run_pageout(chain, store=sls.store)
    assert evicted > 0
    assert kernel.pageout.evictions_clean == evicted  # clean only
    assert machine.storage.bytes_written == written_before  # no IO


def test_pageout_flushes_dirty_pages_through_store():
    machine, sls, proc, group = small_machine()
    kernel = machine.kernel
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 930, seed=1)  # dirty, never checkpointed
    obj = proc.vmspace.entry_at(addr).vmobject
    assert kernel.pageout.memory_pressure()
    evicted = kernel.pageout.run_pageout([obj], store=sls.store)
    assert evicted > 0
    assert kernel.pageout.evictions_dirty == evicted


def test_page_in_after_eviction_restores_content():
    machine, sls, proc, group = small_machine()
    kernel = machine.kernel
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 930, seed=2)
    proc.vmspace.write(addr, b"page zero data")
    obj = proc.vmspace.entry_at(addr).vmobject
    kernel.pageout.run_pageout([obj], store=sls.store)
    # Evicted pages fault back in transparently on access.
    assert proc.vmspace.read(addr, 14) == b"page zero data"
    assert kernel.pageout.pageins >= 0


def test_madvise_dontneed_prioritizes_eviction():
    machine, sls, proc, group = small_machine()
    kernel = machine.kernel
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 930, seed=3)
    sls.checkpoint(group, sync=True)
    track = next(iter(group.tracks.values()))
    base = track.active.backing  # the frozen shadow holding the pages
    kernel.pageout.madvise(base, 5, MADV_DONTNEED)
    kernel.pageout.run_pageout(list(track.active.chain()),
                               store=sls.store)
    assert kernel.pageout.is_evicted(base, 5)


def test_clean_marks_synthetic_shared_real_own_locator():
    """A flushed synthetic page shares one clean mark and is evicted
    with the locator derived from its seed; a real page is evicted with
    its own; a page written after the flush is dirty."""
    machine, sls, proc, group = small_machine()
    pageout = machine.kernel.pageout
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"real page")
    proc.vmspace.fill(addr + PAGE_SIZE, 699, seed=4)
    sls.checkpoint(group, sync=True)
    track = next(iter(group.tracks.values()))
    base = track.active.backing  # the frozen shadow holding the pages
    real, syn = base.pages[0], base.pages[1]
    assert syn.clean_locator is SYNTHETIC_CLEAN
    assert real.clean_locator.kind == "ext"
    # Written after the flush: a new, dirty page above the clean one.
    proc.vmspace.touch(addr + 2 * PAGE_SIZE, 1, seed=99)
    assert track.active.pages[2].clean_locator is None
    proc.vmspace.fill(addr + 700 * PAGE_SIZE, 230, seed=5)
    assert pageout.memory_pressure()
    for pindex in (0, 1, 2):
        pageout.madvise(base, pindex, MADV_DONTNEED)
    pageout.run_pageout(list(track.active.chain()), store=sls.store)
    assert pageout.evictions_dirty == 0
    real_locator, syn_locator = (pageout.evicted[base.kid][pindex]
                                 for pindex in (0, 1))
    assert real_locator is real.clean_locator
    assert (syn_locator.kind, syn_locator.seed) == ("syn", syn.seed)
    assert 2 in track.active.pages and not pageout.is_evicted(
        track.active, 2)
    # Page-in returns the flushed content, clean again.
    assert proc.vmspace.read(addr + PAGE_SIZE, PAGE_SIZE) \
        == synthetic_bytes(syn.seed)
    assert proc.vmspace.read(addr, 9) == b"real page"
    assert base.pages[1].clean_locator is SYNTHETIC_CLEAN
    assert base.pages[0].clean_locator is real_locator


def test_orchestrator_runs_pageout_automatically():
    """The §6 loop end-to-end: periodic checkpoints keep pages clean,
    and under pressure the orchestrator reclaims them without IO."""
    machine, sls, proc, group = small_machine()
    kernel = machine.kernel
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 930, seed=7)
    assert kernel.pageout.memory_pressure()
    sls.checkpoint(group, sync=True)  # on_complete triggers pageout
    assert kernel.pageout.evictions_clean > 0
    assert not kernel.pageout.memory_pressure()
    # Evicted pages transparently fault back in with correct content.
    proc.vmspace.write(addr, b"still works")
    assert proc.vmspace.read(addr, 11) == b"still works"


def test_eviction_records_survive_collapse():
    """A collapse moves pages between objects; records for already-
    evicted pages must follow or their content becomes unreachable."""
    machine, sls, proc, group = small_machine()
    kernel = machine.kernel
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"evict me")
    proc.vmspace.fill(addr + PAGE_SIZE, 929, seed=1)
    sls.checkpoint(group, sync=True)   # flush + auto-pageout happens
    # Another dirty round and checkpoint: collapses the old frozen
    # shadow (where the evicted pages' records pointed).
    proc.vmspace.touch(addr + PAGE_SIZE, 4, seed=2)
    sls.checkpoint(group, sync=True)
    proc.vmspace.touch(addr + PAGE_SIZE, 4, seed=3)
    sls.checkpoint(group, sync=True)
    assert proc.vmspace.read(addr, 8) == b"evict me"


def test_migrate_object_is_one_pop_and_merge():
    """Records are kept per object: a collapse moves them without
    scanning every evicted page, and the new home's own record wins."""
    kernel = Machine().kernel
    pageout = kernel.pageout
    old, new, other = (VMObject(kernel, 8) for _ in range(3))
    pageout.evicted = {old.kid: {1: "old-1", 2: "old-2"},
                       new.kid: {2: "new-2"}, other.kid: {1: "other"}}
    assert pageout.migrate_object(old.kid, new.kid) == 2
    assert pageout.evicted == {new.kid: {1: "old-1", 2: "new-2"},
                               other.kid: {1: "other"}}
    assert pageout.is_evicted(new, 1) and not pageout.is_evicted(old, 1)
    assert pageout.migrate_object(old.kid, new.kid) == 0


# -- AIO ----------------------------------------------------------------------------------


def test_aio_completes_via_event_loop():
    machine = Machine()
    kernel = machine.kernel
    request = kernel.aio.submit(AIO_WRITE, None, 0, 4096)
    assert request.status == "pending"
    machine.loop.drain()
    assert request.status == "done"


def test_aio_quiesce_records_reads_and_write_barrier():
    """§5.3: reads are recorded for reissue; writes gate checkpoint
    completion."""
    machine = Machine()
    kernel = machine.kernel
    read_req = kernel.aio.submit(AIO_READ, None, 100, 4096)
    write_req = kernel.aio.submit(AIO_WRITE, None, 200, 8192)
    state = kernel.aio.quiesce()
    assert state["reads"] == [{"op": "read", "offset": 100,
                               "length": 4096}]
    assert state["write_barrier"] == [write_req.aio_id]
    assert not kernel.aio.writes_drained(state["write_barrier"])
    machine.loop.drain()
    assert kernel.aio.writes_drained(state["write_barrier"])


def test_failed_aio_recorded():
    machine = Machine()
    kernel = machine.kernel
    request = kernel.aio.submit(AIO_WRITE, None, 0, 4096)
    kernel.aio.fail(request, "EIO")
    state = kernel.aio.quiesce()
    assert state["failed"] == [{"op": "write", "offset": 0,
                                "error": "EIO"}]
