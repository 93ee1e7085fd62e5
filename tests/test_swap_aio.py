"""Memory overcommitment (pageout daemon) and asynchronous IO."""

import pytest

from repro import Machine, load_aurora
from repro.core.runs import clip_run, run_at
from repro.errors import StoreFull
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.hw.memory import Page, synthetic_bytes
from repro.kernel.aio import AIO_READ, AIO_WRITE
from repro.kernel.swap import MADV_DONTNEED, is_dirty
from repro.objstore.scrub import scrub
from repro.kernel.vm.vmobject import VMObject, page_run
from repro.units import MiB, PAGE_SIZE
from tests.content import clean_mark, page_runs


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


def test_store_full_mid_pass_keeps_earlier_evictions(monkeypatch):
    """An eviction pass whose batch write of dirty real pages runs out
    of store space keeps a record of every page it evicted before —
    clean pages, and dirty synthetic ones, which need no IO — and they
    still read back as written; the real pages stay resident, and the
    extent the batch did allocate is given back."""
    machine, sls, proc, group = small_machine()
    pageout = machine.kernel.pageout
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 20, seed=4)
    sls.checkpoint(group, sync=True)           # pages 0..19 are clean
    for pindex in range(20, 40):               # two extents' worth
        proc.vmspace.write(addr + pindex * PAGE_SIZE, b"real %d" % pindex)
    proc.vmspace.fill(addr + 40 * PAGE_SIZE, 890, seed=100)
    assert pageout.memory_pressure()
    track = next(iter(group.tracks.values()))
    store = sls.store
    used = store.used_bytes()
    real_alloc = store.alloc.alloc
    staged = []

    def alloc_once(nbytes):
        if staged:
            raise StoreFull("object store full")
        staged.append(nbytes)
        return real_alloc(nbytes)

    monkeypatch.setattr(store.alloc, "alloc", alloc_once)
    with pytest.raises(StoreFull):
        pageout.run_pageout(list(track.active.chain()), store=store)
    monkeypatch.undo()
    assert staged == [16 * PAGE_SIZE]
    assert store.used_bytes() == used and not store.swap_extents
    assert (pageout.evictions_clean, pageout.evictions_dirty) == (20, 21)
    base, active = track.active.backing, track.active
    assert all(pageout.is_evicted(base, p) for p in range(20))
    assert all(pageout.is_evicted(active, p) for p in range(40, 61))
    assert not any(pageout.is_evicted(active, p) for p in range(20, 40))
    assert not pageout.is_evicted(active, 61)
    for pindex, seed in ((0, 4), (19, 23), (40, 100), (60, 120), (61, 121)):
        assert proc.vmspace.read(addr + pindex * PAGE_SIZE, 64) \
            == synthetic_bytes(seed)[:64]
    for pindex in (20, 39):
        assert proc.vmspace.read(addr + pindex * PAGE_SIZE, 7) \
            == b"real %d" % pindex


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
    """A flushed synthetic page is clean as its run is, and is evicted
    with the locator derived from its seed; a real page is marked with
    its own locator, a one-page run, and evicted with it; a page written
    after the flush is dirty."""
    machine, sls, proc, group = small_machine()
    pageout = machine.kernel.pageout
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"real page")
    proc.vmspace.fill(addr + PAGE_SIZE, 699, seed=4)
    sls.checkpoint(group, sync=True)
    track = next(iter(group.tracks.values()))
    base = track.active.backing  # the frozen shadow holding the pages
    syn = base.page_at(1)
    real_mark = clean_mark(base, 0)
    assert clean_mark(base, 1) == ("syn", 1, 1, syn.seed, 0)
    assert real_mark[:3] == ("ext", 0, 1)
    # Written after the flush: a new, dirty page above the clean one.
    proc.vmspace.touch(addr + 2 * PAGE_SIZE, 1, seed=99)
    assert track.active.page_at(2) is not None
    assert clean_mark(track.active, 2) is None
    proc.vmspace.fill(addr + 700 * PAGE_SIZE, 230, seed=5)
    assert pageout.memory_pressure()
    for pindex in (0, 1, 2):
        pageout.madvise(base, pindex, MADV_DONTNEED)
    pageout.run_pageout(list(track.active.chain()), store=sls.store)
    assert pageout.evictions_dirty == 0
    real_locator, syn_locator = (
        clip_run(run_at(pageout.evicted[base.kid], pindex), pindex, pindex + 1)
        for pindex in (0, 1))
    assert real_locator == real_mark
    assert syn_locator[:4] == ("syn", 1, 1, syn.seed)
    assert track.active.page_at(2) is not None and not pageout.is_evicted(
        track.active, 2)
    # Page-in returns the flushed content, clean again.
    assert proc.vmspace.read(addr + PAGE_SIZE, PAGE_SIZE) \
        == synthetic_bytes(syn.seed)
    assert proc.vmspace.read(addr, 9) == b"real page"
    assert clean_mark(base, 1) == ("syn", 1, 1, syn.seed, 0)
    assert clean_mark(base, 0) == real_locator


def test_eagerly_restored_pages_are_clean():
    """An eager restore inserts content the store already holds: under
    pressure it is evicted without IO, as lazily restored pages are, and
    pages back in with the same content."""
    machine, sls, proc, group = small_machine()
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"real page")
    proc.vmspace.fill(addr + PAGE_SIZE, 699, seed=6)
    sls.checkpoint(group, sync=True)
    machine.crash()
    machine.boot()
    sls = load_aurora(machine)
    result = sls.restore(group.group_id, periodic=False)
    vmspace = result.root.vmspace
    # Fresh dirty pages push the machine over the high watermark.
    vmspace.fill(addr + 700 * PAGE_SIZE, 230, seed=7)
    pageout = machine.kernel.pageout
    assert pageout.memory_pressure()
    track = next(iter(result.group.tracks.values()))
    written_before = machine.storage.bytes_written
    evicted = pageout.run_pageout(list(track.active.chain()),
                                  store=sls.store)
    assert evicted > 0 and not pageout.memory_pressure()
    assert pageout.evictions_dirty == 0
    assert pageout.evictions_clean == evicted
    assert machine.storage.bytes_written == written_before
    # The lowest indexes went first: the real page and synthetic ones.
    assert vmspace.read(addr, 9) == b"real page"
    for pindex in (1, 2, evicted - 1, evicted, 699):
        assert vmspace.read(addr + pindex * PAGE_SIZE, PAGE_SIZE) \
            == synthetic_bytes(6 + pindex - 1)
    assert vmspace.read(addr + 700 * PAGE_SIZE, 64) \
        == synthetic_bytes(7)[:64]


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
    """Records are kept per object as locator runs: a collapse moves
    them with one splice, newest wins — the newer object's evicted runs
    over the older's, which its resident pages cut too — whichever of
    the two is the new home."""
    kernel = Machine().kernel
    pageout = kernel.pageout
    older, newer, other = (VMObject(kernel, 8) for _ in range(3))
    newer.insert([page_run(5, Page(seed=50))])
    for home, away in ((older, newer), (newer, older)):
        pageout.evicted = {older.kid: [("syn", 1, 6, 10, 1)],
                           newer.kid: [("syn", 2, 1, 90, 0)],
                           other.kid: [("syn", 1, 1, 70, 0)]}
        pageout.migrate_object(older.kid, newer, home.kid)
        assert pageout.evicted == {
            home.kid: [("syn", 1, 1, 10, 1), ("syn", 2, 1, 90, 0),
                       ("syn", 3, 2, 12, 1), ("syn", 6, 1, 15, 1)],
            other.kid: [("syn", 1, 1, 70, 0)]}
        assert pageout.is_evicted(home, 1) and not pageout.is_evicted(away, 1)
        assert not pageout.is_evicted(home, 5)


@pytest.mark.parametrize("read_first", [True, False],
                         ids=["before-collapse", "after-collapse"])
def test_newer_evicted_page_is_not_shadowed_by_older_copy(read_first):
    """A page evicted from a frozen shadow hides the base object's older
    resident copy: read before the next checkpoint it is paged back in,
    and the reversed collapse that checkpoint runs drops the base's
    stale copy under the eviction it moves down."""
    machine, sls, proc, group = small_machine()
    pageout = machine.kernel.pageout
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 600, seed=3)
    sls.checkpoint(group, sync=True)
    proc.vmspace.touch(addr + 5 * PAGE_SIZE, 1, seed=777)
    sls.checkpoint(group, sync=True)
    track = next(iter(group.tracks.values()))
    frozen = track.active.backing       # holds page 5, clean seed 777
    proc.vmspace.fill(addr + 600 * PAGE_SIZE, 330, seed=9)
    assert pageout.run_pageout([frozen], store=sls.store) == 1
    assert pageout.is_evicted(frozen, 5)
    page5 = addr + 5 * PAGE_SIZE
    if read_first:
        assert proc.vmspace.read(page5, 64) == synthetic_bytes(777)[:64]
    sls.checkpoint(group, sync=True)    # collapses the frozen shadow
    assert proc.vmspace.read(page5, 64) == synthetic_bytes(777)[:64]


def test_forward_collapse_keeps_the_shadows_eviction():
    """The classic collapse lifts no parent page over an index the
    shadow has evicted: the eviction stays, and still wins."""
    kernel = Machine().kernel
    pageout = kernel.pageout
    parent = VMObject(kernel, 8)
    parent.insert(page_runs({i: Page(seed=i) for i in range(4)}))
    shadow = parent.shadow()
    parent.unref()
    pageout.evicted = {shadow.kid: [("syn", 2, 1, 77, 0)],
                       parent.kid: [("syn", 6, 1, 66, 0)]}
    used = kernel.physmem.used_frames
    assert shadow.collapse_forward() == 3
    assert pageout.evicted == {shadow.kid: [("syn", 2, 1, 77, 0),
                                            ("syn", 6, 1, 66, 0)]}
    assert shadow.page_at(2) is None and shadow.lookup_page(2)[0] is None
    assert [shadow.page_at(i).seed for i in (0, 1, 3)] == [0, 1, 3]
    assert kernel.physmem.used_frames == used - 1


def test_pageout_builds_no_page_for_clean_runs(monkeypatch):
    """A clean synthetic stretch held as one run is evicted without IO
    and without a ``Page``: the pass splices the run itself into the
    object's evicted runs, one coalesced run."""
    machine, sls, proc, group = small_machine()
    pageout = machine.kernel.pageout
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 700, seed=5)
    sls.checkpoint(group, sync=True)            # one clean run of 700
    proc.vmspace.fill(addr + 700 * PAGE_SIZE, 230, seed=9)
    assert pageout.memory_pressure()
    base = next(iter(group.tracks.values())).active.backing
    built = []
    plain_init = Page.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        plain_init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Page, "__init__", counting_init)
        evicted = pageout.run_pageout([base], store=sls.store)
    assert not built
    assert 0 < evicted < 700 and not pageout.memory_pressure()
    assert pageout.evictions_clean == evicted
    assert pageout.evicted[base.kid] == [["syn", 0, evicted, 5, 1]]
    assert proc.vmspace.read(addr + (evicted - 1) * PAGE_SIZE, 32) \
        == synthetic_bytes(5 + evicted - 1)[:32]


def test_checkpointed_pages_of_a_private_file_mapping_evict_without_io():
    """A file's pages behind a MAP_PRIVATE mapping sit in the chain the
    pageout daemon scans.  Pages written to the file after the mapping
    was first checkpointed reach the store through the file's own
    record, not the mapping's flush; once a checkpoint embeds them they
    are clean there too, so pressure evicts them without staging one."""
    machine, sls, proc, group = small_machine()
    kernel = machine.kernel
    fd = kernel.open(proc, "/data", O_CREAT | O_RDWR)
    kernel.write(proc, fd, bytes(600 * PAGE_SIZE))
    addr = kernel.mmap_file(proc, fd, 600 * PAGE_SIZE, shared=False)
    proc.vmspace.write(addr, b"PRIVATE!")       # a COW shadow over it
    sls.checkpoint(group, sync=True)
    kernel.lseek(proc, fd, 0)
    kernel.write(proc, fd, bytes(range(256)) * (600 * PAGE_SIZE // 256))
    sls.checkpoint(group, sync=True)
    heap = proc.vmspace.mmap(400 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(heap, 330, seed=1)
    assert kernel.pageout.memory_pressure()
    track = next(track for track in group.tracks.values()
                 if any(obj.vnode is not None
                        for obj in track.active.chain()))
    evicted = kernel.pageout.run_pageout(list(track.active.chain()),
                                         store=sls.store)
    assert evicted > 0 and not kernel.pageout.memory_pressure()
    assert kernel.pageout.evictions_dirty == 0
    assert kernel.pageout.evictions_clean == evicted
    assert proc.vmspace.read(addr + 599 * PAGE_SIZE, 4) == bytes(range(4))


# -- a dirty eviction is a deferred flush ---------------------------------------------------


def _swapped_out_dirty(pageout=True):
    """20 pages checkpointed, 910 more filled, then (``pageout``) a
    pageout pass, which evicts 41 of the new pages dirty, and a sync
    checkpoint."""
    machine, sls, proc, group = small_machine()
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 20, seed=4)
    sls.checkpoint(group, sync=True)
    proc.vmspace.fill(addr + 20 * PAGE_SIZE, 910, seed=100)
    if pageout:
        track = next(iter(group.tracks.values()))
        machine.kernel.pageout.run_pageout(list(track.active.chain()),
                                           store=sls.store)
    sls.checkpoint(group, sync=True)
    return machine, sls, group, addr


def _restored(machine, group_id):
    machine.crash()
    machine.boot()
    sls = load_aurora(machine)
    return sls.restore(group_id, periodic=False).root.vmspace


def test_a_page_swapped_out_dirty_survives_a_crash():
    machine, _sls, group, addr = _swapped_out_dirty()
    space = _restored(machine, group.group_id)
    stale = [pindex for pindex in range(930)
             if space.read(addr + pindex * PAGE_SIZE, 32) != synthetic_bytes(
                 4 + pindex if pindex < 20 else 80 + pindex)[:32]]
    assert stale == []


def test_a_swap_extent_is_freed_with_the_history():
    used = []
    for pageout in (True, False):
        machine, sls, group, _addr = _swapped_out_dirty(pageout)
        for _ in range(6):
            sls.checkpoint(group, sync=True)
        sls.store.retain_last(group.group_id, 1)
        used.append(sls.store.used_bytes())
    assert used[0] == used[1]


def test_a_write_before_a_mem_checkpoint_survives_a_crash():
    machine, sls, proc, group = small_machine()
    addr = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 64, seed=4)
    sls.checkpoint(group, sync=True)
    proc.vmspace.touch(addr + 3 * PAGE_SIZE, 1, seed=777)
    sls.checkpoint(group, mode="mem")
    sls.checkpoint(group, sync=True)
    space = _restored(machine, group.group_id)
    assert space.read(addr + 3 * PAGE_SIZE, 32) == synthetic_bytes(777)[:32]


def test_evicted_dirty_pages_reach_the_next_checkpoint_and_scrub_clean():
    """Real pages evicted dirty are written in one batch to extents the
    store keeps for the eviction table; the next checkpoint adopts them
    with the synthetic ones (no IO), so after six more and
    ``retain_last(1)`` every allocated extent has an owner, and a crash
    restores every page."""
    machine, sls, proc, group = small_machine()
    pageout = machine.kernel.pageout
    addr = proc.vmspace.mmap(960 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 20, seed=4)
    sls.checkpoint(group, sync=True)
    for pindex in range(20, 60):
        proc.vmspace.write(addr + pindex * PAGE_SIZE, b"real %d" % pindex)
    proc.vmspace.fill(addr + 60 * PAGE_SIZE, 870, seed=200)
    track = next(iter(group.tracks.values()))
    devices = machine.storage.devices
    writes = sum(device.write_commands for device in devices)
    pageout.run_pageout(list(track.active.chain()), store=sls.store)
    assert pageout.evictions_dirty > 40
    assert len(sls.store.swap_extents) == 3         # 16 + 16 + 8 pages
    assert sum(device.write_commands for device in devices) - writes == 3
    sls.checkpoint(group, sync=True)
    assert not sls.store.swap_extents
    assert not any(map(is_dirty, pageout.evicted[track.active.backing.kid]))
    for _ in range(6):
        sls.checkpoint(group, sync=True)
    sls.store.retain_last(group.group_id, 1)
    assert scrub(sls.store, sls).ok
    space = _restored(machine, group.group_id)
    for pindex in (20, 39, 59):
        assert space.read(addr + pindex * PAGE_SIZE, 7) == b"real %d" % pindex
    assert space.read(addr + 60 * PAGE_SIZE, 32) == synthetic_bytes(200)[:32]


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
