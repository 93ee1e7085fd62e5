"""A store transaction that fails before its flip leaves the store as
it was.

A transaction — a commit, a GC delete, or a commit that also trims its
group's history — ends in exactly one superblock flip, and its one
rollback (``store.Flip``) takes back whatever it staged.  Failure
paths that do not crash the machine — the fleet keeps running after
them — must not leave memory, the allocator and the media disagreeing:

* a commit whose flip fails after writing its catalog (the flight
  record's 64 KiB no longer fits) must not move the superblock slot
  the next flip goes to, or leak the catalog it wrote;
* a GC delete whose child-metadata write, catalog write or
  superblock write fails must keep the victim, every child's
  metadata, each extent's owners, the allocator and the scrub verdict
  as they were, so the delete can simply be retried;
* a trimming commit whose superblock write fails takes back the
  commit and every victim's delete together, and a victim that fails
  to stage is taken back alone while the victims before it still flip;
* near a full device, where the victims' child metadata leaves the
  flip no room, victims are taken back newest first: a trimming
  commit that fits without its trim still commits, and a trim with
  room for one victim reclaims it and then the rest.
"""

import pytest

from repro.core import resilience
from repro.core.faults import FaultPlan, InjectedCrash
from repro.errors import NoSpace, RetriesExhausted, StoreFull
from repro.hw.memory import Page
from repro.machine import Machine
from repro.objstore import records
from repro.objstore.oid import CLASS_MEMORY, CLASS_POSIX, make_oid
from repro.objstore.scrub import scrub
from repro.objstore.store import SUPERBLOCK_SLOTS, ObjectStore
from repro.units import MiB
from tests.content import page_runs

MEM_OID = make_oid(CLASS_MEMORY, 500)
POSIX_OID = make_oid(CLASS_POSIX, 501)


def _small_store():
    machine = Machine(storage_devices=1, capacity_per_device=4 * MiB)
    store = ObjectStore(machine)
    store.format()
    return machine, store


def _commit(store, step, parent=None):
    txn = store.begin_checkpoint(group_id=9, parent=parent)
    txn.put_pages(MEM_OID, page_runs({0: Page(data=b"step %d" % step)}))
    return store.commit(txn, sync=True)


def _hold_all_but(store, leave):
    """Take every free extent and all but ``leave`` bytes of the tail;
    returns what was taken, for :func:`_release`."""
    held = []
    while store.alloc._free:
        length = store.alloc._free[0][1]
        held.append((store.alloc.alloc(length), length))
    rest = store.alloc.capacity - store.alloc.cursor - leave
    held.append((store.alloc.alloc(rest), rest))
    return held


def _release(store, held):
    for offset, length in held:
        store.alloc.free(offset, length)


def _fail_one_flip(store, parent):
    """A commit whose page data, metadata and catalog fit but whose
    flight record does not: the flip fails after writing the catalog."""
    held = _hold_all_but(store, 16 * 1024)
    with pytest.raises(StoreFull, match="need 65536B"):
        _commit(store, 99, parent=parent)
    _release(store, held)


def test_a_flip_that_fails_after_its_catalog_leaves_the_slot_alone():
    machine, store = _small_store()
    first = _commit(store, 1)
    assert store._generation == 2
    before = (store._generation, store._catalog_extent,
              store._flightrec_extent)
    _fail_one_flip(store, first.ckpt_id)
    assert (store._generation, store._catalog_extent,
            store._flightrec_extent) == before

    # The next flip is generation 3, in slot 1: tearing it must leave
    # generation 2 (slot 0) and with it checkpoint 1 recoverable.
    machine.set_fault_plan(FaultPlan(name="torn-flip").torn_at_io(3))
    with pytest.raises(InjectedCrash):
        _commit(store, 2, parent=first.ckpt_id)
    machine.crash()
    machine.boot()
    remounted = ObjectStore(machine)
    assert remounted.mount()
    assert remounted._generation == 2
    latest = remounted.find_latest_complete(9)
    assert latest.ckpt_id == first.ckpt_id
    _records, pages = remounted.merged_view(latest.ckpt_id)
    page = remounted.fetch_page(pages[MEM_OID].lookup(0))
    assert page.realize()[:6] == b"step 1"


def test_a_failed_flip_leaks_nothing():
    def run(fail):
        _machine, store = _small_store()
        first = _commit(store, 1)
        if fail:
            _fail_one_flip(store, first.ckpt_id)
        second = _commit(store, 2, parent=first.ckpt_id)
        assert store._generation == 3
        assert store._catalog_extent is not None
        return store, second

    failed, _ = run(fail=True)
    clean, _ = run(fail=False)
    assert failed.used_bytes() == clean.used_bytes()
    assert scrub(failed).ok
    # Generation 3 went to slot 1, as in the run without the failure.
    superblock = records.decode(failed.device.read(SUPERBLOCK_SLOTS[1]),
                                records.REC_SUPERBLOCK)
    assert superblock["generation"] == 3


def test_a_journal_whose_flip_fails_is_not_created():
    """The flip that makes a journal durable fails: the journal is not
    left in memory, holding its region, for the next flip to publish."""
    machine, store = _small_store()
    used = store.used_bytes()
    # IO 0 is the journal's header, IO 1 the catalog.
    machine.set_fault_plan(FaultPlan(name="enospc").nospace_at_io(1))
    with pytest.raises(NoSpace):
        store.journal_create(64 * 1024)
    machine.clear_fault_plan()
    assert store.journals == {}
    assert store.used_bytes() == used
    assert scrub(store).ok
    journal = store.journal_create(64 * 1024)
    assert list(store.journals) == [journal.jid]


# -- GC deletes --------------------------------------------------------------------------


def _three_checkpoints():
    machine, store = _small_store()
    infos, parent = [], None
    for step in range(3):
        txn = store.begin_checkpoint(group_id=9, parent=parent)
        if step == 0:
            # A record only the first checkpoint holds: the child must
            # adopt it by reference.
            txn.put_object(POSIX_OID, "proc", {"pid": 1})
        txn.put_pages(MEM_OID, page_runs({step: Page(data=b"page %d" % step)}))
        infos.append(store.commit(txn, sync=True))
        parent = infos[-1].ckpt_id
    return machine, store, infos


def _owners(store):
    """Extent offset -> how many checkpoints' ``owned_extents`` list
    it."""
    owners = {}
    for info in store.checkpoints.values():
        for offset, _length in info.owned_extents:
            owners[offset] = owners.get(offset, 0) + 1
    return owners


def _store_state(store):
    """Everything a failed delete must leave as it was."""
    return {
        "checkpoints": list(store.checkpoints),
        "children": {ckpt_id: (info.parent, info.meta_extent,
                               info.encode_meta())
                     for ckpt_id, info in store.checkpoints.items()},
        "owners": _owners(store),
        "used_bytes": store.used_bytes(),
        "scrub": [(f.kind, f.detail) for f in scrub(store).findings],
    }


@pytest.mark.parametrize("io", [0, 1, 2], ids=["child-meta", "catalog",
                                               "superblock"])
def test_a_failed_delete_leaves_the_store_as_it_was(io):
    machine, store, infos = _three_checkpoints()
    victim = infos[0].ckpt_id
    before = _store_state(store)
    assert before["scrub"] == []
    machine.set_fault_plan(FaultPlan(name="enospc").nospace_at_io(io))
    with pytest.raises(NoSpace):
        store.delete_checkpoint(victim)
    machine.clear_fault_plan()
    assert _store_state(store) == before

    # Retrying succeeds and leaves a store that keeps working.
    reclaimed = store.delete_checkpoint(victim)
    assert reclaimed > 0
    assert victim not in store.checkpoints
    assert infos[1].parent is None
    txn = store.begin_checkpoint(group_id=9, parent=infos[2].ckpt_id)
    txn.put_pages(MEM_OID, page_runs({3: Page(data=b"page 3")}))
    store.commit(txn, sync=True)
    assert scrub(store).ok


def test_a_retried_delete_ends_where_an_unfailed_one_does():
    def run(io):
        machine, store, infos = _three_checkpoints()
        if io is not None:
            machine.set_fault_plan(FaultPlan(name="enospc").nospace_at_io(io))
            with pytest.raises(NoSpace):
                store.delete_checkpoint(infos[0].ckpt_id)
            machine.clear_fault_plan()
        store.delete_checkpoint(infos[0].ckpt_id)
        return store

    clean = run(None)
    for io in (0, 1, 2):
        retried = run(io)
        assert retried.used_bytes() == clean.used_bytes()
        assert _owners(retried) == _owners(clean)
        assert {ckpt_id: info.encode_meta() for ckpt_id, info
                in retried.checkpoints.items()} == \
            {ckpt_id: info.encode_meta() for ckpt_id, info
             in clean.checkpoints.items()}


def test_a_failed_truncate_leaves_the_store_as_it_was():
    machine, store, infos = _three_checkpoints()
    newest = infos[-1].ckpt_id
    before = _store_state(store)
    machine.set_fault_plan(FaultPlan(name="enospc").nospace_at_io(1))
    with pytest.raises(NoSpace):
        store.truncate_checkpoint(newest)
    machine.clear_fault_plan()
    assert _store_state(store) == before
    assert store.truncate_checkpoint(newest) > 0
    assert scrub(store).ok



# -- one transaction, one flip ------------------------------------------------------


def _superblock_writes(monkeypatch, store):
    """The superblock writes ``store`` makes from now on, by slot."""
    slots = []
    write = store.device.write

    def spy(offset, payload, *args, **kwargs):
        if offset in SUPERBLOCK_SLOTS:
            slots.append(offset)
        return write(offset, payload, *args, **kwargs)

    monkeypatch.setattr(store.device, "write", spy)
    return slots


def _trimming_commit(store, infos, plan=None, machine=None):
    """A fourth checkpoint of :func:`_three_checkpoints`' chain whose
    commit keeps two: it deletes the first two, whose children (the
    second and third checkpoints) adopt.  ``plan`` is set for it."""
    if plan is not None:
        machine.set_fault_plan(plan)
    txn = store.begin_checkpoint(group_id=9, parent=infos[-1].ckpt_id)
    txn.put_pages(MEM_OID, page_runs({3: Page(data=b"page 3")}))
    try:
        return store.commit(txn, sync=True, keep=2)
    finally:
        if plan is not None:
            machine.clear_fault_plan()


def test_a_trimming_commit_writes_one_superblock(monkeypatch):
    _machine, store, infos = _three_checkpoints()
    slots = _superblock_writes(monkeypatch, store)
    newest = _trimming_commit(store, infos)
    assert len(slots) == 1
    assert [info.ckpt_id for info in store.checkpoints_for(9)] == \
        [infos[2].ckpt_id, newest.ckpt_id]
    assert infos[2].parent is None
    assert scrub(store).ok


def test_retain_last_over_three_victims_writes_one_superblock(monkeypatch):
    _machine, store, infos = _three_checkpoints()
    newest = _commit(store, 3, parent=infos[-1].ckpt_id)
    slots = _superblock_writes(monkeypatch, store)
    assert store.retain_last(9, 1) > 0
    assert len(slots) == 1
    assert list(store.checkpoints) == [newest.ckpt_id]
    assert newest.parent is None
    assert scrub(store).ok


def test_a_trimming_commit_whose_flip_fails_takes_back_every_victim():
    """The superblock write fails past its retries: the commit, both
    victims' deletes, every child's fields and the allocator are taken
    back together, and the retried commit writes the children's
    metadata bytes a commit that never failed writes."""
    def run(fail):
        machine, store, infos = _three_checkpoints()
        before = _store_state(store)
        if fail:
            plan = FaultPlan(name="sb").transient_at_io(
                _probe_trimming_commit(),
                times=resilience.DEFAULT_MAX_ATTEMPTS)
            with pytest.raises(RetriesExhausted):
                _trimming_commit(store, infos, plan, machine)
            assert plan.fired
            assert _store_state(store) == before
        _trimming_commit(store, infos)
        assert scrub(store).ok
        return [store.device.read(info.meta_extent[0])
                for info in store.checkpoints_for(9)[:-1]]

    assert run(fail=True) == run(fail=False)


def _probe_trimming_commit():
    """The IO index of a trimming commit's superblock write: its last."""
    machine, store, infos = _three_checkpoints()
    probe = FaultPlan(name="count")
    _trimming_commit(store, infos, probe, machine)
    return probe.io_index - 1


def test_retain_last_keeps_the_victims_staged_before_a_failed_one():
    """The second of three victims' child-metadata write runs out of
    retries: it is taken back alone, the first is still deleted by the
    one flip, and the error surfaces."""
    machine, store, infos = _three_checkpoints()
    newest = _commit(store, 3, parent=infos[-1].ckpt_id)
    # IO 0 is the first victim's child's metadata, IO 1 the second's;
    # a failed write is not logged, so the catalog write is IO 1 too.
    machine.set_fault_plan(FaultPlan(name="meta").transient_at_io(
        1, times=resilience.DEFAULT_MAX_ATTEMPTS))
    with pytest.raises(RetriesExhausted):
        store.retain_last(9, 1)
    machine.clear_fault_plan()
    assert [info.ckpt_id for info in store.checkpoints_for(9)] == \
        [infos[1].ckpt_id, infos[2].ckpt_id, newest.ckpt_id]
    assert infos[1].parent is None
    assert scrub(store).ok
    assert store.retain_last(9, 1) > 0
    assert list(store.checkpoints) == [newest.ckpt_id]
    assert scrub(store).ok


# -- near a full device ---------------------------------------------------------------


def _tail_needed(action):
    """Bytes of the device's tail ``action(store, infos)`` allocates on
    a fresh :func:`_three_checkpoints` store whose free list is held:
    what it needs when nothing else is free."""
    _machine, store, infos = _three_checkpoints()
    held = _hold_all_but(store, 1 * MiB)
    cursor = store.alloc.cursor
    action(store, infos)
    _release(store, held)
    return store.alloc.cursor - cursor


def _commit_alone(store, infos):
    _commit(store, 3, parent=infos[-1].ckpt_id)


def _delete_first(store, infos):
    store.delete_checkpoint(infos[0].ckpt_id)


def test_a_trimming_commit_with_no_room_for_its_trim_still_commits():
    """The tail holds what the commit needs without its trim: the
    victims' child metadata leaves the flip no room, so both victims
    are taken back, the commit stands alone, and the next commit with
    room trims all three."""
    room = _tail_needed(_commit_alone)
    assert room < _tail_needed(lambda store, infos: _trimming_commit(
        store, infos))
    _machine, store, infos = _three_checkpoints()
    held = _hold_all_but(store, room)
    newest = _trimming_commit(store, infos)
    assert [info.ckpt_id for info in store.checkpoints_for(9)] == \
        [info.ckpt_id for info in infos] + [newest.ckpt_id]
    assert infos[1].parent == infos[0].ckpt_id
    _release(store, held)
    assert scrub(store).ok

    txn = store.begin_checkpoint(group_id=9, parent=newest.ckpt_id)
    txn.put_pages(MEM_OID, page_runs({4: Page(data=b"page 4")}))
    latest = store.commit(txn, sync=True, keep=2)
    assert [info.ckpt_id for info in store.checkpoints_for(9)] == \
        [newest.ckpt_id, latest.ckpt_id]
    assert scrub(store).ok


def test_retain_last_with_room_for_one_victim_reclaims_them_all():
    """The tail holds what one victim's delete needs: the flip of all
    three has no room, so it sheds victims down to the first, whose
    flip frees room for the rest in the next."""
    room = _tail_needed(_delete_first)
    _machine, store, infos = _three_checkpoints()
    newest = _commit(store, 3, parent=infos[-1].ckpt_id)
    held = _hold_all_but(store, room)
    assert store.retain_last(9, 1) > 0
    assert list(store.checkpoints) == [newest.ckpt_id]
    assert newest.parent is None
    _release(store, held)
    assert scrub(store).ok


def test_retain_last_with_no_room_for_one_victim_takes_it_back():
    """Less room than one victim's delete needs: nothing flips, the
    store is as it was."""
    room = _tail_needed(_delete_first)
    _machine, store, infos = _three_checkpoints()
    _commit(store, 3, parent=infos[-1].ckpt_id)
    held = _hold_all_but(store, room - 4096)
    before = _store_state(store)
    with pytest.raises(StoreFull):
        store.retain_last(9, 1)
    assert _store_state(store) == before
    _release(store, held)
    assert scrub(store).ok
