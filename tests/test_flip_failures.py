"""A store transaction that fails before its flip leaves the store as
it was.

A transaction — a commit, a GC delete, or a commit that also trims its
group's history — ends in exactly one superblock flip, which writes
one metadata record per checkpoint it changed that survives it, and
its one rollback (``store.Flip``) takes back whatever it staged.
Failure paths that do not crash the machine — the fleet keeps running
after them — must not leave memory, the allocator and the media
disagreeing:

* a commit whose flip fails after writing its catalog (the flight
  record's 64 KiB no longer fits) must not move the superblock slot
  the next flip goes to, or leak the catalog it wrote;
* a GC delete whose child-metadata write, catalog write or
  superblock write fails must keep the victim, every child's
  metadata, each extent's owners, the allocator and the scrub verdict
  as they were, so the delete can simply be retried;
* one rule covers every other failure before the superblock lands:
  the newest staged victim is taken back and the flip tried again,
  down to the commit alone or one victim.  A trimming commit whose
  flip keeps failing lands alone, a trim of several victims flips the
  older ones and then the rest, and near a full device, where the
  victims' child metadata leaves the flip no room, a trimming commit
  that fits without its trim still commits and a trim with room for
  one victim reclaims it and then the rest;
* no victim's metadata is written in the flip that drops it, and no
  checkpoint's twice in one flip.
"""

import pytest

from repro.core import resilience
from repro.core.faults import FaultPlan, InjectedCrash
from repro.errors import NoSpace, StoreFull
from repro.hw.memory import Page
from repro.machine import Machine
from repro import serde
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


def _meta_writes(monkeypatch, store):
    """The checkpoint id of each metadata record ``store`` writes from
    now on, once its write has landed."""
    written = []
    write = store.device.write

    def spy(offset, payload, *args, **kwargs):
        landed = write(offset, payload, *args, **kwargs)
        document = serde.loads(payload)
        if document["kind"] == records.REC_CKPT_META:
            written.append(document["body"]["ckpt_id"])
        return landed

    monkeypatch.setattr(store.device, "write", spy)
    return written


def _trimming_commit(store, infos, plan=None, machine=None, keep=2):
    """A fourth checkpoint of :func:`_three_checkpoints`' chain whose
    commit keeps ``keep``: by default it deletes the first two, whose
    children (the second and third checkpoints) adopt.  ``plan`` is
    set for it."""
    if plan is not None:
        machine.set_fault_plan(plan)
    txn = store.begin_checkpoint(group_id=9, parent=infos[-1].ckpt_id)
    txn.put_pages(MEM_OID, page_runs({3: Page(data=b"page 3")}))
    try:
        return store.commit(txn, sync=True, keep=keep)
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


def test_retain_last_over_three_victims_writes_one_metadata_record(
        monkeypatch):
    """The second and third checkpoints adopt and are then deleted by
    the same flip: only the surviving child's record is written."""
    _machine, store, infos = _three_checkpoints()
    newest = _commit(store, 3, parent=infos[-1].ckpt_id)
    written = _meta_writes(monkeypatch, store)
    store.retain_last(9, 1)
    assert written == [newest.ckpt_id]
    assert scrub(store).ok


def test_a_commit_that_adopts_writes_its_record_once(monkeypatch):
    """A ``keep`` 1 commit is its victims' last child: its one record
    is written after the adoption."""
    _machine, store, infos = _three_checkpoints()
    written = _meta_writes(monkeypatch, store)
    newest = _trimming_commit(store, infos, keep=1)
    assert written == [newest.ckpt_id]
    assert list(store.checkpoints) == [newest.ckpt_id]
    assert newest.parent is None
    assert scrub(store).ok


def _probe_trimming_commit():
    """The IO index of a trimming commit's superblock write: its last."""
    machine, store, infos = _three_checkpoints()
    probe = FaultPlan(name="count")
    _trimming_commit(store, infos, probe, machine)
    return probe.io_index - 1


def test_a_trimming_commit_whose_flip_fails_sheds_its_victims_and_lands_alone():
    """The superblock write runs out of retries, and so does the first
    write of the flip without the newest victim (a failed write is not
    logged, so it reuses the index): both victims are taken back, with
    every child's fields, and the commit lands alone, writing the
    metadata a commit with no trim writes."""
    def run(fail):
        machine, store, infos = _three_checkpoints()
        before = _store_state(store)
        if fail:
            plan = FaultPlan(name="sb").transient_at_io(
                _probe_trimming_commit(),
                times=2 * resilience.DEFAULT_MAX_ATTEMPTS)
            newest = _trimming_commit(store, infos, plan, machine)
            assert plan.fired
        else:
            newest = _trimming_commit(store, infos, keep=None)
        after = _store_state(store)
        assert after["checkpoints"] == before["checkpoints"] + [
            newest.ckpt_id]
        assert all(after["children"][ckpt_id] == fields
                   for ckpt_id, fields in before["children"].items())
        assert scrub(store).ok
        return store.device.read(newest.meta_extent[0]), store.used_bytes()

    assert run(fail=True) == run(fail=False)


def test_retain_last_whose_flip_fails_takes_back_the_newest_victim_first(
        monkeypatch):
    """The flip of three victims writes one record, the surviving
    child's, and it runs out of retries: the newest victim is taken
    back, the two older ones flip (their survivor, the third
    checkpoint, is written in the write's place), the next flip takes
    the third, and no error surfaces."""
    machine, store, infos = _three_checkpoints()
    newest = _commit(store, 3, parent=infos[-1].ckpt_id)
    written = _meta_writes(monkeypatch, store)
    slots = _superblock_writes(monkeypatch, store)
    machine.set_fault_plan(FaultPlan(name="meta").transient_at_io(
        0, times=resilience.DEFAULT_MAX_ATTEMPTS))
    assert store.retain_last(9, 1) > 0
    machine.clear_fault_plan()
    assert written == [infos[2].ckpt_id, newest.ckpt_id]
    assert len(slots) == 2
    assert list(store.checkpoints) == [newest.ckpt_id]
    assert newest.parent is None
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
