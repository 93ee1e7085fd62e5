"""A superblock flip or GC delete that fails leaves the store as it was.

Two failure paths that do not crash the machine — the fleet keeps
running after them — and must not leave memory, the allocator and
the media disagreeing:

* a commit whose flip fails after writing its catalog (the flight
  record's 64 KiB no longer fits) must not move the superblock slot
  the next flip goes to, or leak the catalog it wrote;
* a GC delete whose child-metadata write, catalog write or
  superblock write fails must keep the victim, every child's
  metadata, each extent's owners, the allocator and the scrub verdict
  as they were, so the delete can simply be retried.
"""

import pytest

from repro.core.faults import FaultPlan, InjectedCrash
from repro.errors import NoSpace, StoreFull
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

