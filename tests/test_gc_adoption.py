"""The extent-grouped record index, and GC adopting record extents by
reference.

A checkpoint's metadata document lists its object records grouped by
extent with the OIDs as arithmetic runs; deleting a chain head hands
the record extents its children still need to them by listing the
extent in their ``owned_extents`` — the only record of who owns it —
and no record payload is read or rewritten.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptRecord
from repro.machine import Machine
from repro.objstore import records
from repro.objstore.checkpoint import (CheckpointInfo, decode_record_index,
                                       encode_record_index)
from repro.objstore.oid import (CLASS_FILE, CLASS_MEMORY, CLASS_POSIX,
                                OIDAllocator, make_oid)
from repro.objstore.scrub import scrub
from repro.objstore.store import RECORD_BATCH, ObjectStore

GROUP = 9


# -- the record index ----------------------------------------------------------

_oids = st.builds(make_oid,
                  st.sampled_from((CLASS_POSIX, CLASS_FILE, CLASS_MEMORY)),
                  st.integers(1, 5000))


@st.composite
def _record_maps(draw):
    """OID → extent maps: extents of one record and of many, OIDs of
    several classes interleaved in one extent, serials with holes."""
    oids = draw(st.lists(_oids, unique=True, max_size=120))
    nextents = draw(st.integers(1, 8))
    extents = [(4096 * (index + 3), draw(st.integers(1, 70000)))
               for index in range(nextents)]
    return {oid: extents[draw(st.integers(0, nextents - 1))]
            for oid in oids}


@given(_record_maps())
@settings(max_examples=150, deadline=None)
def test_record_index_round_trips(object_records):
    assert decode_record_index(
        encode_record_index(object_records)) == object_records
    # ... and through the metadata record as the store writes it.
    info = CheckpointInfo(7, GROUP, name="x", parent=3, time_ns=5)
    info.object_records = object_records
    payload = records.encode(records.REC_CKPT_META, info.encode_meta())
    back = CheckpointInfo.decode_meta(
        records.decode(payload, records.REC_CKPT_META))
    assert back.object_records == object_records
    assert back.live_oids is None and back.parent == 3


def test_a_full_batch_extent_is_one_index_entry():
    """256 OIDs allocated the way the serializer does (two classes
    alternating on one cursor) cost one entry of two runs, not 256
    ``(offset, length)`` pairs."""
    allocator = OIDAllocator()
    oids = [allocator.allocate((CLASS_POSIX, CLASS_FILE)[index % 2])
            for index in range(RECORD_BATCH)]
    extent = (1 << 20, 60000)
    index = encode_record_index(dict.fromkeys(oids, extent))
    assert len(index) == 1
    assert index[0][:2] == list(extent)
    assert len(index[0][2]) == 2
    doc = records.encode(records.REC_CKPT_META, {"object_records": index})
    assert len(doc) < 400


def test_decoded_oids_of_one_extent_share_one_tuple():
    decoded = decode_record_index([[8192, 100, [[1, 50, 1]]]])
    assert len({id(extent) for extent in decoded.values()}) == 1


# -- GC: adoption by reference --------------------------------------------------


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def store(machine):
    store = ObjectStore(machine)
    store.format()
    return store


def _oid(serial: int) -> int:
    return make_oid(CLASS_POSIX, serial)


def _commit(store, parent, states, live=None):
    """One checkpoint writing ``{serial: state}``; returns its info."""
    txn = store.begin_checkpoint(GROUP, parent=parent)
    for serial, state in states.items():
        txn.put_object(_oid(serial), "blob", {"v": state})
    if live is not None:
        txn.info.live_oids = {_oid(serial) for serial in live}
    return store.commit(txn, sync=True)


def _record_extent_count(machine) -> int:
    """Extents on media that hold object records."""
    count = 0
    for device in machine.storage.devices:
        for _offset, payload in device.extents():
            if not isinstance(payload, bytes):
                continue
            try:
                records.decode_objects(payload)
            except CorruptRecord:
                continue
            count += 1
    return count


def _owners(store, offset) -> int:
    """Checkpoints whose ``owned_extents`` list the extent at
    ``offset``."""
    return sum(offset in {owned for owned, _length in info.owned_extents}
               for info in store.checkpoints.values())


def _io(machine):
    storage = machine.storage
    return (storage.bytes_read,
            sum(device.write_commands for device in storage.devices))


def test_deleting_a_head_moves_no_record_payload(machine, store):
    serials = range(1, RECORD_BATCH + 45)       # two batch extents
    head = _commit(store, None, {s: "old" for s in serials})
    child = _commit(store, head.ckpt_id, {7: "new"})
    head_extents = {extent for extent in head.object_records.values()}
    assert len(head_extents) == 2
    view = store.merged_view(child.ckpt_id)[0]
    before = store.read_object_records(view)
    nrecord_extents = _record_extent_count(machine)
    reads, writes = _io(machine)

    store.delete_checkpoint(head.ckpt_id)

    # Child metadata, catalog, superblock — and nothing else.
    assert _io(machine) == (reads, writes + 3)
    assert _record_extent_count(machine) == nrecord_extents
    for extent in head_extents:
        assert extent in child.owned_extents
        assert _owners(store, extent[0]) == 1
    assert store.merged_view(child.ckpt_id)[0] == view
    assert store.read_object_records(view) == before
    assert before[_oid(7)] == ("blob", {"v": "new"})
    assert before[_oid(8)] == ("blob", {"v": "old"})
    assert scrub(store).ok


def test_extent_with_only_superseded_or_dropped_records_is_freed(
        machine, store):
    head = _commit(store, None, {1: "a", 2: "b"}, live=(1, 2))
    (extent,) = set(head.object_records.values())
    # The child rewrote 1 and no longer reaches 2.
    child = _commit(store, head.ckpt_id, {1: "a2"}, live=(1,))
    used = store.used_bytes()

    store.delete_checkpoint(head.ckpt_id)

    assert extent not in child.owned_extents
    assert _owners(store, extent[0]) == 0
    assert not machine.storage.has_extent(extent[0])
    assert store.used_bytes() < used
    assert set(store.merged_view(child.ckpt_id)[0]) == {_oid(1)}
    assert scrub(store).ok


def test_forked_children_share_one_adopted_extent(machine, store):
    head = _commit(store, None, {1: "a", 2: "b", 3: "c"})
    (extent,) = set(head.object_records.values())
    left = _commit(store, head.ckpt_id, {1: "left"})
    right = _commit(store, head.ckpt_id, {2: "right"})

    store.delete_checkpoint(head.ckpt_id)
    assert _owners(store, extent[0]) == 2
    for child in (left, right):
        assert child.owned_extents.count(extent) == 1
        assert child.parent is None
    assert scrub(store).ok

    # Recovery reads the same owners back from the metadata records.
    machine.crash()
    machine.boot()
    store2 = ObjectStore(machine)
    assert store2.mount()
    assert _owners(store2, extent[0]) == 2
    assert scrub(store2).ok
    decoded = store2.read_object_records(
        store2.merged_view(right.ckpt_id)[0])
    assert decoded[_oid(1)] == ("blob", {"v": "a"})
    assert decoded[_oid(2)] == ("blob", {"v": "right"})

    store2.delete_checkpoint(left.ckpt_id)
    assert _owners(store2, extent[0]) == 1
    assert machine.storage.has_extent(extent[0])
    store2.delete_checkpoint(right.ckpt_id)
    assert _owners(store2, extent[0]) == 0
    assert not machine.storage.has_extent(extent[0])
    assert scrub(store2).ok
