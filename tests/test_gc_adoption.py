"""The extent-grouped record index, and GC adopting record extents by
reference.

A checkpoint's metadata document lists its object records grouped by
extent with the OIDs as arithmetic runs; deleting a chain head hands
the record extents its children still need to them by listing the
extent in their ``owned_extents`` — the only record of who owns it —
and no record payload is read or rewritten.

The index is kept as it is on media, one entry per record extent, and
GC adopts it entry by entry.  Its oracle is the per-OID map it
replaced (``tests/record_index_reference.py``): under random commits,
forks, partial deltas, deletes and remounts, every metadata payload
the store writes and every index's iteration order must be the
reference's.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serde
from repro.core import telemetry
from repro.core.runs import build_arith_runs
from repro.errors import CorruptRecord
from repro.machine import Machine
from repro.objstore import records
from repro.objstore import store as store_module
from repro.objstore.checkpoint import CheckpointInfo, RecordEntry, RecordIndex
from repro.objstore.oid import (CLASS_FILE, CLASS_MEMORY, CLASS_POSIX,
                                OIDAllocator, make_oid)
from repro.objstore.scrub import scrub
from repro.objstore.store import RECORD_BATCH, ObjectStore
from tests import record_index_reference as reference
from tests.record_index_reference import (adopt_records, decode_record_index,
                                          encode_record_index)

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
    raw = encode_record_index(object_records)
    index = RecordIndex.decode(raw)
    assert index == object_records
    assert index.encode() == serde.fragment(raw)
    # ... and through the metadata record as the store writes it.
    info = CheckpointInfo(7, GROUP, name="x", parent=3, time_ns=5)
    info.object_records = index
    payload = records.encode(records.REC_CKPT_META, info.encode_meta())
    back = CheckpointInfo.decode_meta(
        records.decode(payload, records.REC_CKPT_META))
    assert back.object_records == object_records
    assert back.object_records.encode() == index.encode()
    assert back.live_oids is None and back.parent == 3


def test_a_full_batch_extent_is_one_index_entry():
    """256 OIDs allocated the way the serializer does (two classes
    alternating on one cursor) cost one entry of two runs, not 256
    ``(offset, length)`` pairs."""
    allocator = OIDAllocator()
    oids = [allocator.allocate((CLASS_POSIX, CLASS_FILE)[index % 2])
            for index in range(RECORD_BATCH)]
    extent = (1 << 20, 60000)
    index = RecordIndex([RecordEntry(extent, oids)])
    (entry,) = serde.loads(serde.dumps(index.encode()))
    assert entry[:2] == list(extent)
    assert len(entry[2]) == 2
    assert index.encode() == serde.fragment(
        encode_record_index(dict.fromkeys(oids, extent)))
    doc = records.encode(records.REC_CKPT_META,
                         {"object_records": index.encode()})
    assert len(doc) < 400


@given(st.lists(st.integers(0, 300), max_size=60)
       | st.sets(_oids, max_size=120))
@settings(max_examples=300, deadline=None)
def test_arith_runs_are_the_greedy_reference(indexes):
    """The runs — hence every index and live-set byte — are the
    reference greedy's, for duplicates and unsorted input too."""
    assert build_arith_runs(indexes) == reference.build_arith_runs(indexes)


def test_decoded_oids_of_one_extent_share_one_tuple():
    decoded = RecordIndex.decode([[8192, 100, [[1, 50, 1]]]])
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


# -- the property: adoption per extent == forwarding per OID --------------------


class _Reference:
    """Each checkpoint's per-OID record map, parent and live set, kept
    the way the store kept them before its index was a table of
    extents: the oracle every metadata payload is held to."""

    def __init__(self):
        self.maps, self.parents, self.live = {}, {}, {}
        #: The OIDs of the world a checkpoint captured (for drawing
        #: the next commit on top of it).
        self.world = {}
        self.forwarded = self.dropped = 0

    def live_set(self, ckpt_id):
        newer = set()
        while ckpt_id is not None:
            if self.live[ckpt_id] is not None:
                return self.live[ckpt_id] | newer
            newer |= set(self.maps[ckpt_id])
            ckpt_id = self.parents[ckpt_id]
        return None

    def children(self, ckpt_id):
        return [c for c, parent in self.parents.items() if parent == ckpt_id]

    def needed(self, ckpt_id):
        needed, stack = set(), [ckpt_id]
        while stack:
            live = self.live_set(stack[-1])
            if live is None:
                return None
            needed |= live
            stack += self.children(stack.pop())
        return needed

    def delete(self, victim):
        for child in self.children(victim):
            forwarded, dropped = adopt_records(
                self.maps[child], self.maps[victim], self.needed(child))
            self.forwarded += forwarded
            self.dropped += dropped
            self.parents[child] = self.parents[victim]
        for table in (self.maps, self.parents, self.live, self.world):
            del table[victim]

    def merged(self, ckpt_id):
        live, merged = self.live_set(ckpt_id), {}
        while ckpt_id is not None:
            for oid, extent in self.maps[ckpt_id].items():
                if live is None or oid in live:
                    merged.setdefault(oid, extent)
            ckpt_id = self.parents[ckpt_id]
        return merged


def _check_against(store, machine, ref):
    """Every metadata payload on media, every index's and merged
    view's iteration order and every record extent's owners agree with
    the per-OID reference."""
    assert set(store.checkpoints) == set(ref.maps)
    for ckpt_id, info in store.checkpoints.items():
        expected = ref.maps[ckpt_id]
        assert list(info.object_records.items()) == list(expected.items())
        meta = info.encode_meta()
        meta["object_records"] = encode_record_index(expected)
        assert store.device.read(info.meta_extent[0]) == \
            records.encode(records.REC_CKPT_META, meta)
        assert list(store.merged_view(ckpt_id)[0].items()) == \
            list(ref.merged(ckpt_id).items())
        # Only record extents are staged: a checkpoint owns exactly the
        # extents its records are in.
        assert set(info.owned_extents) == set(expected.values())
    held = {extent for records_ in ref.maps.values()
            for extent in records_.values()}
    assert _record_extent_count(machine) == len(held)
    registry = telemetry.registry()
    assert registry.value("sls.store.gc.records_forwarded") == ref.forwarded
    assert registry.value("sls.store.gc.records_dropped") == ref.dropped


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_adoption_per_extent_writes_the_per_oid_reference(data):
    """Random commits (rewriting OID subsets, dropping OIDs from the
    live set, forking from an older checkpoint, partial deltas),
    ``retain_last`` deletes and remounts: every index the store keeps
    and writes is the per-OID reference map's, byte for byte and in
    iteration order."""
    telemetry.reset()
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    ref = _Reference()
    allocator = OIDAllocator()
    with mock.patch.object(store_module, "RECORD_BATCH", 8):
        for _step in range(data.draw(st.integers(3, 14))):
            action = data.draw(st.sampled_from(
                ("commit", "commit", "fork", "partial", "retain", "retain",
                 "remount")))
            ids = sorted(ref.maps)
            if action == "retain" and ids:
                keep = data.draw(st.integers(1, 3))
                store.retain_last(GROUP, keep)
                while len(ref.maps) > keep:
                    ref.delete(min(ref.maps))
            elif action == "remount":
                machine.crash()
                machine.boot()
                store = ObjectStore(machine)
                assert store.mount()
                for ckpt_id, map_ in ref.maps.items():
                    ref.maps[ckpt_id] = decode_record_index(
                        encode_record_index(map_))
            elif action in ("commit", "fork", "partial"):
                parent = None
                if ids:
                    parent = ids[-1] if action != "fork" else \
                        data.draw(st.sampled_from(ids))
                world = ref.world[parent] if parent is not None else set()
                rng = random.Random(data.draw(st.integers(0, 2**16)))
                ordered = sorted(world)
                rewrite = rng.sample(ordered, rng.randrange(len(ordered) + 1))
                leave = set() if action == "partial" else set(rng.sample(
                    ordered, rng.randrange(len(ordered) // 3 + 1)))
                fresh = [allocator.allocate(rng.choice(
                    (CLASS_POSIX, CLASS_FILE))) for _ in range(
                        rng.randrange(25))]
                staged = [oid for oid in rewrite if oid not in leave] + fresh
                rng.shuffle(staged)
                txn = store.begin_checkpoint(GROUP, parent=parent,
                                             partial=action == "partial")
                for oid in staged:
                    txn.put_object(oid, "blob", {"v": oid})
                live = None
                if action != "partial":
                    live = (world - leave) | set(fresh)
                    txn.info.live_oids = set(live)
                info = store.commit(txn, sync=True)
                expected = {}
                for extent in info.owned_extents:
                    for oid, _otype, _state in records.decode_objects(
                            store.device.read(extent[0])):
                        expected[oid] = extent
                ref.maps[info.ckpt_id] = expected
                ref.parents[info.ckpt_id] = parent
                ref.live[info.ckpt_id] = live
                ref.world[info.ckpt_id] = world | set(fresh) \
                    if live is None else live
            _check_against(store, machine, ref)
    assert scrub(store).ok
