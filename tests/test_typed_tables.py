"""Typed tables on media: damage behind a valid CRC.

A record extent's object tables and a metadata record's page table are
typed columns (``serde.column``).  Each case below doctors a document
the way damage that a CRC cannot see would — columns of unequal
length, a code byte past a coded column's values, an unsorted run —
and re-frames it with a valid checksum.  Every case is a
:class:`CorruptRecord`, and the store steps back one generation: a
damaged metadata record makes the mount take the older superblock, and
a damaged object table makes a restore's read take the older
checkpoint's copy of its records (after scrub has named the extent).
"""

import pytest

from repro import Machine, serde
from repro.errors import CorruptRecord
from repro.hw.memory import Page
from repro.objstore import records
from repro.objstore.checkpoint import CheckpointInfo
from repro.objstore.oid import CLASS_MEMORY, CLASS_POSIX, make_oid
from repro.objstore.scrub import CHECKSUM, scrub
from repro.objstore.store import ObjectStore
from tests.content import page_runs

MEM_OID = make_oid(CLASS_MEMORY, 1)
FILES = [make_oid(CLASS_POSIX, serial) for serial in range(2, 10)]


def _state(round_, index):
    return {"offset": 100 * round_ + index, "ftype": "vnode",
            "nosync": index % 2 == 0}


def _chain(store):
    """Two checkpoints of one group; each rewrites eight file records
    (a table of typed columns) and lays three page runs."""
    infos, parent = [], None
    for round_ in (1, 2):
        txn = store.begin_checkpoint(group_id=5, parent=parent)
        for index, oid in enumerate(FILES):
            txn.put_object(oid, "file", _state(round_, index))
        txn.put_pages(MEM_OID, page_runs({
            0: Page(seed=round_), 1: Page(seed=round_ + 7),
            4: Page(data=bytes([round_]) * 64), 9: Page(seed=3)}))
        infos.append(store.commit(txn, sync=True))
        parent = infos[-1].ckpt_id
    return infos


def _coded_past_its_values(rows):
    """A coded column of ``rows`` rows whose last code names a value
    the column does not hold."""
    return serde.Encoded(bytes([0x0A]) + rows.to_bytes(8, "big")
                         + serde.fragment(["ext"])
                         + bytes(rows - 1) + bytes([1]))


def _short_fields(table):
    table[3] = table[3][:-1]


def _counts_off_by_one(table):
    table[1] = [table[1][0] + 1]


def _bad_code(table):
    table[2] = _coded_past_its_values(len(table[2]))


def _overlap(table):
    table[3] = list(table[3])
    table[3][1] = table[3][0]   # the second run starts where the first does


@pytest.mark.parametrize("damage, complaint", [
    (_short_fields, "differ in length"),
    (_counts_off_by_one, "differ in length"),
    (_bad_code, "malformed coded column"),
    (_overlap, "overlaps"),
])
def test_a_damaged_page_table_falls_back_a_generation(damage, complaint):
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    first, second = _chain(store)
    # The document as read back from media, its page table damaged.
    meta = serde.loads(serde.dumps(second.encode_meta()))
    assert len(meta["pages"][2]) >= 3
    damage(meta["pages"])
    payload = records.encode(records.REC_CKPT_META, meta)
    with pytest.raises(CorruptRecord, match=complaint):
        CheckpointInfo.decode_meta(
            records.decode(payload, records.REC_CKPT_META))
    machine.storage.discard_extent(second.meta_extent[0])
    machine.storage.write(second.meta_extent[0], payload)

    machine.crash()
    machine.boot()
    recovered = ObjectStore(machine)
    assert recovered.mount()
    assert list(recovered.checkpoints) == [first.ckpt_id]
    assert recovered.checkpoints[first.ckpt_id].pages == first.pages


def _state_column_short(table):
    table[3][0] = table[3][0][:-1]


def _state_column_long(table):
    table[3][0] = [*table[3][0], 0]


def _oid_column_long(table):
    table[2] = [*table[2], FILES[0] + 100]


def _bad_state_code(table):
    table[3][table[1].index("ftype")] = _coded_past_its_values(len(FILES))


@pytest.mark.parametrize("damage, complaint", [
    (_state_column_short, "differ in length"),
    (_state_column_long, "differ in length"),
    (_oid_column_long, "differ in length"),
    (_bad_state_code, "malformed coded column"),
])
def test_a_damaged_object_table_falls_back_a_generation(damage, complaint):
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    first, second = _chain(store)
    (extent,) = set(second.object_records.values())
    body = records.decode(machine.storage.read(extent[0]),
                          records.REC_OBJECT_BATCH)
    (table,) = body
    damage(table)
    payload = records.encode(records.REC_OBJECT_BATCH, body)
    with pytest.raises(CorruptRecord, match=complaint):
        records.decode_objects(payload)
    machine.storage.discard_extent(extent[0])
    machine.storage.write(extent[0], payload)

    report = scrub(store)
    assert {(f.kind, f.ckpt_id) for f in report.findings} == \
        {(CHECKSUM, second.ckpt_id)}
    primary, _pages = store.merged_view(second.ckpt_id)
    decoded = store.read_object_records(
        primary, fallbacks=store.record_fallbacks(second.ckpt_id, primary))
    assert decoded == {oid: ("file", _state(1, index))
                       for index, oid in enumerate(FILES)}
