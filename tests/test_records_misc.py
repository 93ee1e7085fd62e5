"""Smaller units: record envelopes, OID limits, misc store paths."""

import pytest

from repro import Machine, serde
from repro.errors import CorruptRecord, InvalidArgument
from repro.hw.memory import Page
from repro.objstore import records
from repro.objstore.oid import (CLASS_FILE, CLASS_MEMORY, OIDAllocator,
                                make_oid, oid_serial)
from repro.objstore.store import ObjectStore

MEM_OID = make_oid(CLASS_MEMORY, 321)


def test_record_envelope_round_trip():
    blob = records.encode(records.REC_CKPT_META, {"x": 1})
    assert records.decode(blob, records.REC_CKPT_META) == {"x": 1}


def test_record_kind_mismatch_rejected():
    blob = records.encode(records.REC_CATALOG, {"x": 1})
    with pytest.raises(CorruptRecord):
        records.decode(blob, records.REC_CKPT_META)


def test_record_unknown_kind_rejected():
    with pytest.raises(CorruptRecord):
        records.encode("mystery", {})


def test_object_record_round_trip():
    blob = records.encode_object(42, "pipe", {"buffer": b"x"})
    assert records.decode_object(blob) == (42, "pipe", {"buffer": b"x"})


def test_batch_decodes_only_the_wanted_records(monkeypatch):
    """An unwanted record is skipped undecoded by its OID prefix; one
    whose prefix does not match (here an extra key sorts before
    ``oid``) is decoded in full and returned for the caller to judge."""
    odd = serde.dumps({"kind": records.REC_OBJECT,
                       "body": {"aaa": 0, "oid": 14, "otype": "pipe",
                                "state": None}})
    batch = records.encode_objects(
        [records.encode_object(oid, "pipe", {"n": oid}) for oid in (11, 12)]
        + [odd, records.encode_object(-5, "pipe", None)])
    loaded = []
    loads = serde.loads
    monkeypatch.setattr(serde, "loads",
                        lambda data: loaded.append(data) or loads(data))
    assert records.decode_objects(batch, {12}) == [
        (12, "pipe", {"n": 12}), (14, "pipe", None), (-5, "pipe", None)]
    assert len(loaded) == 4     # the batch and three records, not 11
    assert [oid for oid, _otype, _state in records.decode_objects(batch)] \
        == [11, 12, 14, -5]


def test_missing_wanted_oid_takes_the_fallback():
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    older = store.begin_checkpoint(group_id=1)
    for oid in (11, 12):
        older.put_object(oid, "pipe", {"v": "old"})
    old_info = store.commit(older, sync=True)
    newer = store.begin_checkpoint(group_id=1, parent=old_info.ckpt_id)
    for oid in (13, 14):
        newer.put_object(oid, "pipe", {"v": "new"})
    batch = store.commit(newer, sync=True).object_records[13]
    # The map claims 11 lives in the newer batch, which does not hold it.
    extents = {11: batch, 13: batch}
    with pytest.raises(CorruptRecord, match="record OID mismatch for 11"):
        store.read_object_records(extents)
    assert store.read_object_records(
        extents, fallbacks={11: [old_info.object_records[11]]}) == {
        11: ("pipe", {"v": "old"}), 13: ("pipe", {"v": "new"})}


def test_oid_serial_bounds():
    with pytest.raises(InvalidArgument):
        make_oid(CLASS_FILE, 0)
    top = make_oid(CLASS_FILE, (1 << 56) - 1)
    assert oid_serial(top) == (1 << 56) - 1


def test_retain_more_than_exists_is_noop():
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    txn = store.begin_checkpoint(group_id=3)
    txn.put_pages(MEM_OID, {0: Page(seed=1)})
    store.commit(txn, sync=True)
    assert store.retain_last(3, keep=10) == 0
    assert len(store.checkpoints_for(3)) == 1


def test_partial_checkpoint_chain_restores_through_merged_view():
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    txn = store.begin_checkpoint(group_id=3)
    txn.put_pages(MEM_OID, {0: Page(seed=1), 1: Page(seed=2)})
    full = store.commit(txn, sync=True)
    txn2 = store.begin_checkpoint(group_id=3, parent=full.ckpt_id,
                                  partial=True)
    txn2.put_pages(MEM_OID, {1: Page(seed=99)})
    partial = store.commit(txn2, sync=True)
    _records, pages = store.merged_view(partial.ckpt_id)
    assert store.fetch_page(pages[MEM_OID].lookup(0)).seed == 1
    assert store.fetch_page(pages[MEM_OID].lookup(1)).seed == 99


def test_store_requires_mount():
    machine = Machine()
    store = ObjectStore(machine)
    from repro.errors import StoreError
    with pytest.raises(StoreError):
        store.begin_checkpoint(group_id=1)


def test_filebench_runs_are_deterministic():
    from repro.slsfs import FFSModel
    from repro.workloads.filebench import FileBench
    from repro.units import KiB, MiB

    def run():
        machine = Machine()
        return FileBench(FFSModel(machine),
                         seed=5).write_throughput(4 * KiB, False,
                                                  total_bytes=8 * MiB)

    assert run() == run()
