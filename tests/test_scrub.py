"""The store scrubber: every injected corruption must be found.

The acceptance bar from the versioned-store literature: a scrub pass
walks superblocks → checkpoint records → extents and catches (a) a
flipped byte in any record extent, (b) a dangling record pointer,
(c) a shadow chain grown past the eager-collapse bound — plus it stays
silent on a healthy store.
"""

import pytest

from repro import Machine, load_aurora
from repro.core.cli import main
from repro.core.shadowing import NONE
from repro.hw.memory import Page
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore import scrub as scrub_mod
from repro.objstore.scrub import CHAIN, CHECKSUM, DANGLING, ORPHAN, scrub
from repro.objstore.store import ObjectStore
from repro.units import PAGE_SIZE
from tests.content import page_runs

MEM_OID = make_oid(CLASS_MEMORY, 42)


def _store_with_chain(machine, nckpts=3):
    store = ObjectStore(machine)
    store.format()
    parent = None
    infos = []
    for index in range(nckpts):
        txn = store.begin_checkpoint(group_id=4, parent=parent)
        txn.put_object(MEM_OID, "vmobject", {"step": index})
        txn.put_pages(MEM_OID,
                      page_runs({0: Page(data=b"page-%d" % index * 16)}))
        info = store.commit(txn, sync=True)
        infos.append(info)
        parent = info.ckpt_id
    return store, infos


def _flip_byte(machine, offset, index=0):
    payload = machine.storage.read(offset)
    assert isinstance(payload, bytes)
    flipped = (payload[:index] + bytes([payload[index] ^ 0xFF]) +
               payload[index + 1:])
    machine.storage.discard_extent(offset)
    machine.storage.write(offset, flipped)


def test_clean_store_scrubs_clean():
    machine = Machine()
    store, _infos = _store_with_chain(machine)
    report = scrub(store)
    assert report.ok, report.findings
    assert report.checkpoints_scanned == 3
    assert report.records_verified == 3
    assert report.page_extents_verified == 3
    assert report.superblocks_valid == 2


def test_full_aurora_app_store_scrubs_clean(aurora):
    machine, sls = aurora
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"content")
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True)
    sls.checkpoint(group, sync=True)
    report = scrub(sls.store, sls=sls)
    assert report.ok, report.findings
    assert report.chains_checked >= 1


def test_scrub_reports_an_extent_nothing_owns():
    """An allocation no checkpoint, transaction, journal, superblock or
    eviction table owns is reported with its range — also after a
    commit allocates past it — and only it."""
    machine = Machine()
    store, _infos = _store_with_chain(machine)
    planted = store.alloc.alloc(2 * PAGE_SIZE)
    txn = store.begin_checkpoint(group_id=4, parent=_infos[-1].ckpt_id)
    txn.put_object(MEM_OID, "vmobject", {"step": 3})
    store.commit(txn, sync=True)
    report = scrub(store)
    assert [(finding.kind, finding.detail) for finding in report.findings] \
        == [(ORPHAN, f"extent [{planted}, {planted + 2 * PAGE_SIZE}) is "
                     f"allocated but nothing owns it")]
    store.alloc.free(planted, 2 * PAGE_SIZE)
    assert scrub(store).ok


def test_scrub_detects_flipped_record_byte():
    """(a) A single flipped byte in an object record extent."""
    machine = Machine()
    store, infos = _store_with_chain(machine)
    extent, _length = infos[1].object_records[MEM_OID]
    _flip_byte(machine, extent, index=20)
    report = scrub(store)
    assert not report.ok
    assert any(f.kind == CHECKSUM and f.ckpt_id == infos[1].ckpt_id
               for f in report.findings), report.findings


def test_scrub_detects_flipped_meta_byte():
    machine = Machine()
    store, infos = _store_with_chain(machine)
    _flip_byte(machine, infos[0].meta_extent[0], index=20)
    report = scrub(store)
    assert any(f.kind == CHECKSUM for f in report.findings), report.findings


def test_scrub_detects_dangling_record_pointer():
    """(b) Checkpoint metadata referencing an extent that is gone."""
    machine = Machine()
    store, infos = _store_with_chain(machine)
    extent, _length = infos[2].object_records[MEM_OID]
    machine.storage.discard_extent(extent)
    report = scrub(store)
    assert any(f.kind == DANGLING and str(extent) in f.detail
               for f in report.findings), report.findings


def test_scrub_detects_dangling_page_extent():
    machine = Machine()
    store, infos = _store_with_chain(machine)
    locator = infos[0].pages[MEM_OID].lookup(0)
    machine.storage.discard_extent(locator[3])
    report = scrub(store)
    assert any(f.kind == DANGLING and "page 0" in f.detail
               for f in report.findings), report.findings


def test_scrub_detects_overgrown_shadow_chain():
    """(c) The never-collapse ablation grows chains past the §6 bound;
    the scrubber must flag them."""
    machine = Machine()
    sls = load_aurora(machine)
    sls.shadow.collapse_direction = NONE  # the ablation: never collapse
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False)
    for round_no in range(scrub_mod.MAX_SHADOW_DEPTH + 1):
        proc.vmspace.write(addr, b"round-%d" % round_no)
        sls.checkpoint(group, sync=True)
    report = scrub(sls.store, sls=sls)
    assert any(f.kind == CHAIN for f in report.findings), report.findings


def test_eager_collapse_keeps_chains_within_bound(aurora):
    """The paper's reverse-collapse configuration never trips the
    chain check, however many checkpoints run."""
    machine, sls = aurora
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False)
    for round_no in range(6):
        proc.vmspace.write(addr, b"round-%d" % round_no)
        sls.checkpoint(group, sync=True)
    report = scrub(sls.store, sls=sls)
    assert not [f for f in report.findings if f.kind == CHAIN], \
        report.findings


def test_scrub_counters_land_in_telemetry():
    from repro.core import telemetry

    machine = Machine()
    store, _infos = _store_with_chain(machine)
    before = telemetry.registry().value("sls.scrub.runs")
    report = scrub(store)
    registry = telemetry.registry()
    assert registry.value("sls.scrub.runs") == before + 1
    assert report.stats["checkpoints"] == report.checkpoints_scanned
    assert report.stats["findings"] == len(report.findings)


def test_cli_scrub_clean_and_corrupt(tmp_path, capsys):
    image = str(tmp_path / "aurora.img")
    assert main(["init", image]) == 0
    assert main(["spawn", image, "demo", "--memory-kib", "64"]) == 0
    assert main(["run", image, "1", "--millis", "20"]) == 0
    assert main(["scrub", image]) == 0
    out = capsys.readouterr().out
    assert "store is clean" in out

    # Corrupt one checkpoint's metadata record inside the image, then
    # scrub again: nonzero exit and a printed finding.
    from repro.core.cli import _boot_from_image, _save_image
    from repro.objstore.store import ObjectStore as Store

    machine = _boot_from_image(image)
    store = Store(machine)
    assert store.mount()
    info = next(info for info in store.checkpoints.values()
                if info.object_records)
    _flip_byte(machine, info.meta_extent[0], index=24)
    _save_image(machine, image)

    assert main(["scrub", image]) == 1
    out = capsys.readouterr().out
    assert "finding" in out
