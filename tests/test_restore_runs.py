"""Run-wise restore: identical simulated result, O(runs) host work.

A 64 Ki-page synthetic heap is dirtied in 50 runs spread over eight
checkpoints, the machine crashes, and the group is restored eagerly.
The simulated numbers are pinned from the per-page restore loop this
path replaced (one ``fetch_page`` + one-page insert + ``clock.advance``
per page), so the run-wise path may not move them.  The one-page
locator (``clip_run``) and ``Page`` construction counts are the
deterministic guards that keep the per-page path from quietly
returning: a restored synthetic stretch stays one run in its VM object,
and a page is built only when read.

Restored lazily, the same heap is registered with the pageout daemon
as the merged locator table's runs themselves — no object per page —
and paging every page back in reads the last durable content.
"""

from __future__ import annotations

import random
import tracemalloc

import repro.core.restore as restore_mod
import repro.objstore.checkpoint as checkpoint_mod
from repro import Machine, load_aurora
from repro.hw.memory import Page
from repro.kernel.vm.fault import handle_fault
from repro.units import PAGE_SIZE

NPAGES = 65536
RUNS = 50
CHECKPOINTS = 8

#: Measured at the parent commit (per-page restore loop), same script.
#: ``clock_ns``, ``elapsed_ns`` and ``io_ns`` were re-recorded once
#: when record extents became one table per record shape and system
#: shadow names stopped growing: smaller record extents, shorter reads
#: and writes (was 4 091 133 780 / 15 128 171 / 8 891).  ``clock_ns``
#: moved again when owned extents went to media as runs: shorter
#: metadata writes at each checkpoint and reads at the mount (was
#: 4 091 133 341); the restore's own figures did not move.  And again
#: when record tables and the page-locator map became typed columns:
#: shorter record and metadata writes and mount reads (was
#: 4 090 992 782); the restore's own figures did not move.  And again
#: when the superblock stopped carrying the free list: shorter
#: superblock writes and mount reads (was 4 090 991 857); the
#: restore's own figures did not move.
PINNED = {
    "clock_ns": 4_090_991_672,
    "elapsed_ns": 15_128_080,
    "io_ns": 8_800,
    "insert_ns": 15_073_280,
    "pages_restored": 65_536,
}


def _checkpointed_heap():
    """(machine, group id, heap address, {pindex: seed} durable model)."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("heap")
    addr = proc.vmspace.mmap(NPAGES * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, NPAGES, seed=7)
    model = {pindex: 7 + pindex for pindex in range(NPAGES)}
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True)
    rng = random.Random(16)
    deltas = CHECKPOINTS - 1
    for ckpt in range(deltas):
        for _run in range(ckpt, RUNS, deltas):
            count = rng.randrange(1, 600)
            start = rng.randrange(NPAGES - count)
            seed = rng.getrandbits(30)
            proc.vmspace.touch(addr + start * PAGE_SIZE, count, seed=seed)
            model.update((start + i, seed + i) for i in range(count))
        sls.checkpoint(group, sync=True)
    # Never checkpointed: must not survive the crash.
    proc.vmspace.touch(addr, 3, seed=99)
    return machine, group.group_id, addr, model


def test_eager_restore_is_runwise_and_sim_identical(monkeypatch):
    machine, gid, addr, model = _checkpointed_heap()
    machine.crash()
    machine.boot()

    built = {"locators": 0, Page: 0}

    def counting(plain, key):
        def counted(*args, **kwargs):
            built[key] += 1
            return plain(*args, **kwargs)
        return counted

    monkeypatch.setattr(Page, "__init__", counting(Page.__init__, Page))
    # Where a one-page locator is cut out of a run on the restore path.
    for module in (restore_mod, checkpoint_mod):
        monkeypatch.setattr(module, "clip_run",
                            counting(module.clip_run, "locators"))
    sls = load_aurora(machine)
    assert len(sls.store.checkpoints_for(gid)) == CHECKPOINTS
    result = sls.restore(gid, periodic=False)
    monkeypatch.undo()

    # (a) the simulated result is the per-page loop's, to the nanosecond.
    assert {
        "clock_ns": machine.clock.now(),
        "elapsed_ns": result.elapsed_ns,
        "io_ns": result.io_ns,
        "insert_ns": result.insert_ns,
        "pages_restored": result.pages_restored,
    } == PINNED

    # (b) content equals the last durable content, page for page.
    vmspace = result.root.vmspace
    entry = vmspace.map.lookup(addr // PAGE_SIZE)
    restored = {pindex: entry.vmobject.visible_page(pindex).seed
                for pindex in range(NPAGES)}
    assert restored == model
    for pindex in (0, 1, NPAGES // 2, NPAGES - 1):
        assert vmspace.read(addr + pindex * PAGE_SIZE, 64) == \
            sls.store.fetch_page(
                ("syn", pindex, 1, model[pindex], 0)).realize()[:64]

    # (c) no "ext" pages here, so mount + restore cut no one-page
    # locator out of a run (the per-page loop built one per page).
    assert built["locators"] == 0
    # (d) and no page: the per-page loop built 65 536.
    assert built[Page] == 0


#: Bytes a lazy restore of the heap may leave allocated; one locator
#: object per page took about 11 MB here.
LAZY_BYTES = 1 << 20


def test_lazy_restore_registers_the_merged_runs():
    machine, gid, addr, model = _checkpointed_heap()
    machine.crash()
    machine.boot()
    sls = load_aurora(machine)
    ckpt = sls.store.checkpoints_for(gid)[-1].ckpt_id
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    result = sls.restore(gid, lazy=True, periodic=False)
    kept = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    assert result.pages_lazy == NPAGES
    assert kept < LAZY_BYTES, kept

    # The registration is the merged table's runs, in O(runs).
    space = result.root.vmspace
    entry = space.map.lookup(addr // PAGE_SIZE)
    evicted = machine.kernel.pageout.evicted
    (obj,) = [obj for obj in entry.vmobject.chain() if obj.kid in evicted]
    _records, tables = sls.store.merged_view(ckpt)
    assert evicted[obj.kid] == tables[obj.sls_oid].runs

    # Paging every page back in reads the last durable content.
    for pindex in range(NPAGES):
        page = handle_fault(space, addr // PAGE_SIZE + pindex, write=False)
        assert page.seed == model[pindex], pindex
    assert machine.kernel.pageout.pageins == NPAGES
    assert obj.kid not in evicted
