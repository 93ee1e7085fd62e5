"""Run-wise eager restore: identical simulated result, O(runs) host work.

A 64 Ki-page synthetic heap is dirtied in 50 runs spread over eight
checkpoints, the machine crashes, and the group is restored eagerly.
The simulated numbers are pinned from the per-page restore loop this
path replaced (one ``fetch_page`` + ``insert_page`` + ``clock.advance``
per page), so the slab path may not move them; the ``PageLocator``
construction count is the deterministic guard that keeps the per-page
path from quietly returning.
"""

from __future__ import annotations

import random

from repro import Machine, load_aurora
from repro.objstore.checkpoint import PageLocator
from repro.units import PAGE_SIZE

NPAGES = 65536
RUNS = 50
CHECKPOINTS = 8

#: Measured at the parent commit (per-page restore loop), same script.
PINNED = {
    "clock_ns": 4_091_133_780,
    "elapsed_ns": 15_128_171,
    "io_ns": 8_891,
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

    built = []
    plain_init = PageLocator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(PageLocator, "__init__", counting_init)
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
    restored = {}
    for obj in reversed(list(entry.vmobject.chain())):
        restored.update((pindex, page.seed)
                        for pindex, page in obj.pages.items())
    assert restored == model
    for pindex in (0, 1, NPAGES // 2, NPAGES - 1):
        assert vmspace.read(addr + pindex * PAGE_SIZE, 64) == \
            sls.store.fetch_page(
                PageLocator.synthetic(model[pindex])).realize()[:64]

    # (c) no "ext" pages here, so mount + restore built no locator.
    assert len(built) == 0
