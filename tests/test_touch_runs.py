"""Run-wise write faults: identical simulated result and heap, O(runs)
host work.

A 64 Ki-page synthetic heap takes eight checkpoints with fifty 64-page
``touch`` runs between them (the shape of the ``vm_wide`` benchmark
workload).  Three guards, all deterministic:

(a) the simulated numbers are pinned from the per-page fault loop this
    path replaced, so the range fault may not move them;
(b) inside ``touch`` no single-PTE pmap call is made and the clock
    advances at most twice per run, so the per-page path cannot
    quietly return;
(c) the ``PageLocator`` objects built during the run and the ``Page``
    objects alive after it are pinned too: the population of
    long-lived objects sets the cyclic collector's schedule, which
    moved ``restore_wall_ms`` on an untouched workload the last time
    it changed, so a silent heap change fails here and not in a
    benchmark.  No locator is built: a flushed synthetic page is
    marked clean with the one shared ``SYNTHETIC_CLEAN`` mark (its
    locator is a function of its seed) instead of one ``PageLocator``
    per page — 25 378 here before that change, one per page touched.
"""

from __future__ import annotations

import gc
import random

from repro import Machine, load_aurora
from repro.hw.clock import SimClock
from repro.hw.memory import Page
from repro.kernel.vm.pmap import Pmap
from repro.objstore.checkpoint import PageLocator
from repro.units import PAGE_SIZE

NPAGES = 65536
CHECKPOINTS = 8
RUNS = 50
RUN_PAGES = 64

#: Measured at the parent commit (per-page ``touch`` loop over
#: ``handle_fault``), same script; ``locators_built`` since the shared
#: clean mark (see (c)).
PINNED = {
    "clock_ns": 2_102_889_391,
    "stop_ns": [213_256, 247_214, 246_744, 246_014, 246_800, 247_436,
                247_460, 247_172],
    "fault_count": 25_378,
    "used_frames": 68_703,
    "locators_built": 0,
    "pages_alive": 68_703,
}


def _count(monkeypatch, cls, name, calls):
    plain = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return plain(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)


def _alive_pages() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Page)


def test_touch_is_runwise_sim_identical_and_heap_neutral(monkeypatch):
    alive_before = _alive_pages()
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("heap")
    space = proc.vmspace
    addr = space.mmap(NPAGES * PAGE_SIZE, name="heap")
    space.fill(addr, NPAGES, seed=7)
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True)

    locators = {}
    _count(monkeypatch, PageLocator, "__init__", locators)
    rng = random.Random(18)
    stop_ns = []
    in_touch = {}
    for _ckpt in range(CHECKPOINTS):
        with monkeypatch.context() as patch:
            for name in ("enter", "mark_dirty", "is_writable"):
                _count(patch, Pmap, name, in_touch)
            _count(patch, SimClock, "advance", in_touch)
            for _run in range(RUNS):
                start = rng.randrange(1, NPAGES - RUN_PAGES)
                space.touch(addr + start * PAGE_SIZE, RUN_PAGES,
                            seed=rng.getrandbits(30))
        stop_ns.append(sls.checkpoint(group, sync=True).stop_ns)

    # (a) the simulated result is the per-page loop's, to the nanosecond.
    assert {
        "clock_ns": machine.clock.now(),
        "stop_ns": stop_ns,
        "fault_count": space.pmap.fault_count,
        "used_frames": machine.kernel.physmem.used_frames,
    } == {key: PINNED[key] for key in ("clock_ns", "stop_ns", "fault_count",
                                       "used_frames")}
    # (b) O(runs): no single-PTE call, at most two clock charges a run
    # (a run that overlaps an earlier one splits into sub-runs).
    assert {name: in_touch.get(name, 0)
            for name in ("enter", "mark_dirty", "is_writable")} \
        == {"enter": 0, "mark_dirty": 0, "is_writable": 0}
    assert 0 < in_touch["advance"] <= 2 * RUNS * CHECKPOINTS
    # (c) the heap population is the parent's.
    assert locators.get("__init__", 0) == PINNED["locators_built"]
    assert _alive_pages() - alive_before == PINNED["pages_alive"]
