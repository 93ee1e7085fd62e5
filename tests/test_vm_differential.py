"""Run-wise ``touch`` vs one write fault per page (``tests/vm_reference``).

Two identical machines are driven through the same random sequence of
``mmap`` / ``fill`` / ``touch`` / ``write`` / ``read`` / ``fork`` (the
child stores too) / checkpoint (system shadow, then collapse) / lazy
restore / ``run_pageout`` operations; the only difference is which
``touch`` runs.  After every step the two must agree on each
operation's outcome (value or exception), every visible page's seed
and bytes, every present / writable / dirty bit, ``fault_count``,
``physmem.used_frames``, ``pageout.pageins`` and the simulated clock.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.core import costs
from repro.errors import ReproError, SegmentationFault
from repro.kernel.vm.vmmap import (INHERIT_COPY, INHERIT_SHARE, PROT_READ,
                                   PROT_WRITE)
from repro.kernel.vm.vmspace import VMSpace
from repro.units import PAGE_SIZE
from tests.vm_reference import touch_per_page

MAX_PROCS = 3


class World:
    """One machine, its consistency group and the regions mapped."""

    def __init__(self, touch):
        self.touch = touch
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        self.procs = [self.machine.kernel.spawn("p0")]
        self.group = self.sls.attach(self.procs[0], periodic=False)
        #: (address, pages) of every region, mapped in every process
        #: forked after it.
        self.regions = []

    def _target(self, which, region, page):
        proc = self.procs[which % len(self.procs)]
        addr, npages = self.regions[region % len(self.regions)]
        return proc.vmspace, addr + (page % npages) * PAGE_SIZE

    def apply(self, op):
        """Run one operation; returns its value or the error raised."""
        try:
            return self._apply(*op)
        except ReproError as err:
            return type(err).__name__, str(err)

    def _apply(self, kind, *args):
        kernel = self.machine.kernel
        if kind == "mmap":
            npages, writable, shared = args
            prot = PROT_READ | (PROT_WRITE if writable else 0)
            # Always in p0: regions stay adjacent, so runs cross entries.
            # A shared region stays one object across forks: the child
            # faults on pages already in the top object.
            addr = self.procs[0].vmspace.mmap(
                npages * PAGE_SIZE, protection=prot, name="r",
                inheritance=INHERIT_SHARE if shared else INHERIT_COPY)
            self.regions.append((addr, npages))
            return addr
        if kind == "fork":
            if len(self.procs) < MAX_PROCS:
                self.procs.append(kernel.fork(
                    self.procs[args[0] % len(self.procs)],
                    name=f"p{len(self.procs)}"))
            return len(self.procs)
        if kind == "checkpoint":
            return self.sls.checkpoint(self.group, sync=True).stop_ns
        if kind == "restore":
            gid = self.group.group_id
            self.sls.checkpoint(self.group, sync=True)
            self.machine.crash()
            self.machine.boot()
            self.sls = load_aurora(self.machine)
            result = self.sls.restore(gid, lazy=True, periodic=False)
            self.group = result.group
            self.procs = sorted(self.group.processes, key=lambda p: p.name)
            return result.pages_lazy
        if kind == "pageout":
            pageout = kernel.pageout
            # Pretend the machine is under pressure: evict down to a
            # share of what is resident now.
            resident = kernel.physmem.used_frames / kernel.physmem.total_frames
            pageout.HIGH_WATERMARK = 0.0
            pageout.LOW_WATERMARK = resident * args[0] / 4
            objects = [obj for track in self.group.tracks.values()
                       for obj in track.active.chain()]
            return pageout.run_pageout(objects, store=self.sls.store)
        if not self.regions:
            return None
        which, region, page = args[:3]
        space, addr = self._target(which, region, page)
        if kind == "fill":
            # Stay inside the region: fill is a set-up helper.
            _addr, npages = self.regions[region % len(self.regions)]
            count = min(args[3], npages - page % npages)
            return space.fill(addr, count, seed=args[4])
        if kind == "touch":
            return self.touch(space, addr, args[3], args[4])
        if kind == "write":
            return space.write(addr + args[3], args[4])
        assert kind == "read"
        return space.read(addr + args[3], args[4])

    def observe(self):
        kernel = self.machine.kernel
        spaces = []
        for proc in self.procs:
            space = proc.vmspace
            pages = {}
            for entry in space.map:
                for va_page in range(entry.start_page, entry.end_page):
                    page = entry.vmobject.visible_page(
                        entry.pindex_of(va_page))
                    pages[va_page] = (
                        space.pmap.is_mapped(va_page),
                        space.pmap.is_writable(va_page),
                        None if page is None else (page.seed, page.data))
            spaces.append((pages, space.pmap.dirty_pages(),
                           space.pmap.fault_count))
        return {
            "spaces": spaces,
            "used_frames": kernel.physmem.used_frames,
            "pageins": kernel.pageout.pageins,
            "evicted": sum(map(len, kernel.pageout.evicted.values())),
            "clock_ns": self.machine.clock.now(),
        }


_small = st.integers(0, 40)
_seed = st.integers(0, 1 << 30)
_ops = st.lists(
    st.one_of(
        # Read-only regions are rare: a group that maps one cannot be
        # restored (its object is never shadowed, hence never persisted).
        st.tuples(st.just("mmap"), st.integers(1, 12),
                  st.sampled_from([True] * 7 + [False]), st.booleans()),
        st.tuples(st.just("fill"), _small, _small, _small,
                  st.integers(1, 12), _seed),
        st.tuples(st.just("touch"), _small, _small, _small,
                  st.integers(0, 20), _seed),
        st.tuples(st.just("touch"), _small, _small, _small,
                  st.integers(0, 20), _seed),
        st.tuples(st.just("write"), _small, _small, _small,
                  st.integers(0, PAGE_SIZE - 1),
                  st.binary(min_size=1, max_size=2 * PAGE_SIZE)),
        st.tuples(st.just("read"), _small, _small, _small,
                  st.integers(0, PAGE_SIZE - 1), st.integers(1, 2 * PAGE_SIZE)),
        st.tuples(st.just("fork"), _small),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("pageout"), st.integers(1, 3)),
    ),
    min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_runwise_touch_matches_one_fault_per_page(ops):
    runwise, per_page = World(VMSpace.touch), World(touch_per_page)
    for step, op in enumerate([("mmap", 8, True, False)] + ops):
        assert runwise.apply(op) == per_page.apply(op), (step, op)
        assert runwise.observe() == per_page.observe(), (step, op)


#: Fixed sequences, one per way a run of write faults resolves; the
#: random test above reaches some of them only once in ~1 000 examples.
SCENARIOS = {
    # A shared region stays one object across fork: the child has no
    # PTEs, so its faults find every page at depth 0.
    "resident-in-top": [
        ("mmap", 6, True, True), ("fill", 0, 1, 0, 6, 10), ("fork", 0),
        ("touch", 1, 1, 0, 6, 20), ("touch", 0, 1, 1, 4, 30)],
    # One run over pages found two objects down, one object down and
    # nowhere (zero-fill), partly overlapping pages already writable.
    "mixed-depths": [
        ("fill", 0, 0, 0, 4, 10), ("checkpoint",),
        ("touch", 0, 0, 2, 4, 20), ("checkpoint",),
        ("touch", 0, 0, 5, 2, 30), ("touch", 0, 0, 0, 8, 40)],
    # fork()'s lazy COW: the first store on either side shadows the
    # object once for the whole run.
    "needs-copy": [
        ("fill", 0, 0, 0, 8, 10), ("fork", 0), ("touch", 0, 0, 1, 5, 20),
        ("touch", 1, 0, 0, 8, 30), ("checkpoint",),
        ("touch", 1, 0, 2, 3, 40), ("touch", 0, 0, 0, 8, 50)],
    # A run crossing from one entry into the next one.
    "two-entries": [
        ("mmap", 5, True, False), ("fill", 0, 0, 6, 2, 10),
        ("touch", 0, 0, 3, 9, 20), ("checkpoint",),
        ("touch", 0, 0, 5, 6, 30)],
    # Lazily restored pages are paged in by the faults of a run.
    "lazy-restore": [
        ("fill", 0, 0, 0, 8, 10), ("write", 0, 0, 3, 7, b"real bytes"),
        ("restore",), ("touch", 0, 0, 1, 6, 20), ("read", 0, 0, 0, 0, 64),
        ("checkpoint",), ("touch", 0, 0, 0, 8, 30)],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_one_fault_per_page(name):
    runwise, per_page = World(VMSpace.touch), World(touch_per_page)
    for step, op in enumerate([("mmap", 8, True, False)] + SCENARIOS[name]):
        assert runwise.apply(op) == per_page.apply(op), (step, op)
        assert runwise.observe() == per_page.observe(), (step, op)


def test_mixed_depth_run_is_charged_per_page_found():
    """The summed charge of one run, spelled out: the reference shares
    the cost formula with the run-wise path, so check it directly."""
    world = World(VMSpace.touch)
    for op in [("mmap", 8, True, False)] + SCENARIOS["mixed-depths"][:-2]:
        world.apply(op)
    clock = world.machine.clock
    before = clock.now()
    # Chain: active shadow (empty) -> frozen shadow (pages 2..5) ->
    # base (pages 0..3).
    assert world.apply(("touch", 0, 0, 0, 8, 40)) == 8
    assert clock.now() - before == (
        2 * (2 * costs.SHADOW_CHAIN_HOP + costs.COW_FAULT)       # 0, 1
        + 4 * (1 * costs.SHADOW_CHAIN_HOP + costs.COW_FAULT)     # 2..5
        + 2 * (3 * costs.SHADOW_CHAIN_HOP + costs.SOFT_FAULT))   # 6, 7


def _two_regions(touch):
    """A writable region followed by a read-only one, then a hole."""
    world = World(touch)
    world.apply(("mmap", 4, True, False))
    world.apply(("mmap", 4, False, False))
    return world


def test_error_prefix_read_only_entry():
    worlds = [_two_regions(VMSpace.touch), _two_regions(touch_per_page)]
    for world in worlds:
        space = world.procs[0].vmspace
        addr = world.regions[0][0]
        with pytest.raises(SegmentationFault, match="write to page"):
            world.touch(space, addr + PAGE_SIZE, 6, 50)
        # Pages 1..3 of the writable region were dirtied, nothing else.
        first = addr // PAGE_SIZE
        assert space.pmap.dirty_pages() == [first + 1, first + 2, first + 3]
        assert space.pmap.fault_count == 3
    assert worlds[0].observe() == worlds[1].observe()


def test_error_prefix_unmapped_page():
    worlds = [World(VMSpace.touch), World(touch_per_page)]
    for world in worlds:
        world.apply(("mmap", 4, True, False))
        space = world.procs[0].vmspace
        addr = world.regions[0][0]
        with pytest.raises(SegmentationFault, match="no mapping for page"):
            world.touch(space, addr + 2 * PAGE_SIZE, 5, 60)
        first = addr // PAGE_SIZE
        assert space.pmap.dirty_pages() == [first + 2, first + 3]
        assert space.pmap.fault_count == 2
    assert worlds[0].observe() == worlds[1].observe()


def test_page_in_is_charged_in_index_order():
    """A page-in reads the device at the current clock.  While the
    device is busy the read waits for it, which absorbs whatever was
    charged before the read but nothing charged after: the pages before
    a paged-in page must be charged first, as one fault per page does."""
    worlds = [World(VMSpace.touch), World(touch_per_page)]
    for world in worlds:
        world.apply(("mmap", 512, True, False))
        space = world.procs[0].vmspace
        addr = world.regions[0][0]
        space.fill(addr, 512, seed=3)
        for page in (5, 9):
            space.write(addr + page * PAGE_SIZE, b"real bytes %d" % page)
        world.apply(("checkpoint",))        # pages 5 and 9 sit in an extent
        world.touch(space, addr + 64 * PAGE_SIZE, 400, 77)
        # Evict everything: the dirty synthetic pages are queued on the
        # device and nobody waits for them.
        assert world.apply(("pageout", 0)) == 512 + 400
        devices = world.machine.storage.devices
        now = world.machine.clock.now()
        assert all(device._busy_until > now for device in devices)
        assert world.touch(space, addr, 16, 99) == 16
        assert world.machine.kernel.pageout.pageins == 16
    assert worlds[0].observe() == worlds[1].observe()


def test_chain_with_backing_offset_resolves_like_single_faults():
    """Page ``p`` of a shadow with ``backing_offset`` 4 is page ``p + 4``
    of its parent: the range walk shifts its indexes on the way down."""
    from repro.hw.memory import Page
    from repro.kernel.vm.fault import handle_write_faults
    from repro.kernel.vm.vmobject import VMObject
    clocks, contents = [], []
    for run_wise in (True, False):
        machine = Machine()
        kernel = machine.kernel
        base = VMObject(kernel, 16, name="base")
        base.insert_pages({i: Page(seed=100 + i) for i in range(4, 8)})
        window = VMObject(kernel, 8, backing=base, backing_offset=4,
                          name="window")
        base.unref()
        space = kernel.spawn("p").vmspace
        addr = space.mmap(8 * PAGE_SIZE, vmobject=window, name="w")
        entry = space.entry_at(addr)
        before = machine.clock.now()
        if run_wise:
            handle_write_faults(space, entry, addr // PAGE_SIZE, 6)
        else:
            for page in range(6):
                handle_write_faults(space, entry, addr // PAGE_SIZE + page, 1)
        clocks.append(machine.clock.now() - before)
        contents.append({p: (page.seed, page.data)
                         for p, page in window.pages.items()})
    assert clocks[0] == clocks[1] == (
        4 * (costs.SHADOW_CHAIN_HOP + costs.COW_FAULT)
        + 2 * (2 * costs.SHADOW_CHAIN_HOP + costs.SOFT_FAULT))
    assert contents[0] == contents[1] == {
        0: (104, None), 1: (105, None), 2: (106, None), 3: (107, None),
        4: (None, b""), 5: (None, b"")}
