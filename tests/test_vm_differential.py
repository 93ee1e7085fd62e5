"""Run-wise ``touch`` vs one write fault per page (``tests/vm_reference``),
and memory held as runs — dirty from ``fill`` / ``touch``, clean from an
eager restore — vs one ``Page`` per page.

Two identical machines are driven through the same random sequence of
``mmap`` / ``fill`` / ``touch`` / ``write`` / ``read`` / ``fork`` (the
child stores too) / checkpoint (sync, async, mem-mode or full; system
shadow, then collapse) / barrier / lazy and eager restore /
``run_pageout`` operations (after the first, every commit also pages
out under pressure); the only differences are how ``fill`` and
``touch`` write (dirty runs and run-wise faults, or one ``Page`` and
one fault per page) and how an eager restore fills VM objects (clean
runs, or the per-page loop).  After every step the two must agree on
each operation's outcome (value or exception), every visible page's
seed, bytes and clean mark, every present / writable / dirty bit,
``fault_count``, ``physmem.used_frames``, ``pageout.pageins``, the
clean and dirty eviction counts, the device bytes written and the
simulated clock.  Each machine also keeps a last-written content model
of every mapped page, and every ``read`` and every visible page must
match it.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.core import costs
from repro.core.pipeline import MODE_MEM
from repro.errors import ReproError
from repro.hw.memory import synthetic_bytes
from repro.kernel.vm.vmmap import (INHERIT_COPY, INHERIT_SHARE, PROT_READ,
                                   PROT_WRITE)
from repro.kernel.vm.vmspace import VMSpace
from repro.units import PAGE_SIZE
from tests.content import clean_mark, held_pages, page_runs
from tests.vm_reference import fill_per_page, per_page_restore, touch_per_page

MAX_PROCS = 3

#: Model content of a page a ``fill`` may have reached through an
#: object another process still shares copy-on-write: ``fill`` stores
#: without faulting, so who sees it depends on who copied first.
UNKNOWN = "unknown"


class World:
    """One machine, its consistency group and the regions mapped."""

    def __init__(self, touch, fill, restoring=contextlib.nullcontext):
        self.touch = touch
        self.fill = fill
        self.restoring = restoring
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        self.procs = [self.machine.kernel.spawn("p0")]
        self.group = self.sls.attach(self.procs[0], periodic=False)
        #: (address, pages) of every region, mapped in every process
        #: forked after it, and whether it is writable and shared.
        self.regions = []
        self.kinds = []
        #: The last-written content model: ``(region, owner, va_page)
        #: -> ("seed", seed) | bytes | UNKNOWN`` (unwritten pages read
        #: zeros), the owner being a process name for a private region
        #: and None for a shared one; None once a restore failed.
        self.model = {}
        #: Process name -> the regions it maps.
        self.mapped = {"p0": []}

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

    def _cell(self, name, va_page):
        """The model key ``name`` reads ``va_page`` through and whether
        its region is writable, or None where ``name`` maps nothing."""
        for region in self.mapped[name]:
            addr, npages = self.regions[region]
            if 0 <= va_page - addr // PAGE_SIZE < npages:
                writable, shared = self.kinds[region]
                return (region, None if shared else name, va_page), writable
        return None

    def _expected(self, key):
        """A page's model bytes, or None when they are not known."""
        content = self.model.get(key, b"")
        if content == UNKNOWN:
            return None
        if isinstance(content, tuple):
            return synthetic_bytes(content[1])
        return content.ljust(PAGE_SIZE, b"\x00")

    def _store(self, space, kind, addr, args):
        """Apply a store to the model, page by page, up to where the
        machine raises: an unmapped page, or a read-only one for
        anything but ``fill``."""
        name = next(proc.name for proc in self.procs
                    if proc.vmspace is space)
        first = addr // PAGE_SIZE
        if kind == "write":
            data = args[4]
            offset = (addr + args[3]) % PAGE_SIZE
            first = (addr + args[3]) // PAGE_SIZE
            count = (offset + len(data) + PAGE_SIZE - 1) // PAGE_SIZE
        else:
            count = args[3]
        for i in range(count):
            cell = self._cell(name, first + i)
            if cell is None or not (cell[1] or kind == "fill"):
                return
            key = cell[0]
            if kind == "write":
                old = self._expected(key)
                lo = max(0, i * PAGE_SIZE - offset)
                chunk = data[lo:(i + 1) * PAGE_SIZE - offset]
                at = offset if i == 0 else 0
                self.model[key] = UNKNOWN if old is None else \
                    old[:at] + chunk + old[at + len(chunk):]
                continue
            self.model[key] = ("seed", args[4] + i)
            if kind == "fill" and key[1] is not None:
                for other, regions in self.mapped.items():
                    if other != name and key[0] in regions:
                        self.model[key[0], other, key[2]] = UNKNOWN

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
            self.mapped["p0"].append(len(self.regions))
            self.regions.append((addr, npages))
            self.kinds.append((writable, shared))
            return addr
        if kind == "fork":
            if len(self.procs) < MAX_PROCS:
                parent = self.procs[args[0] % len(self.procs)].name
                child = f"p{len(self.procs)}"
                self.procs.append(kernel.fork(
                    self.procs[args[0] % len(self.procs)], name=child))
                self.mapped[child] = list(self.mapped[parent])
                if self.model is not None:
                    self.model.update(
                        ((region, child, va), content) for (region, owner, va),
                        content in list(self.model.items()) if owner == parent)
            return len(self.procs)
        if kind == "checkpoint":
            how = args[0] if args else "sync"
            return self.sls.checkpoint(
                self.group, sync=how in ("sync", "full"),
                full=how.startswith("full"),
                **({"mode": MODE_MEM} if how == "mem" else {})).stop_ns
        if kind == "barrier":
            return self.sls.barrier(self.group)
        if kind in ("restore", "eager-restore"):
            lazy = kind == "restore"
            gid = self.group.group_id
            self.sls.checkpoint(self.group, sync=True)
            self.machine.crash()
            self.machine.boot()
            self.sls = load_aurora(self.machine)
            model, self.model = self.model, None
            with self.restoring():
                result = self.sls.restore(gid, lazy=lazy, periodic=False)
            self.model = model
            self.group = result.group
            self.procs = sorted(self.group.processes, key=lambda p: p.name)
            return result.pages_lazy if lazy else result.pages_restored
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
            args = (*args[:3], min(args[3], npages - page % npages), args[4])
        if kind != "read":
            if self.model is not None:
                self._store(space, kind, addr, args)
            if kind == "fill":
                return self.fill(space, addr, args[3], args[4])
            if kind == "touch":
                return self.touch(space, addr, args[3], args[4])
            return space.write(addr + args[3], args[4])
        data = space.read(addr + args[3], args[4])
        if self.model is not None:
            # Every read returns the last content written there.
            name = next(proc.name for proc in self.procs
                        if proc.vmspace is space)
            first, offset = divmod(addr + args[3], PAGE_SIZE)
            count = (offset + len(data) + PAGE_SIZE - 1) // PAGE_SIZE
            pages = [self._expected(self._cell(name, va)[0])
                     for va in range(first, first + count)]
            if None not in pages:
                assert data == b"".join(pages)[offset:offset + len(data)]
        return data

    def observe(self):
        kernel = self.machine.kernel
        spaces = []
        for proc in self.procs:
            space = proc.vmspace
            pages = {}
            for entry in space.map:
                for va_page in range(entry.start_page, entry.end_page):
                    page, _depth, owner = entry.vmobject.lookup_page(
                        entry.pindex_of(va_page))
                    cell = self._cell(proc.name, va_page)
                    if page is not None and self.model is not None \
                            and cell is not None:
                        # What is resident reads as last written.
                        content = self.model.get(cell[0], b"")
                        if content != UNKNOWN:
                            assert (("seed", page.seed) if page.synthetic
                                    else page.data.rstrip(b"\x00")) == (
                                content if isinstance(content, tuple)
                                else content.rstrip(b"\x00")), va_page
                    pages[va_page] = (
                        space.pmap.is_mapped(va_page),
                        space.pmap.is_writable(va_page),
                        None if page is None else (
                            page.seed, page.data,
                            clean_mark(owner, entry.pindex_of(va_page))))
            spaces.append((pages, space.pmap.dirty_pages(),
                           space.pmap.fault_count))
        return {
            "spaces": spaces,
            "used_frames": kernel.physmem.used_frames,
            "pageins": kernel.pageout.pageins,
            "evicted": sum(run[2] for runs in kernel.pageout.evicted.values()
                           for run in runs),
            "evictions": (kernel.pageout.evictions_clean,
                          kernel.pageout.evictions_dirty),
            "bytes_written": self.machine.storage.bytes_written,
            "flushed": (self.sls.shadow.stats["dirty_runs"],
                        self.group.stats["pages_flushed"]),
            "clock_ns": self.machine.clock.now(),
        }


def _worlds():
    """The production machine and the per-page reference machine."""
    return (World(VMSpace.touch, VMSpace.fill),
            World(touch_per_page, fill_per_page, per_page_restore))


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
        st.tuples(st.just("checkpoint"),
                  st.sampled_from(["async", "mem", "full", "full-async"])),
        st.tuples(st.just("barrier")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("eager-restore")),
        st.tuples(st.just("pageout"), st.integers(1, 3)),
    ),
    min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_runwise_touch_matches_one_fault_per_page(ops):
    runwise, per_page = _worlds()
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
    # Eagerly restored runs under reads, write faults (one page, a run,
    # a fork's COW), a collapse into the run holder and pageout.
    "eager-restore": [
        ("fill", 0, 0, 0, 8, 10), ("write", 0, 0, 3, 7, b"real bytes"),
        ("eager-restore",), ("read", 0, 0, 2, 0, 64),
        ("touch", 0, 0, 1, 3, 20), ("write", 0, 0, 5, 9, b"over a run"),
        ("checkpoint",), ("checkpoint",), ("pageout", 2),
        ("read", 0, 0, 6, 0, 64), ("fork", 0), ("touch", 1, 0, 0, 8, 30),
        ("checkpoint",), ("touch", 0, 0, 0, 8, 40), ("eager-restore",),
        ("pageout", 1)],
    # Dirty runs through every checkpoint kind: pageout while an async
    # flush is in flight (the frozen dirty runs stay; clean content a
    # full flush carries is evicted before the flip and must stay
    # evicted), a mem-mode checkpoint (nothing marked clean), a full one
    # (older runs hidden under newer ones stay as they were), a period
    # of page writes only collapsing onto runs, and eviction of clean
    # and dirty run pages under pressure.
    "dirty-runs": [
        ("fill", 0, 0, 0, 8, 10), ("checkpoint", "async"),
        ("touch", 0, 0, 2, 3, 20), ("pageout", 2), ("barrier",),
        ("touch", 0, 0, 5, 2, 30), ("checkpoint", "mem"),
        ("touch", 0, 0, 0, 4, 40), ("checkpoint", "full"),
        ("pageout", 1), ("read", 0, 0, 1, 0, 64), ("checkpoint",),
        ("write", 0, 0, 6, 5, b"page over a run"), ("checkpoint",),
        ("checkpoint",), ("fill", 0, 0, 4, 4, 50), ("pageout", 0),
        ("touch", 0, 0, 0, 8, 60), ("checkpoint", "async"),
        ("checkpoint",), ("checkpoint", "full-async"), ("pageout", 1),
        ("barrier",), ("eager-restore",), ("touch", 0, 0, 3, 2, 70),
        ("checkpoint", "full"), ("pageout", 1)],
    # A shadow holding only pages collapses onto the runs of its parent.
    "pages-over-runs": [
        ("fill", 0, 0, 0, 8, 10), ("checkpoint",),
        ("write", 0, 0, 6, 5, b"page over a run"), ("checkpoint",),
        ("checkpoint",), ("touch", 0, 0, 5, 3, 20), ("checkpoint",),
        ("checkpoint",)],
    # A fill into a read-only entry leaves its pages read-only: a touch
    # running on into it faults there instead of storing.
    "read-only-fill": [
        ("mmap", 1, False, False), ("fill", 0, 1, 0, 1, 0),
        ("touch", 0, 0, 0, 9, 0)],
    # A fork-private shadow over an object the other process still maps
    # is not collapsed into it: the child never sees the parent's pages.
    "fork-private-shadow": [
        ("fork", 0), ("touch", 0, 0, 0, 4, 5), ("checkpoint",),
        ("checkpoint",), ("read", 1, 0, 0, 0, 64)],
    # Clean content a full flush carries is evicted before the flip: it
    # stays evicted, and nothing else is marked.
    "evicted-before-flip": [
        ("fill", 0, 0, 0, 8, 10), ("checkpoint",), ("touch", 0, 0, 0, 2, 20),
        ("checkpoint", "full-async"), ("pageout", 2), ("barrier",),
        ("read", 0, 0, 4, 0, 64), ("checkpoint",)],
    # A fill after a fork leaves the page write-protected (the entry
    # still owes its copy), so a later touch faults and copies instead
    # of writing through to the object the other process maps.
    "fill-after-fork": [
        ("fork", 0), ("fill", 0, 0, 0, 1, 0), ("fill", 1, 0, 0, 1, 1),
        ("touch", 0, 0, 0, 1, 0)],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_one_fault_per_page(name):
    runwise, per_page = _worlds()
    for step, op in enumerate([("mmap", 8, True, False)] + SCENARIOS[name]):
        assert runwise.apply(op) == per_page.apply(op), (step, op)
        assert runwise.observe() == per_page.observe(), (step, op)


def test_writes_before_a_fork_survive_a_crash():
    """Found by the random differential test above: after a fork, each
    process writes into a private shadow of the group's active shadow,
    which is then no map entry's top.  The shadow pass flushes what was
    written into it before the fork, so page 1's second ``fill``
    survives."""
    world = World(VMSpace.touch, VMSpace.fill)
    for op in [("mmap", 8, True, False), ("fill", 0, 0, 1, 1, 0),
               ("checkpoint",), ("fill", 0, 0, 0, 2, 0), ("fork", 0),
               ("touch", 0, 0, 0, 1, 0), ("touch", 1, 0, 0, 1, 0),
               ("eager-restore",)]:
        world.apply(op)
        world.observe()


def test_fork_private_shadow_does_not_collapse_into_another_object():
    """Found by the random differential test above: the child's first
    store after a checkpoint makes a private shadow over the group's
    shadow of the shared object, tracked as a logical object of its
    own.  A ``mem`` checkpoint freezes it unflushed; the next checkpoint
    must not collapse it into the other object, or the child's page
    is flushed under neither and reads the pre-fork ``fill`` after the
    crash."""
    world = World(VMSpace.touch, VMSpace.fill)
    for op in [("mmap", 8, True, False), ("fill", 0, 0, 0, 1, 1),
               ("fork", 0), ("touch", 0, 0, 0, 1, 0), ("checkpoint",),
               ("touch", 1, 0, 0, 1, 0), ("checkpoint", "mem"),
               ("eager-restore",)]:
        world.apply(op)
        world.observe()


def test_fill_under_a_fork_private_shadow_survives_a_crash():
    """The parent's chain reaches the shared object's base, the child's
    its newer shadow, which a ``fill`` wrote before the child's first
    fault hid it: the shadow pass flushes that object's dirty pieces
    from the newest object any chain reaches."""
    world = World(VMSpace.touch, VMSpace.fill)
    for op in [("mmap", 8, True, False), ("fill", 0, 0, 0, 1, 1),
               ("fork", 0), ("touch", 0, 0, 0, 1, 0), ("checkpoint",),
               ("fill", 1, 0, 0, 1, 5), ("touch", 1, 0, 1, 1, 7),
               ("checkpoint",), ("restore",), ("read", 1, 0, 0, 0, 64)]:
        world.apply(op)
        world.observe()


def test_mixed_depth_run_is_charged_per_page_found():
    """The summed charge of one run, spelled out: the reference shares
    the cost formula with the run-wise path, so check it directly."""
    world = World(VMSpace.touch, VMSpace.fill)
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


def _two_regions(touch, fill):
    """A writable region followed by a read-only one, then a hole."""
    world = World(touch, fill)
    world.apply(("mmap", 4, True, False))
    world.apply(("mmap", 4, False, False))
    return world


def test_error_prefix_read_only_entry():
    worlds = [_two_regions(VMSpace.touch, VMSpace.fill),
              _two_regions(touch_per_page, fill_per_page)]
    for world in worlds:
        space = world.procs[0].vmspace
        addr = world.regions[0][0]
        error, message = world.apply(("touch", 0, 0, 1, 6, 50))
        assert error == "SegmentationFault" and "write to page" in message
        # Pages 1..3 of the writable region were dirtied, nothing else.
        first = addr // PAGE_SIZE
        assert space.pmap.dirty_pages() == [first + 1, first + 2, first + 3]
        assert space.pmap.fault_count == 3
    assert worlds[0].observe() == worlds[1].observe()


def test_error_prefix_unmapped_page():
    worlds = list(_worlds())
    for world in worlds:
        world.apply(("mmap", 4, True, False))
        space = world.procs[0].vmspace
        addr = world.regions[0][0]
        error, message = world.apply(("touch", 0, 0, 2, 5, 60))
        assert error == "SegmentationFault" and \
            "no mapping for page" in message
        first = addr // PAGE_SIZE
        assert space.pmap.dirty_pages() == [first + 2, first + 3]
        assert space.pmap.fault_count == 2
    assert worlds[0].observe() == worlds[1].observe()


def test_page_in_is_charged_in_index_order():
    """A page-in reads the device at the current clock.  While the
    device is busy the read waits for it, which absorbs whatever was
    charged before the read but nothing charged after: the pages before
    a paged-in page must be charged first, as one fault per page does."""
    worlds = list(_worlds())
    for world in worlds:
        world.apply(("mmap", 512, True, False))
        world.apply(("fill", 0, 0, 0, 512, 3))
        for page in (5, 9):
            world.apply(("write", 0, 0, page, 0, b"real bytes %d" % page))
        world.apply(("checkpoint",))        # pages 5 and 9 sit in an extent
        world.apply(("touch", 0, 0, 64, 400, 77))
        # The flush of an async checkpoint keeps every device busy, and
        # nobody waits for it; its dirty pages are mid-flush, so the
        # pass evicts every clean page and nothing else.
        world.apply(("checkpoint", "async"))
        assert world.apply(("pageout", 0)) == 512
        devices = world.machine.storage.devices
        now = world.machine.clock.now()
        assert all(device._busy_until > now for device in devices)
        assert world.apply(("touch", 0, 0, 0, 16, 99)) == 16
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
        base.insert(page_runs({i: Page(seed=100 + i) for i in range(4, 8)}))
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
                         for p, page in held_pages(window).items()})
    assert clocks[0] == clocks[1] == (
        4 * (costs.SHADOW_CHAIN_HOP + costs.COW_FAULT)
        + 2 * (2 * costs.SHADOW_CHAIN_HOP + costs.SOFT_FAULT))
    assert contents[0] == contents[1] == {
        0: (104, None), 1: (105, None), 2: (106, None), 3: (107, None),
        4: (None, b""), 5: (None, b"")}
