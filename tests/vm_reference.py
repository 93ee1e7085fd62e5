"""Reference models for the VM hot path: the per-page originals.

Executable specifications the columnar production code is held against
(``tests/test_columnar_equivalence.py``, ``tests/test_vm_differential.py``)
and the pre-columnar baseline ``benchmarks/bench_simscale.py`` measures
the speed-up from.  Production code never selects them: a harness that
wants them wraps its run in :func:`legacy_hot_path`, which patches
them over the production names for the duration.

* :class:`LegacyPmap` / :class:`PTE` — the dict-of-PTE pmap the bitmap
  :class:`~repro.kernel.vm.pmap.Pmap` replaced.
* :func:`merged_chain_pages_legacy` — the top-down per-page
  ``setdefault`` merge behind ``shadowing.merged_chain``;
  :func:`merged_chain_legacy` turns it into one-page pieces of their
  owners' runs and stands in for the whole chain walk.
* :func:`collapse_into_parent_legacy` — the page-at-a-time reversed
  collapse behind ``VMObject.collapse_into_parent``: every page the
  shadow holds replaces the parent's, and every page the shadow evicted
  drops the parent's copy.
* :func:`touch_per_page` — ``VMSpace.touch`` as it ran before write
  faults were resolved a run at a time: every page that is not mapped
  writable goes through ``handle_fault(write=True)`` on its own (a map
  lookup, a chain walk, its own clock charges), then the whole page is
  replaced by a ``Page``.  Same page contents, clean marks, pmap bits,
  ``fault_count``, frame accounting, page-ins and simulated clock after
  any sequence of operations.
* :func:`fill_per_page` — ``VMSpace.fill`` as it ran before dirty
  content was held as runs: one ``Page`` per page, one slab per map
  entry.  With :func:`touch_per_page` it keeps every written synthetic
  page its own one-page run, so flushes, collapses and clean marks run
  page by page.
* :func:`populate_pages_per_page` — the eager half of
  ``GroupRestorer.populate_pages`` as it ran before restored memory was
  held as runs: one clean ``Page`` inserted per restored page.
  :func:`per_page_restore` installs it.
"""

from __future__ import annotations

import contextlib
from itertools import groupby
from typing import Dict, Iterable, Iterator, List, Tuple

import repro.core.shadowing as shadowing_mod
import repro.kernel.vm.vmspace as vmspace_mod
from repro.core import costs
from repro.core.restore import GroupRestorer
from repro.core.runs import clip_run
from repro.errors import InvalidArgument, SegmentationFault
from repro.hw.memory import Page
from repro.kernel.vm.fault import handle_fault
from repro.kernel.vm.vmmap import PROT_WRITE
from repro.kernel.vm.vmobject import VMObject, is_clean, page_run
from repro.kernel.vm.vmspace import VMSpace
from repro.objstore.checkpoint import NO_PAGES
from repro.units import PAGE_SIZE
from tests.content import held_pages, page_runs


class PTE:
    """One translation: writable + dirty bits (legacy representation)."""
    __slots__ = ("writable", "dirty")

    def __init__(self, writable: bool) -> None:
        self.writable = writable
        self.dirty = False


class LegacyPmap:
    """The original dict-of-:class:`PTE` pmap.

    Kept as the executable specification: the hypothesis equivalence
    suite runs random operation sequences against this and the bitmap
    :class:`Pmap` and asserts identical observable state, and the
    ``bench_simscale`` baseline mode installs it to measure the
    pre-columnar wall-clock.
    """

    def __init__(self) -> None:
        self._ptes: Dict[int, PTE] = {}
        self.fault_count = 0
        self.wp_downgrades = 0

    def enter(self, va_page: int, writable: bool) -> None:
        """Install a translation (overwrites any existing one)."""
        self._ptes[va_page] = PTE(writable)

    def enter_range(self, start_page: int, npages: int, writable: bool,
                    dirty: bool = False) -> None:
        """Per-page equivalent of the bitmap bulk install."""
        for va_page in range(start_page, start_page + npages):
            pte = PTE(writable)
            pte.dirty = dirty
            self._ptes[va_page] = pte

    def remove(self, va_page: int) -> None:
        """Invalidate one translation."""
        self._ptes.pop(va_page, None)

    def remove_range(self, start_page: int, npages: int) -> None:
        """Invalidate a contiguous range of translations."""
        for va_page in range(start_page, start_page + npages):
            self._ptes.pop(va_page, None)

    def is_mapped(self, va_page: int) -> bool:
        """True when a translation exists for the page."""
        return va_page in self._ptes

    def is_writable(self, va_page: int) -> bool:
        """True when the page is mapped writable."""
        pte = self._ptes.get(va_page)
        return pte is not None and pte.writable

    def mark_dirty(self, va_page: int) -> None:
        """Set the dirty bit (a store hit the page)."""
        pte = self._ptes.get(va_page)
        if pte is None:
            raise SegmentationFault(
                f"mark_dirty on unmapped page {va_page:#x}: no PTE "
                f"installed (enter() the translation first)")
        pte.dirty = True

    def mark_dirty_range(self, start_page: int, npages: int) -> None:
        """:meth:`mark_dirty` per page."""
        for va_page in range(start_page, start_page + npages):
            self.mark_dirty(va_page)

    def writable_runs(self, start_page: int,
                      npages: int) -> Iterator[Tuple[int, int, bool]]:
        """Per-page scan producing the same runs as the bitmap pmap."""
        for writable, run in groupby(range(start_page, start_page + npages),
                                     key=self.is_writable):
            pages = list(run)
            yield pages[0], len(pages), writable

    def write_protect_range(self, start_page: int, npages: int) -> int:
        """Downgrade writable PTEs in a range to read-only."""
        downgraded = 0
        if npages <= 0:
            return 0
        # Iterate whichever side is smaller: the range or the PTE set.
        if npages <= len(self._ptes):
            candidates: Iterable[int] = range(start_page, start_page + npages)
        else:
            candidates = [va for va in self._ptes
                          if start_page <= va < start_page + npages]
        for va_page in candidates:
            pte = self._ptes.get(va_page)
            if pte is not None and pte.writable:
                pte.writable = False
                pte.dirty = False
                downgraded += 1
        self.wp_downgrades += downgraded
        return downgraded

    def resident_pages(self) -> int:
        """Number of installed translations."""
        return len(self._ptes)

    def dirty_pages(self) -> List[int]:
        """Virtual pages whose dirty bit is set (ascending)."""
        return sorted(va for va, pte in self._ptes.items() if pte.dirty)

    def collect_dirty(self, start_page: int,
                      npages: int) -> Iterator[Tuple[int, int]]:
        """Per-page scan producing the same runs as the bitmap pmap."""
        run_start = -1
        run_len = 0
        for va_page in range(start_page, start_page + npages):
            pte = self._ptes.get(va_page)
            if pte is not None and pte.dirty:
                if run_len and run_start + run_len == va_page:
                    run_len += 1
                else:
                    if run_len:
                        yield run_start, run_len
                    run_start, run_len = va_page, 1
        if run_len:
            yield run_start, run_len

    def clear(self) -> None:
        """Drop every translation (address space teardown)."""
        self._ptes.clear()


def _segment_legacy(top: VMObject) -> Iterator[VMObject]:
    """``top``'s chain segment, newest first."""
    for obj in top.chain():
        if obj is not top and obj.sls_oid not in (None, top.sls_oid):
            break
        if obj.backing_offset != 0:
            raise InvalidArgument("system shadowing assumes offset-0 chains")
        yield obj


def merged_chain_pages_legacy(top: VMObject) -> Dict[int, Page]:
    """The original top-down per-page ``setdefault`` merge.

    Executable specification for the equivalence property suite and
    the scale benchmark's pre-columnar baseline.
    """
    pages: Dict[int, Page] = {}
    for obj in _segment_legacy(top):
        for pindex, page in held_pages(obj).items():
            pages.setdefault(pindex, page)
    return pages


def merged_chain_legacy(top: VMObject, dirty_only: bool = False):
    """``shadowing.merged_chain`` on the per-page original: every page
    :func:`merged_chain_pages_legacy` merged is its own one-page piece
    of the newest object's runs that holds it (only a dirty one, with
    ``dirty_only``).  Evicted pages are not modelled: nothing run under
    :func:`legacy_hot_path` evicts."""
    unclaimed = merged_chain_pages_legacy(top)
    sources = []
    for obj in _segment_legacy(top):
        pieces = [clip_run(run, pindex, pindex + 1) for run in obj.content()
                  for pindex in range(run[1], run[1] + run[2])
                  if unclaimed.pop(pindex, None) is not None
                  and not (dirty_only and is_clean(run))]
        if pieces:
            sources.append((obj, pieces))
    return sources


def collapse_into_parent_legacy(self) -> Tuple["VMObject", int]:
    """The original page-at-a-time reversed collapse.

    Executable specification for the equivalence property suite
    and the scale benchmark's pre-columnar baseline; behavior must
    match :meth:`collapse_into_parent` observationally.
    """
    parent = self.backing
    if parent is None:
        raise InvalidArgument("no backing object to collapse into")
    if self.backing_offset != 0:
        raise InvalidArgument("system shadows always use offset 0")
    parent.ref()
    pageout = self.kernel.pageout
    was_frozen = parent.frozen
    parent.frozen = False
    moved = 0
    for run in self.content():
        for pindex in range(run[1], run[1] + run[2]):
            parent.remove(pindex, pindex + 1)
            parent.insert([clip_run(run, pindex, pindex + 1)])
            self.remove(pindex, pindex + 1)
            moved += 1
    for run in pageout.evicted.get(self.kid, ()):
        for pindex in range(run[1], run[1] + run[2]):
            parent.remove(pindex, pindex + 1)
    parent.frozen = was_frozen
    pageout.migrate_object(parent.kid, self, parent.kid)
    self._detach_backing()
    return parent, moved


@contextlib.contextmanager
def legacy_hot_path() -> Iterator[None]:
    """Run the block on the per-page originals: address spaces created
    inside get a :class:`LegacyPmap`, ``fill`` and ``touch`` build one
    ``Page`` per page, full-checkpoint merges and reversed collapses go
    through the ``*_legacy`` functions.  Simulated costs are identical
    either way; only wall-clock differs."""
    saved = (vmspace_mod.Pmap, shadowing_mod.merged_chain,
             VMObject.collapse_into_parent, VMSpace.fill, VMSpace.touch)
    vmspace_mod.Pmap = LegacyPmap
    shadowing_mod.merged_chain = merged_chain_legacy
    VMObject.collapse_into_parent = collapse_into_parent_legacy
    VMSpace.fill, VMSpace.touch = fill_per_page, touch_per_page
    try:
        yield
    finally:
        (vmspace_mod.Pmap, shadowing_mod.merged_chain,
         VMObject.collapse_into_parent, VMSpace.fill, VMSpace.touch) = saved


def fill_per_page(space, addr: int, npages: int, seed: int) -> None:
    """Populate ``npages`` with one synthetic ``Page`` each, one slab
    and one bitmap range-enter per map entry."""
    start_page = addr // PAGE_SIZE
    end_page = start_page + npages
    va_page = start_page
    while va_page < end_page:
        entry = space.map.lookup(va_page)
        if entry is None:
            raise SegmentationFault(f"fill outside mapping: {va_page:#x}")
        stretch = min(end_page, entry.end_page) - va_page
        base_pindex = entry.pindex_of(va_page)
        base_seed = seed + (va_page - start_page)
        entry.vmobject.insert(page_runs({
            base_pindex + i: Page(seed=base_seed + i)
            for i in range(stretch)}))
        space.pmap.enter_range(
            va_page, stretch, dirty=True,
            writable=bool(entry.protection & PROT_WRITE)
            and not entry.needs_copy)
        va_page += stretch


def touch_per_page(space, addr: int, npages: int, seed: int) -> int:
    """Dirty ``npages`` from ``addr`` one page at a time; returns the
    number of faults taken."""
    start_page = addr // PAGE_SIZE
    faults_before = space.pmap.fault_count
    entry = None
    for i in range(npages):
        va_page = start_page + i
        if entry is None or not entry.contains(va_page):
            entry = space.map.lookup(va_page)
        if space.pmap.is_writable(va_page):
            space.pmap.mark_dirty(va_page)
        else:
            handle_fault(space, va_page, write=True)
        # The fault may have repointed the entry to a fresh COW shadow;
        # the entry object itself is stable.
        pindex = entry.pindex_of(va_page)
        entry.vmobject.insert([page_run(pindex, Page(seed=seed + i))])
    return space.pmap.fault_count - faults_before


_populate_pages = GroupRestorer.populate_pages


def populate_pages_per_page(self, obj: VMObject, oid: int,
                            lazy: bool) -> None:
    """Eager restore one page at a time: every page is fetched through
    its own locator, a one-page run, and inserted as a clean ``Page``.
    The charges, and their order against the device reads, are the
    production path's."""
    if lazy:
        _populate_pages(self, obj, oid, lazy)
        return
    clock = self.kernel.clock
    start = clock.now()
    for run in self.page_locs.get(oid, NO_PAGES).runs:
        for pindex in range(run[1], run[1] + run[2]):
            locator = clip_run(run, pindex, pindex + 1)
            page = self.store.fetch_page(locator)
            obj.insert([page_run(pindex, page, locator)])
        clock.advance(costs.RESTORE_PAGE_INSERT * run[2])
        self.pages_restored += run[2]
    self.insert_ns += clock.now() - start


@contextlib.contextmanager
def per_page_restore() -> Iterator[None]:
    """Run the block with :func:`populate_pages_per_page` installed."""
    GroupRestorer.populate_pages = populate_pages_per_page
    try:
        yield
    finally:
        GroupRestorer.populate_pages = _populate_pages
