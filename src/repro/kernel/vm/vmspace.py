"""Per-process address spaces.

A :class:`VMSpace` bundles a :class:`~repro.kernel.vm.vmmap.VMMap`
(the authoritative list of mapped regions) with a
:class:`~repro.kernel.vm.pmap.Pmap` (the ephemeral page-table cache),
exactly as Figure 2 of the paper draws it.  It provides the byte-level
``read``/``write`` interface applications use, the bulk ``touch``
interface benchmarks use to dirty large regions, and ``fork``'s
copy-on-write address space duplication.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ...core import costs
from ...errors import InvalidArgument, SegmentationFault
from ...hw.memory import Page
from ...units import PAGE_SIZE, pages_of
from ..kobject import KObject
from . import fault as fault_mod
from .pmap import Pmap
from .vmmap import (INHERIT_COPY, INHERIT_NONE, PROT_READ, PROT_WRITE, VMMap,
                    VMMapEntry)
from .vmobject import ANONYMOUS, DEVICE, VMObject, page_run


class VMSpace(KObject):
    """One process's address space."""

    obj_type = "vmspace"

    def __init__(self, kernel: Any) -> None:
        super().__init__(kernel)
        self.map = VMMap()
        self.pmap = Pmap()

    # -- mapping management -------------------------------------------------

    def mmap(self, nbytes: int, protection: int = PROT_READ | PROT_WRITE,
             inheritance: str = INHERIT_COPY,
             vmobject: Optional[VMObject] = None, offset_pages: int = 0,
             name: str = "", fixed_page: Optional[int] = None) -> int:
        """Map ``nbytes`` (rounded up to pages); returns the base address.

        Without ``vmobject`` a fresh anonymous object is created.
        Passing an object maps it (shared memory, file mappings).
        """
        npages = pages_of(nbytes)
        if npages == 0:
            raise InvalidArgument("cannot map zero bytes")
        if vmobject is None:
            vmobject = VMObject(self.kernel, npages, kind=ANONYMOUS,
                                name=name or "anon")
            owned = True
        else:
            owned = False
        start_page = fixed_page if fixed_page is not None \
            else self.map.find_space(npages)
        entry = VMMapEntry(start_page, npages, protection, vmobject,
                           offset_pages=offset_pages,
                           inheritance=inheritance, name=name)
        self.map.insert(entry)
        if owned:
            vmobject.unref()  # the entry holds the only reference now
        return start_page * PAGE_SIZE

    def munmap(self, addr: int, nbytes: int) -> None:
        """Unmap entries fully covered by ``[addr, addr + nbytes)``."""
        start_page = addr // PAGE_SIZE
        end_page = start_page + pages_of(nbytes)
        doomed = [e for e in self.map
                  if e.start_page >= start_page and e.end_page <= end_page]
        if not doomed:
            raise InvalidArgument("munmap range covers no complete entry")
        for entry in doomed:
            self.pmap.remove_range(entry.start_page, entry.npages)
            self.map.remove(entry)

    def entry_at(self, addr: int) -> VMMapEntry:
        """The map entry covering ``addr``."""
        entry = self.map.lookup(addr // PAGE_SIZE)
        if entry is None:
            raise SegmentationFault(f"address {addr:#x} not mapped")
        return entry

    # -- byte-level access -----------------------------------------------------

    def _resolve_write(self, va_page: int) -> Tuple[VMObject, int]:
        """Ensure ``va_page`` is writable-mapped and private to the top
        object of its entry; returns that object and the page's index."""
        entry = self.map.lookup(va_page)
        if entry is None:
            raise SegmentationFault(f"no mapping for page {va_page:#x}")
        pindex = entry.pindex_of(va_page)
        if self.pmap.is_writable(va_page) \
                and entry.vmobject.page_at(pindex) is not None:
            self.pmap.mark_dirty(va_page)
        else:
            fault_mod.handle_write_faults(self, entry, va_page, 1)
        return entry.vmobject, pindex

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr`` (may span pages)."""
        offset = 0
        while offset < len(data):
            va_page = (addr + offset) // PAGE_SIZE
            page_off = (addr + offset) % PAGE_SIZE
            chunk = min(len(data) - offset, PAGE_SIZE - page_off)
            vmobject, pindex = self._resolve_write(va_page)
            page = vmobject.page_at(pindex)
            assert page is not None     # _resolve_write made it resident
            content = bytearray(page.realize())
            content[page_off:page_off + chunk] = data[offset:offset + chunk]
            vmobject.insert((page_run(pindex, Page(data=bytes(content))),))
            offset += chunk

    def read(self, addr: int, nbytes: int) -> bytes:
        """Load ``nbytes`` from ``addr`` (may span pages)."""
        out = bytearray()
        offset = 0
        while offset < nbytes:
            va_page = (addr + offset) // PAGE_SIZE
            page_off = (addr + offset) % PAGE_SIZE
            chunk = min(nbytes - offset, PAGE_SIZE - page_off)
            if not self.pmap.is_mapped(va_page):
                page = fault_mod.handle_fault(self, va_page, write=False)
            else:
                entry = self.map.lookup(va_page)
                if entry is None:
                    raise SegmentationFault(f"page {va_page:#x} vanished")
                page = entry.vmobject.visible_page(entry.pindex_of(va_page))
                if page is None:
                    # The PTE is stale: the pageout daemon evicted the
                    # page underneath us.  Take the fault path, which
                    # pages it back in from the store.
                    page = fault_mod.handle_fault(self, va_page,
                                                  write=False)
            content = page.realize() if page is not None else b"\x00" * PAGE_SIZE
            out += content[page_off:page_off + chunk]
            offset += chunk
        return bytes(out)

    # -- bulk benchmark interface -------------------------------------------------

    def fill(self, addr: int, npages: int, seed: int) -> None:
        """Populate ``npages`` with synthetic pages, bypassing faults.

        Setup helper for large benchmark datasets: installs pages
        directly (dirty, as freshly written data would be, and writable
        where the entry is, unless it owes a fork copy) without
        charging per-fault costs.
        """
        start_page = addr // PAGE_SIZE
        end_page = start_page + npages
        va_page = start_page
        # Walk entry by entry so each covered stretch becomes one dirty
        # run plus one bitmap range-enter: no Python object per page.
        while va_page < end_page:
            entry = self.map.lookup(va_page)
            if entry is None:
                raise SegmentationFault(f"fill outside mapping: {va_page:#x}")
            stretch = min(end_page, entry.end_page) - va_page
            entry.vmobject.insert(
                (("syn", entry.pindex_of(va_page), stretch,
                  seed + (va_page - start_page), 1, True),))
            writable = entry.protection & PROT_WRITE and not entry.needs_copy
            self.pmap.enter_range(va_page, stretch, bool(writable), True)
            va_page += stretch

    def touch(self, addr: int, npages: int, seed: int) -> int:
        """Dirty ``npages`` starting at ``addr`` with synthetic writes.

        Takes real write faults (COW copies, chain walks) exactly as an
        application storing to those pages would.  Returns the number
        of faults taken, which benchmarks use to attribute overhead.

        Walks entry by entry and, inside an entry, run by run of equal
        write permission: a run not mapped writable takes one range
        fault (:func:`~repro.kernel.vm.fault.handle_write_faults`), and
        every run's pages go in as one dirty synthetic run and its dirty
        bits as one mask — O(runs), with the charges of one fault per
        page and no ``Page`` built.  An unmapped page or a read-only
        entry raises after the pages before it were dirtied.
        """
        start_page = addr // PAGE_SIZE
        end_page = start_page + npages
        faults_before = self.pmap.fault_count
        va_page = start_page
        while va_page < end_page:
            entry = self.map.lookup(va_page)
            if entry is None:
                raise SegmentationFault(f"no mapping for page {va_page:#x}")
            stretch = min(end_page, entry.end_page) - va_page
            # Materialised first: the faults rewrite the column scanned.
            for run_start, length, writable in list(
                    self.pmap.writable_runs(va_page, stretch)):
                run = ("syn", entry.pindex_of(run_start), length,
                       seed + run_start - start_page, 1)
                if writable:
                    entry.vmobject.insert(((*run, True),))
                    self.pmap.mark_dirty_range(run_start, length)
                else:
                    fault_mod.handle_write_faults(self, entry, run_start,
                                                  length, install=run)
            va_page += stretch
        return self.pmap.fault_count - faults_before

    # -- fork -------------------------------------------------------------------

    def fork(self) -> "VMSpace":
        """Duplicate the address space with classic fork COW semantics.

        Private entries are marked lazy-COW on both sides and the
        parent's writable translations are downgraded (charged per PTE,
        which is what makes Redis's BGSAVE fork cost ≈ 60 ns/page in
        Table 7).  Shared entries alias the same object.
        """
        child = VMSpace(self.kernel)
        downgraded_total = 0
        for entry in self.map:
            if entry.inheritance == INHERIT_NONE:
                continue
            child_entry = VMMapEntry(
                entry.start_page, entry.npages, entry.protection,
                entry.vmobject, offset_pages=entry.offset_pages,
                inheritance=entry.inheritance, name=entry.name)
            child_entry.sls_excluded = entry.sls_excluded
            if entry.inheritance == INHERIT_COPY \
                    and entry.vmobject.kind != DEVICE:
                entry.needs_copy = True
                child_entry.needs_copy = True
                downgraded_total += self.pmap.write_protect_range(
                    entry.start_page, entry.npages)
            child.map.insert(child_entry)
        self.kernel.clock.advance(
            downgraded_total * costs.FORK_COW_SETUP_PER_PAGE)
        return child

    # -- introspection for the orchestrator ------------------------------------

    def writable_objects(self) -> List[VMObject]:
        """Distinct writable, checkpointable objects in this space."""
        seen: Set[int] = set()
        result: List[VMObject] = []
        for entry in self.map:
            if not entry.writable() or entry.sls_excluded:
                continue
            obj = entry.vmobject
            if obj.kind == DEVICE:
                continue
            if obj.kid not in seen:
                seen.add(obj.kid)
                result.append(obj)
        return result

    def entries_by_object(self) -> Dict[int, List[VMMapEntry]]:
        """Map entries grouped by the ``kid`` of the object they
        reference, each group in map order: one scan of the map for a
        pass that repoints many objects."""
        index: Dict[int, List[VMMapEntry]] = {}
        for entry in self.map:
            index.setdefault(entry.vmobject.kid, []).append(entry)
        return index

    def resident_pages(self) -> int:
        """Distinct resident pages visible in this address space."""
        seen: Set[int] = set()
        total = 0
        for entry in self.map:
            for obj in entry.vmobject.chain():
                if obj.kid in seen:
                    continue
                seen.add(obj.kid)
                total += obj.resident_count()
        return total

    def destroy(self) -> None:
        """Tear down the address space (process exit)."""
        for entry in list(self.map):
            self.map.remove(entry)
        self.pmap.clear()
