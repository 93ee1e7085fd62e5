"""Reference model for ``VMSpace.touch``: one write fault per page.

This is the loop ``touch`` ran before write faults were resolved a run
at a time — every page that is not mapped writable goes through
``handle_fault(write=True)`` on its own (a map lookup, a chain walk,
its own clock charges), then the whole page is replaced.  It is the
executable specification the run-wise path is held against: same page
contents, pmap bits, ``fault_count``, frame accounting, page-ins and
simulated clock after any sequence of operations.
"""

from __future__ import annotations

from repro.hw.memory import Page
from repro.kernel.vm.fault import handle_fault
from repro.units import PAGE_SIZE


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
            pindex = entry.pindex_of(va_page)
            if pindex in entry.vmobject.pages:
                entry.vmobject.pages[pindex] = Page(seed=seed + i)
            else:
                entry.vmobject.insert_page(pindex, Page(seed=seed + i))
            space.pmap.mark_dirty(va_page)
        else:
            handle_fault(space, va_page, write=True)
            # The fault may have repointed the entry to a fresh COW
            # shadow; the entry object itself is stable.
            pindex = entry.pindex_of(va_page)
            entry.vmobject.pages[pindex] = Page(seed=seed + i)
    return space.pmap.fault_count - faults_before
