"""The page fault handler.

Implements the Mach fault algorithm over shadow chains (§6 "The Mach VM
System"): look in the entry's top object first, walk the backing chain
on a miss, and on a write to a page found deeper in the chain (or to a
lazy-COW entry created by ``fork``) copy the page into the top object.

Faults are where system shadowing's runtime overhead comes from —
after every checkpoint the application's dirty pages are read-only and
the first write to each takes the COW path below — so the handler
charges calibrated costs for every hop and copy it performs.

There is one write-fault implementation, :func:`handle_write_faults`,
and it resolves a *run* of pages: the chain is walked once per object
instead of once per page, the private copies go in as one slab, the
PTEs as one range and the clock advances once by the summed cost.
``SimClock.advance`` is purely additive, so the end state — contents,
pmap bits, ``fault_count``, frame accounting, the clock — is that of one
fault per page; :func:`handle_fault` ``(write=True)`` is the one-page call.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...core import costs
from ...errors import SegmentationFault
from ...hw.memory import Page
from .vmmap import PROT_READ, PROT_WRITE, VMMapEntry
from .vmobject import VMObject


def handle_fault(space: Any, va_page: int, write: bool) -> Optional[Page]:
    """Resolve a fault at ``va_page``; returns the resident page.

    Returns ``None`` for a read of a never-written anonymous page (the
    shared zero page in a real kernel).  Raises
    :class:`~repro.errors.SegmentationFault` on unmapped or
    protection-violating access.
    """
    kernel = space.kernel
    entry = space.map.lookup(va_page)
    if entry is None:
        raise SegmentationFault(f"no mapping for page {va_page:#x}")
    if write:
        handle_write_faults(space, entry, va_page, 1)
        return entry.vmobject.pages[entry.pindex_of(va_page)]
    if not entry.protection & PROT_READ:
        raise SegmentationFault(f"read to page {va_page:#x} violates protection")

    space.pmap.fault_count += 1
    pindex = entry.pindex_of(va_page)
    vmobject = entry.vmobject
    for _pindex, holder in _only_in_store(kernel, vmobject, pindex, pindex + 1):
        # Lazy restore / swap: the page lives only in the object store
        # (§6 "Memory Overcommitment" + lazy restores).
        kernel.pageout.page_in(holder, pindex, kernel.sls.store)
    page, depth, owner = vmobject.lookup_page(pindex)
    kernel.clock.advance(depth * costs.SHADOW_CHAIN_HOP + costs.SOFT_FAULT)
    if page is None:
        # Zero-fill read: map nothing, reads observe zeros.
        space.pmap.enter(va_page, writable=False)
        return None
    writable = (depth == 0 and owner is not None and entry.writable()
                and not entry.needs_copy and not owner.frozen)
    space.pmap.enter(va_page, writable=writable)
    return page


def handle_write_faults(space: Any, entry: VMMapEntry, va_start: int,
                        npages: int,
                        install: Optional[Mapping[int, Page]] = None) -> None:
    """Resolve write faults on ``npages`` consecutive pages of ``entry``
    from ``va_start``, none of them mapped writable: every page ends up
    privately writable (and dirty) in the top object of the chain.

    Per page the charge is a single fault's: ``SOFT_FAULT`` in the top
    object, ``depth × SHADOW_CHAIN_HOP + COW_FAULT`` copied up from
    ``depth`` below, ``chain_length × HOP + SOFT_FAULT`` for a zero-fill.

    ``install`` is the slab (object page index → page, the whole run)
    a caller replacing whole pages is about to store over them: it goes
    in instead of the COW copies and zero-fill pages, which would be
    garbage as soon as they were built.  The charges are the same.
    """
    if not entry.protection & PROT_WRITE:
        raise SegmentationFault(
            f"write to page {va_start:#x} violates protection")
    kernel = space.kernel
    space.pmap.fault_count += npages
    if entry.needs_copy:
        # fork()-style lazy COW: give this map its own shadow before
        # the first write lands.
        shadow = entry.vmobject.shadow(name=f"cow:{entry.name}")
        entry.set_object(shadow)
        shadow.unref()  # entry holds the reference now
        entry.needs_copy = False
    top = entry.vmobject
    first = entry.pindex_of(va_start)
    end = first + npages
    # A page resident nowhere in the chain may live only in the object
    # store (lazy restore / swap, §6 "Memory Overcommitment").  Paging
    # it in reads the device *at the current clock* — the one place
    # where order matters — so the pages before it are charged first,
    # as one fault per page would have.  A chain with no evicted page
    # (an O(1) test per object) is charged in one piece.
    private: Dict[int, Page] = {}
    wanted = private if install is None else None
    lo = first
    for pindex, holder in _only_in_store(kernel, top, first, end):
        kernel.clock.advance(_resolve(top, lo, pindex, wanted))
        kernel.pageout.page_in(holder, pindex, kernel.sls.store)
        lo = pindex
    kernel.clock.advance(_resolve(top, lo, end, wanted))
    top.insert_pages(private if install is None else install)
    space.pmap.enter_range(va_start, npages, writable=True, dirty=True)


def _only_in_store(kernel: Any, top: VMObject, first: int,
                   end: int) -> List[Tuple[int, VMObject]]:
    """Pages of ``[first, end)`` no chain object holds but one has
    evicted, ascending, each with the first such object."""
    evicted = kernel.pageout.evicted     # empty: nothing to look for
    holders = [obj for obj in top.chain() if obj.kid in evicted] \
        if evicted and kernel.sls is not None else []
    found: List[Tuple[int, VMObject]] = []
    for pindex in range(first, end) if holders else ():
        holder = next((obj for obj in holders
                       if pindex in evicted[obj.kid]), None)
        if holder is not None and top.lookup_page(pindex)[0] is None:
            found.append((pindex, holder))
    return found


def _resolve(top: VMObject, first: int, end: int,
             private: Optional[Dict[int, Page]]) -> int:
    """The summed charge for write faults on pages ``[first, end)`` of
    ``top``, each resident somewhere in its chain or zero-fill.  The
    chain is walked once per object: the pending indexes are intersected
    with its pages and the misses carried down.  The COW copies and
    zero-fill pages ``top`` needs are added to ``private`` when given.
    """
    pending = set(range(first, end))
    cost = depth = shift = 0
    obj: Optional[VMObject] = top
    while obj is not None and pending:
        pages = obj.pages
        hits = pages.keys() & pending
        if hits:
            cost += len(hits) * (depth * costs.SHADOW_CHAIN_HOP
                                 + costs.COW_FAULT if depth
                                 else costs.SOFT_FAULT)
            if depth and private is not None:
                for p in hits:
                    private[p - shift] = pages[p].copy()
            pending -= hits
        if obj.backing_offset:
            shift += obj.backing_offset
            pending = {p + obj.backing_offset for p in pending}
        obj = obj.backing
        depth += 1
    if pending:
        # Found nowhere: zero-fill, after hopping the whole chain.
        cost += len(pending) * (depth * costs.SHADOW_CHAIN_HOP
                                + costs.SOFT_FAULT)
        if private is not None:
            for p in pending:
                private[p - shift] = Page(data=b"")
    return cost
