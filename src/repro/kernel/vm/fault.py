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
(over index ranges, not indexes) instead of once per page, the private
copies go in as one insert of dirty runs — or, for ``touch``, the
content it stores as one dirty run — the PTEs as one range and the
clock advances once by the summed cost.
``SimClock.advance`` is purely additive, so the end state — contents,
pmap bits, ``fault_count``, frame accounting, the clock — is that of one
fault per page; :func:`handle_fault` ``(write=True)`` is the one-page call.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Mapping, Optional, Sequence, Tuple

from ...core import costs
from ...core.runs import LocatorRun, run_start, runs_within
from ...errors import SegmentationFault
from ...hw.memory import Page
from .vmmap import PROT_READ, PROT_WRITE, VMMapEntry
from .vmobject import VMObject, page_run

#: A stretch ``(lo, hi)`` of page indexes.
Span = Tuple[int, int]


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
        return entry.vmobject.page_at(entry.pindex_of(va_page))
    if not entry.protection & PROT_READ:
        raise SegmentationFault(f"read to page {va_page:#x} violates protection")

    space.pmap.fault_count += 1
    pindex = entry.pindex_of(va_page)
    vmobject = entry.vmobject
    for _pindex, holder, index in _only_in_store(kernel, vmobject, pindex,
                                                 pindex + 1):
        # Lazy restore / swap: the page lives only in the object store
        # (§6 "Memory Overcommitment" + lazy restores).
        kernel.pageout.page_in(holder, index, kernel.sls.store)
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
                        install: Optional[LocatorRun] = None) -> None:
    """Resolve write faults on ``npages`` consecutive pages of ``entry``
    from ``va_start``, none of them mapped writable: every page ends up
    privately writable (and dirty) in the top object of the chain.

    Per page the charge is a single fault's: ``SOFT_FAULT`` in the top
    object, ``depth × SHADOW_CHAIN_HOP + COW_FAULT`` copied up from
    ``depth`` below, ``chain_length × HOP + SOFT_FAULT`` for a zero-fill.

    ``install`` is the synthetic run ``("syn", first pindex, npages,
    seed0, step)`` a caller replacing whole pages is about to store over
    them: it goes in as one dirty run instead of the COW copies and
    zero-fill pages, which would be garbage as soon as they were built.
    The charges are the same.  Without it a synthetic stretch is copied
    as a dirty run, and a real page or a zero-fill as a ``Page``.
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
    private: List[LocatorRun] = []
    wanted = private if install is None else None
    lo = first
    for pindex, holder, index in _only_in_store(kernel, top, first, end):
        kernel.clock.advance(_resolve(top, lo, pindex, wanted))
        kernel.pageout.page_in(holder, index, kernel.sls.store)
        lo = pindex
    kernel.clock.advance(_resolve(top, lo, end, wanted))
    top.insert(sorted(private, key=run_start) if install is None
               else ((*install, True),))
    space.pmap.enter_range(va_start, npages, writable=True, dirty=True)


def _only_in_store(kernel: Any, top: VMObject, first: int,
                   end: int) -> List[Tuple[int, VMObject, int]]:
    """The pages of ``[first, end)`` that live only in the store,
    ascending, as ``(index in top, evicting object, index there)``."""
    evicted = kernel.pageout.evicted     # empty: nothing to look for
    if not evicted or kernel.sls is None or not any(
            obj.kid in evicted for obj in top.chain()):
        return []
    # One entry per index of top: no ties.
    return sorted((p - shift, obj, p) for obj, _depth, shift, _held, gone
                  in _walk(top, first, end, evicted)
                  for lo, hi in gone for p in range(lo, hi))


def _resolve(top: VMObject, first: int, end: int,
             private: Optional[List[LocatorRun]]) -> int:
    """The summed charge for write faults on pages ``[first, end)`` of
    ``top``, each resident somewhere in its chain or zero-fill (none
    lives only in the store, so the walk skips evicted runs).  The COW
    copies and zero-fill pages ``top`` needs are added to ``private``
    when given, as dirty runs in ``top``'s indexes; only the hits are
    copied.
    """
    cost = 0
    for obj, depth, shift, held, _gone in _walk(top, first, end, {}):
        if not held:
            continue
        if obj is None:
            # Found nowhere: zero-fill, after hopping the whole chain.
            each = depth * costs.SHADOW_CHAIN_HOP + costs.SOFT_FAULT
        else:
            each = (depth * costs.SHADOW_CHAIN_HOP + costs.COW_FAULT
                    if depth else costs.SOFT_FAULT)
        cost += sum(hi - lo for lo, hi in held) * each
        if depth and private is not None:
            for lo, hi in held:
                if obj is None:
                    private += (page_run(p - shift, Page(data=b""))
                                for p in range(lo, hi))
                    continue
                for run in obj.content(lo, hi):
                    private.append(
                        ("syn", run[1] - shift, *run[2:5], True)
                        if run[0] == "syn"
                        else page_run(run[1] - shift, run[3].copy()))
    return cost


def _walk(top: VMObject, first: int, end: int,
          evicted: Mapping[int, Sequence[LocatorRun]]
          ) -> Iterator[Tuple[Optional[VMObject], int, int, List[Span],
                              List[Span]]]:
    """Walk ``top``'s shadow chain once over its pages ``[first, end)``,
    over index ranges, never page by page.  Yields ``(obj, depth, shift,
    held, gone)`` for each object reached: the stretches of the pages
    still pending that ``obj`` holds (:meth:`VMObject.holding`) and that
    it has evicted (``runs_within`` its ``evicted`` runs), in its own
    indexes, ``shift`` above ``top``'s.  Then ``(None, depth, shift,
    pending, [])`` for the pages no object holds.  The first object
    holding an index, resident or evicted, decides it."""
    pending = [(first, end)]
    depth = shift = 0
    obj: Optional[VMObject] = top
    while obj is not None and pending:
        held = obj.holding(pending)
        runs = evicted.get(obj.kid)
        gone = [(run[1], run[1] + run[2]) for lo, hi in pending
                for run in runs_within(runs, lo, hi)] if runs else []
        yield obj, depth, shift, held, gone
        if gone:
            pending = _minus(pending, sorted(held + gone))
        elif held:
            pending = _minus(pending, held)
        if obj.backing_offset:
            shift += obj.backing_offset
            pending = [(lo + obj.backing_offset, hi + obj.backing_offset)
                       for lo, hi in pending]
        obj = obj.backing
        depth += 1
    yield None, depth, shift, pending, []


def _minus(spans: List[Span], holes: List[Span]) -> List[Span]:
    """``spans`` without ``holes`` (both sorted ``(lo, hi)`` lists,
    every hole inside a span)."""
    out: List[Span] = []
    at = 0
    for lo, hi in spans:
        while at < len(holes) and holes[at][0] < hi:
            if holes[at][0] > lo:
                out.append((lo, holes[at][0]))
            lo = holes[at][1]
            at += 1
        if lo < hi:
            out.append((lo, hi))
    return out
