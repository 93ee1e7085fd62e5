"""The pageout daemon, unified with the object store (§6 "Memory
Overcommitment").

Aurora subsumes swap: a page already captured by a checkpoint is
*clean* — its exact content is addressable in the store — and can be
evicted without IO; dirty pages are flushed through the store's data
path (into the next checkpoint's space) rather than to a separate swap
partition whose metadata would be lost on crash.  On fault, the most
recent version is paged back in from the store.

Cleanliness lives on the :class:`~repro.hw.memory.Page` itself
(``clean_locator``, marked by the flush path): pages are immutable
and replaced on write, so a stale marker is impossible, and the marker
survives system-shadow collapses moving the page between VM objects.
A real page's marker is its locator in a packed extent.  Every clean
synthetic page shares one marker,
:data:`~repro.hw.memory.SYNTHETIC_CLEAN`: its locator is a function of
its own seed, so eviction derives it instead of the flush storing one
per page.

``madvise`` hints bias the eviction policy, and lazy restores reuse
the same page-in path.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import costs
from ..errors import InvalidArgument
from ..hw.memory import SYNTHETIC_CLEAN
from ..objstore.checkpoint import PageLocator
from .vm.vmobject import VMObject

#: madvise hints the policy understands.
MADV_NORMAL = "normal"
MADV_DONTNEED = "dontneed"
MADV_WILLNEED = "willneed"


class PageoutDaemon:
    """Evicts pages under memory pressure via the object store."""

    #: Start evicting above this usage ratio.
    HIGH_WATERMARK = 0.90
    #: Evict down to this ratio.
    LOW_WATERMARK = 0.85

    def __init__(self, kernel):
        self.kernel = kernel
        #: object kid -> {pindex -> store locator} for evicted pages;
        #: no entry for an object with none.  Per object, so a collapse
        #: moves its records with one pop and the write-fault path's
        #: "has this chain object any evicted page" is O(1).
        self.evicted: Dict[int, Dict[int, object]] = {}
        #: madvise hints: object kid -> {pindex -> hint}.
        self.hints: Dict[int, Dict[int, str]] = {}
        self.evictions_clean = 0
        self.evictions_dirty = 0
        self.pageins = 0

    # -- bookkeeping --------------------------------------------------------------

    def madvise(self, vmobject: VMObject, pindex: int, hint: str) -> None:
        """Record an eviction-policy hint for one page."""
        if hint not in (MADV_NORMAL, MADV_DONTNEED, MADV_WILLNEED):
            raise InvalidArgument(f"bad madvise hint {hint}")
        self.hints.setdefault(vmobject.kid, {})[pindex] = hint

    # -- eviction -------------------------------------------------------------------

    def memory_pressure(self) -> bool:
        """True above the high watermark (eviction needed)."""
        return self.kernel.physmem.usage_ratio() > self.HIGH_WATERMARK

    def _eviction_candidates(self, objects: List[VMObject]):
        """Clean pages first (free to evict), DONTNEED pages first of
        all; dirty pages only under sustained pressure."""
        clean_hinted, clean_plain, dirty = [], [], []
        for obj in objects:
            hints = self.hints.get(obj.kid, {})
            for pindex, page in list(obj.pages.items()):
                if page.clean_locator is not None:
                    # Clean pages are evictable even in a frozen shadow
                    # (the marker is only stamped once the extent is
                    # durable).
                    if hints.get(pindex) == MADV_DONTNEED:
                        clean_hinted.append((obj, pindex, page))
                    else:
                        clean_plain.append((obj, pindex, page))
                elif not obj.frozen:
                    # Dirty pages of a frozen shadow are mid-flush and
                    # about to become clean; leave them alone.
                    dirty.append((obj, pindex, page))
        return clean_hinted + clean_plain, dirty

    def run_pageout(self, objects: List[VMObject], store=None) -> int:
        """Evict pages until below the low watermark; returns count."""
        physmem = self.kernel.physmem
        if not self.memory_pressure():
            return 0
        target = int(physmem.total_frames * self.LOW_WATERMARK)
        evicted = 0
        clean, dirty = self._eviction_candidates(objects)
        for obj, pindex, page in clean:
            if physmem.used_frames <= target:
                break
            obj.remove_page(pindex)
            locator = page.clean_locator
            if locator is SYNTHETIC_CLEAN:
                locator = PageLocator.synthetic(page.seed)
            self.evicted.setdefault(obj.kid, {})[pindex] = locator
            self.evictions_clean += 1
            evicted += 1
        if physmem.used_frames > target and store is not None:
            # Sustained pressure: flush dirty pages through the store's
            # unified data path, then evict them.
            for obj, pindex, page in dirty:
                if physmem.used_frames <= target:
                    break
                locator = store.stage_swap_page(obj, pindex, page)
                obj.remove_page(pindex)
                self.evicted.setdefault(obj.kid, {})[pindex] = locator
                self.evictions_dirty += 1
                evicted += 1
        return evicted

    def migrate_object(self, old_kid: int, new_kid: int) -> int:
        """A collapse moved an object's pages into another object:
        evicted-page records must follow, or their content would be
        unreachable after the old object is destroyed."""
        moved = self.evicted.pop(old_kid, None)
        if not moved:
            return 0
        target = self.evicted.setdefault(new_kid, {})
        for pindex, locator in moved.items():
            # A record the new home already holds wins, as its page would.
            target.setdefault(pindex, locator)
        return len(moved)

    # -- page-in --------------------------------------------------------------------

    def is_evicted(self, vmobject: VMObject, pindex: int) -> bool:
        """True when the page's content lives only in the store."""
        return pindex in self.evicted.get(vmobject.kid, ())

    def page_in(self, vmobject: VMObject, pindex: int, store) -> None:
        """Fault path: retrieve the most recent version from the store."""
        records = self.evicted.get(vmobject.kid, {})
        locator = records.pop(pindex, None)
        if locator is None:
            raise InvalidArgument(
                f"page {(vmobject.kid, pindex)} was not evicted")
        if not records:
            del self.evicted[vmobject.kid]
        page = store.fetch_page(locator)
        # A fresh copy is clean by definition.
        page.clean_locator = SYNTHETIC_CLEAN if page.synthetic else locator
        self.kernel.clock.advance(costs.LAZY_FAULT_PER_PAGE)
        # Paging back into a frozen shadow is safe: the content is the
        # exact durable copy the freeze protected.
        was_frozen = vmobject.frozen
        vmobject.frozen = False
        try:
            vmobject.insert_page(pindex, page)
        finally:
            vmobject.frozen = was_frozen
        self.pageins += 1
