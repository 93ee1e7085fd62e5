"""The pageout daemon, unified with the object store (§6 "Memory
Overcommitment").

Aurora subsumes swap: a page already captured by a checkpoint is
*clean* — its exact content is addressable in the store — and can be
evicted without IO; dirty pages are flushed through the store's data
path rather than to a separate swap partition.  On fault, the most
recent version is paged back in from the store.

An evicted page is addressed by its locator, and a locator is the
store's own run (:mod:`repro.core.runs`), one page's a one-page run.
Each VM object's evicted pages are one sorted, disjoint run list, clear
of what the object holds (:attr:`PageoutDaemon.evicted`): a lazy
restore registers the merged locator table's runs as they are, an
eviction pass splices each object's evictions in once, and content the
object gains there — a page-in, a write — cuts them out.  Walking a
shadow chain top-down, the first object holding an index, resident or
evicted, decides what a reader sees (:meth:`VMObject.lookup_page`); a
collapse moves evicted runs newest-wins with the content.

Cleanliness lives on the :class:`~repro.hw.memory.Page` itself
(``clean_locator``, marked by the flush path, an eager restore or a
page-in): pages are immutable and replaced on write, so a stale marker
is impossible, and it survives collapses moving the page between VM
objects.  A real page's marker is its one-page ``"ext"`` run; every
clean synthetic page shares :data:`~repro.hw.memory.SYNTHETIC_CLEAN`,
its locator being a function of its seed.  Synthetic content held as a
run (see :mod:`~repro.kernel.vm.vmobject`) is clean or dirty as a
whole; the candidate scan builds its pages (:meth:`VMObject.all_pages`),
a clean one is evicted without IO, a dirty one goes through
:meth:`ObjectStore.stage_swap_page`, and either is cut out of its run.

``madvise`` hints bias the eviction policy, and lazy restores reuse
the same page-in path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..core import costs
from ..core.runs import (LocatorRun, append_locator_run, clip_run,
                         content_spans, run_at, run_start, splice)
from ..errors import InvalidArgument
from ..hw.memory import SYNTHETIC_CLEAN, Page
from .vm.vmobject import VMObject

_Candidate = Tuple[VMObject, int, Page]

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

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        #: object kid -> the locator runs of its evicted pages (sorted,
        #: disjoint, clear of what the object holds); no entry for an
        #: object with none, so the fault path's "has this chain object
        #: any evicted page" is O(1).
        self.evicted: Dict[int, List[LocatorRun]] = {}
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

    def _eviction_candidates(self, objects: List[VMObject]
                             ) -> Tuple[List[_Candidate], List[_Candidate]]:
        """Clean pages first (free to evict), DONTNEED pages first of
        all; dirty pages only under sustained pressure."""
        clean_hinted: List[_Candidate] = []
        clean_plain: List[_Candidate] = []
        dirty: List[_Candidate] = []
        # Chains share objects (a fork's COW shadows, shared memory):
        # each is scanned once.
        for obj in {obj.kid: obj for obj in objects}.values():
            hints = self.hints.get(obj.kid, {})
            # Index order: the same candidates however the object holds
            # its content (pages, runs) and whatever order it arrived in.
            for pindex, page in sorted(obj.all_pages().items()):
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

    def run_pageout(self, objects: List[VMObject], store: Any = None) -> int:
        """Evict pages until below the low watermark; returns count.
        Each object's evictions are spliced in once, coalesced — also
        when staging a dirty page fails (``StoreFull``): the pages
        evicted before it keep their records."""
        physmem = self.kernel.physmem
        if not self.memory_pressure():
            return 0
        target = int(physmem.total_frames * self.LOW_WATERMARK)
        gone: Dict[int, List[LocatorRun]] = {}
        clean, dirty = self._eviction_candidates(objects)
        try:
            for obj, pindex, page in clean:
                if physmem.used_frames <= target:
                    break
                obj.remove_page(pindex)
                mark = page.clean_locator
                gone.setdefault(obj.kid, []).append(
                    ("syn", pindex, 1, page.seed, 0)
                    if mark is SYNTHETIC_CLEAN
                    else ("ext", pindex, 1, *mark[3:]))
                self.evictions_clean += 1
            if physmem.used_frames > target and store is not None:
                # Sustained pressure: flush dirty pages through the
                # store's unified data path, then evict them.
                for obj, pindex, page in dirty:
                    if physmem.used_frames <= target:
                        break
                    gone.setdefault(obj.kid, []).append(
                        store.stage_swap_page(obj, pindex, page))
                    obj.remove_page(pindex)
                    self.evictions_dirty += 1
        finally:
            for kid, pieces in gone.items():
                runs: List[Any] = []
                for piece in sorted(pieces, key=run_start):
                    append_locator_run(runs, piece)
                self.evicted[kid] = splice(self.evicted.get(kid, ()),
                                           runs)[0]
        return sum(map(len, gone.values()))

    def migrate_object(self, older_kid: int, newer: VMObject,
                       home_kid: int) -> List[LocatorRun]:
        """A collapse is about to merge an older object's content under
        ``newer``'s into ``home_kid``: their evicted runs go there too in
        one splice, ``newer``'s content (resident or evicted) winning.
        Returns ``newer``'s evicted runs, which older content may not
        cover either."""
        older = self.evicted.pop(older_kid, None)
        newest = runs = self.evicted.pop(newer.kid, [])
        if older:
            runs = splice(older, sorted([*newer.spans(), *runs],
                                        key=run_start))[0]
        if runs:
            self.evicted[home_kid] = runs
        return newest

    def forget(self, kid: int, pages: Iterable[int],
               runs: Sequence[LocatorRun]) -> None:
        """Object ``kid`` gained content at the indexes ``pages`` and
        ``runs``: what it evicted there is superseded (the two never
        overlap)."""
        if kid in self.evicted:
            left = splice(self.evicted.pop(kid),
                          content_spans(pages, runs))[0]
            if left:
                self.evicted[kid] = left

    # -- page-in --------------------------------------------------------------------

    def is_evicted(self, vmobject: VMObject, pindex: int) -> bool:
        """True when the page's content lives only in the store."""
        return run_at(self.evicted.get(vmobject.kid, ()), pindex) is not None

    def page_in(self, vmobject: VMObject, pindex: int, store: Any) -> None:
        """Fault path: retrieve the most recent version from the store.
        Inserting it cuts the page out of the object's evicted runs."""
        run = run_at(self.evicted.get(vmobject.kid, ()), pindex)
        if run is None:
            raise InvalidArgument(
                f"page {(vmobject.kid, pindex)} was not evicted")
        locator = clip_run(run, pindex, pindex + 1)
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
