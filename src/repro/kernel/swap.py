"""The pageout daemon, unified with the object store (§6 "Memory
Overcommitment").

Aurora subsumes swap: a page already captured by a checkpoint is
*clean* — its exact content is addressable in the store — and can be
evicted without IO; a dirty page leaves through the store's checkpoint
data path rather than a separate swap partition.  On fault, the most
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

Cleanliness lives on the VM object's run (see
:mod:`~repro.kernel.vm.vmobject`), and only a disk flip sets it.  The
candidate scan walks each object's runs in index order and builds no
``Page``; one loop evicts clean runs, then dirty ones.  A clean run goes
into ``evicted`` as its locator — a real page's, a synthetic run as it
is.  A dirty eviction is a deferred flush: the run keeps its dirty bit
(:func:`is_dirty`), a synthetic one needs no IO, and the pass writes its
real pages in one batch (:meth:`ObjectStore.swap_out`) as dirty
``"ext"`` runs.  The next disk flush stages them with the object's
resident dirty content, adopting their extents, and its flip marks them
clean (:meth:`PageoutDaemon.mark_clean`); a pass frees the extents no
dirty run points into any more.

``madvise`` hints bias the eviction policy, and lazy restores reuse
the same page-in path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..core import costs
from ..core.runs import (LocatorRun, append_locator_run, bare_spans,
                         clip_run, run_at, run_start, runs_within, splice)
from ..errors import InvalidArgument
from ..units import PAGE_SIZE
from .vm.vmobject import ANONYMOUS, VMObject, is_clean, page_run

#: A VM object and a piece of one of its runs.
_Candidate = Tuple[VMObject, LocatorRun]

#: madvise hints the policy understands.
MADV_NORMAL = "normal"
MADV_DONTNEED = "dontneed"
MADV_WILLNEED = "willneed"


def is_dirty(run: LocatorRun) -> bool:
    """Whether an evicted run is content no checkpoint holds yet: it
    carries a set flag past its locator fields."""
    return len(run) > (5 if run[0] == "syn" else 6) and run[-1] is True


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

    def mark_clean(self, kid: int, pieces: Sequence[LocatorRun]) -> None:
        """The flip made ``pieces`` durable: object ``kid``'s dirty
        evicted runs that are still those pieces become clean.  A run
        cut out since (a page-in) stays cut, and one evicted over it
        since stays dirty."""
        runs = self.evicted[kid]
        clean = [tuple(run[:-1]) for piece in pieces
                 for run in runs_within(runs, piece[1], piece[1] + piece[2])
                 if is_dirty(run) and tuple(run) == clip_run(
                     piece, run[1], run[1] + run[2])]
        if clean:
            self.evicted[kid] = splice(runs, clean)[0]

    # -- eviction -------------------------------------------------------------------

    def memory_pressure(self) -> bool:
        """True above the high watermark (eviction needed)."""
        return self.kernel.physmem.usage_ratio() > self.HIGH_WATERMARK

    def _eviction_candidates(self, objects: List[VMObject]
                             ) -> Tuple[List[_Candidate], List[_Candidate]]:
        """Clean runs first (free to evict), DONTNEED pages first of
        all; then the dirty runs of anonymous objects (a file's dirty
        pages wait for its file system)."""
        clean_hinted: List[_Candidate] = []
        clean_plain: List[_Candidate] = []
        dirty: List[_Candidate] = []
        # Chains share objects (a fork's COW shadows, shared memory):
        # each is scanned once.
        for obj in {obj.kid: obj for obj in objects}.values():
            # Index order: the same candidates whatever order the
            # content arrived in.
            clean: List[LocatorRun] = []
            for run in obj.content():
                if is_clean(run):
                    # Evictable even in a frozen shadow: content is
                    # marked clean only once the flip is durable.
                    clean.append(run)
                elif not obj.frozen and obj.kind == ANONYMOUS:
                    # Dirty content of a frozen shadow is mid-flush and
                    # about to become clean; leave it alone.
                    dirty.append((obj, run))
            dontneed = sorted(pindex for pindex, hint
                              in self.hints.get(obj.kid, {}).items()
                              if hint == MADV_DONTNEED)
            clean_hinted += ((obj, piece) for pindex in dontneed
                             for piece in runs_within(clean, pindex,
                                                      pindex + 1))
            clean_plain += ((obj, run) for run in splice(
                clean, [(None, pindex, 1) for pindex in dontneed])[0])
        return clean_hinted + clean_plain, dirty

    def run_pageout(self, objects: List[VMObject], store: Any = None) -> int:
        """Evict pages until below the low watermark; returns count.

        One loop takes the candidates in order, a stretch at a time:
        clean runs, then — given the ``store`` — dirty ones.  The real
        pages among the dirty ones are written in one batch at the end
        and evicted only once it has landed.  Each object's evictions
        are spliced in once — also when that batch fails
        (``StoreFull``): the pages evicted before it keep their
        records, and its pages stay resident."""
        physmem = self.kernel.physmem
        if not self.memory_pressure():
            return 0
        if store is not None and store.swap_extents:
            store.release_swap({run[3] for runs in self.evicted.values()
                                for run in runs
                                if run[0] == "ext" and is_dirty(run)})
        target = int(physmem.total_frames * self.LOW_WATERMARK)
        #: kid -> (clean pieces, dirty pieces)
        gone: Dict[int, Tuple[List[LocatorRun], List[LocatorRun]]] = {}
        #: Dirty real pages for the batch, with their objects.
        real: List[_Candidate] = []
        clean, dirty = self._eviction_candidates(objects)
        try:
            for obj, run in clean + dirty if store is not None else clean:
                # A stretch at a time, as long as the frames still to
                # free: the pages one-page evictions would take.
                lo, end = run[1], run[1] + run[2]
                while lo < end and physmem.used_frames - len(real) > target:
                    hi = min(end, lo + physmem.used_frames - len(real)
                             - target)
                    if run[0] == "page" and run[4] is None:
                        real.append((obj, run))
                    else:
                        pieces = gone.setdefault(obj.kid, ([], []))
                        if is_clean(run):
                            pieces[0].append(clip_run(run, lo, hi)
                                             if run[0] == "syn"
                                             else ("ext", lo, 1, *run[4][3:]))
                            self.evictions_clean += hi - lo
                        else:
                            pieces[1].append(clip_run(run, lo, hi))
                            self.evictions_dirty += hi - lo
                        obj.remove(lo, hi)
                    lo = hi
            if real:
                slots = store.swap_out([(obj.kid, run[3])
                                        for obj, run in real])
                for (obj, run), (extent, offset) in zip(real, slots):
                    gone.setdefault(obj.kid, ([], []))[1].append(
                        ("ext", run[1], 1, extent, offset, PAGE_SIZE, True))
                    obj.remove(run[1], run[1] + 1)
                self.evictions_dirty += len(real)
        finally:
            for kid, (cleaned, dirtied) in gone.items():
                runs: List[Any] = []
                for piece in sorted(cleaned, key=run_start):
                    append_locator_run(runs, piece)
                runs = splice(runs, sorted(dirtied, key=run_start))[0]
                self.evicted[kid] = splice(self.evicted.get(kid, ()),
                                           runs)[0]
        return sum(piece[2] for cleaned, dirtied in gone.values()
                   for piece in (*cleaned, *dirtied))

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
            runs = splice(older, sorted([*bare_spans(newer.content()),
                                         *runs], key=run_start))[0]
        if runs:
            self.evicted[home_kid] = runs
        return newest

    def forget(self, kid: int, runs: Sequence[LocatorRun]) -> None:
        """Object ``kid`` gained content ``runs``: what it evicted there
        is superseded."""
        if kid in self.evicted:
            left = splice(self.evicted.pop(kid), bare_spans(runs))[0]
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
        self.kernel.clock.advance(costs.LAZY_FAULT_PER_PAGE)
        # The copy is as clean as its evicted run was, and may go back
        # into a frozen shadow: it is the content the freeze protected.
        vmobject.insert((page_run(pindex, page,
                                  None if is_dirty(run) else locator),))
        self.pageins += 1
