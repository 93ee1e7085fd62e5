"""VM objects: mappable page collections with shadow chains.

A VM object is a collection of pages backing one or more map entries
(Figure 2).  Objects know nothing about virtual addresses or
permissions, which is what lets one object appear in several address
spaces (shared memory) and lets *shadow* objects stack on top of a
parent to hold process-private (or, for Aurora, checkpoint-private)
copies of pages.

An object's content is two disjoint parts, and this module alone
decides how they are held:

* ``pages`` — materialised :class:`~repro.hw.memory.Page` values by
  index (real bytes, copies, page-ins);
* synthetic *runs* ``("syn", start, count, seed0, step, dirty)`` — a
  stretch whose page ``start + i`` has seed ``seed0 + step × i``.  A
  run is clean or dirty, as a ``Page`` is: ``fill`` and ``touch``
  insert one dirty run per stretch (:meth:`insert_runs`), an eager
  restore inserts clean ones (the seed progression is its own locator).
  Only objects that hold runs pay for the list; the rest share an
  empty default.

A run's ``Page`` is built only when code needs that page's content,
and is never cached back: a read (:meth:`page_at`, :meth:`lookup_page`),
the copy-up of a write fault that installs no run of its own, a partial
``VMSpace.write``, and :meth:`all_pages` for the paths that are
O(resident) or per-object already — the pageout daemon's candidate
scan, and vnode, shm and SLSFS content.  A page built from a dirty run
is dirty (``clean_locator`` None); one built from a clean run carries
:data:`~repro.hw.memory.SYNTHETIC_CLEAN`.

Runs are *cut* where newer content replaces them — an insert of pages or
runs, an eviction (:meth:`remove_page`), a collapse moving content
between objects — with :func:`~repro.core.runs.splice`, the one edit
every run list in the system goes through: one bisect per cut span and
at most two clips, so an edit costs O(edit), not O(runs held).  A flush
takes an object's content as locator runs (:meth:`content`), and once
the checkpoint that carried them is durable :meth:`mark_clean` turns
the dirty runs under them clean — exactly the pages a per-page flush
would have marked.

Two collapse directions are implemented:

* :meth:`collapse_forward` — the classic Mach/FreeBSD operation that
  moves the **parent's** pages into the shadow (cost proportional to
  the parent's resident count).
* :meth:`collapse_into_parent` — Aurora's reversed operation (§6,
  "Aurora optimizes the collapse operation by reversing its
  direction"): the short-lived system shadow's few pages move into the
  parent, so cost is proportional to the *dirty set* instead of the
  full resident set.  The ablation benchmark contrasts the two.

The reversed collapse moves content as slabs: the shadow's page dict
with one dict update and its runs spliced into the parent's, with one
frame-accounting adjustment — the newest-wins merge a checkpoint
transaction stages with (:func:`~repro.core.runs.overlay_content`).
The page-at-a-time originals are reference models in
``tests/vm_reference.py``.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ...core.runs import (LocatorRun, content_spans, overlay_content,
                          run_at, run_index, run_start, runs_within, splice)
from ...errors import InvalidArgument
from ...hw.memory import SYNTHETIC_CLEAN, Page
from ..kobject import KObject

#: Object kinds, mirroring FreeBSD's OBJT_* types we need.
ANONYMOUS = "anonymous"
VNODE = "vnode"
DEVICE = "device"

def _run_page(run: LocatorRun, pindex: int) -> Page:
    """Page ``pindex`` of a synthetic run, clean or dirty as the run."""
    page = Page(seed=run[3] + run[4] * (pindex - run[1]))
    if not run[5]:
        page.clean_locator = SYNTHETIC_CLEAN
    return page


class VMObject(KObject):
    """A mappable collection of pages, possibly shadowing a parent."""

    obj_type = "vmobject"
    #: Synthetic runs, sorted and disjoint from ``pages`` (see the
    #: module docstring); an object that never held one shares this
    #: empty default.
    _runs: Sequence[LocatorRun] = ()

    def __init__(self, kernel: Any, size_pages: int, kind: str = ANONYMOUS,
                 backing: Optional["VMObject"] = None,
                 backing_offset: int = 0, vnode: Any = None,
                 name: str = "") -> None:
        super().__init__(kernel)
        if size_pages < 0:
            raise InvalidArgument("object size cannot be negative")
        self.size_pages = size_pages
        self.kind = kind
        self.pages: Dict[int, Page] = {}
        self.backing = backing
        self.backing_offset = backing_offset
        self.vnode = vnode
        self.name = name
        #: Number of shadow objects whose ``backing`` is this object.
        self.shadow_count = 0
        #: Set by system shadowing while this object's pages are being
        #: flushed to the store; a frozen object must not gain pages.
        self.frozen = False
        #: Logical on-disk identity assigned by Aurora.  Every object
        #: in one shadow chain created by system shadowing shares the
        #: chain's logical OID; privately faulted (fork-COW) shadows
        #: get their own.  None means not yet tracked by the SLS.
        self.sls_oid: Optional[int] = None
        if backing is not None:
            backing.ref()
            backing.shadow_count += 1

    # -- page management ------------------------------------------------------

    def _check_insert(self, low: int, high: int) -> None:
        if self.frozen:
            raise InvalidArgument(f"insert into frozen object {self!r}")
        if low < 0 or high >= self.size_pages:
            raise InvalidArgument(
                f"pindex range [{low}, {high}] outside object of "
                f"{self.size_pages} pages")

    def _cut(self, pindex: int) -> int:
        """Cut page ``pindex`` out of the runs; returns 1 if a run held
        it, else 0."""
        self._runs, cut = splice(self._runs, ((None, pindex, 1),))
        return cut

    def insert_page(self, pindex: int, page: Page) -> None:
        """Install ``page`` at ``pindex``, replacing any existing page."""
        self._check_insert(pindex, pindex)
        if pindex not in self.pages and not (self._runs and self._cut(pindex)):
            self.kernel.physmem.allocate(1)
            self.kernel.pageout.forget(self.kid, (pindex,), ())
        self.pages[pindex] = page

    def _overlay(self, pages: Mapping[int, Page],
                 runs: Sequence[LocatorRun]) -> None:
        """Lay ``pages`` and ``runs`` over what the object holds, newest
        wins, with one frame-accounting adjustment for the indexes that
        were empty."""
        self.kernel.pageout.forget(self.kid, pages, runs)
        self._runs, replaced = overlay_content(self.pages, self._runs,
                                               pages, runs)
        new = len(pages) + sum(run[2] for run in runs) - replaced
        if new:
            self.kernel.physmem.allocate(new)

    def insert_pages(self, pages: Mapping[int, Page]) -> None:
        """Bulk-install a page slab: one frame-accounting adjustment.

        Equivalent to :meth:`insert_page` per entry (replacement
        included).  Replaced frames are counted from the slab side — one
        membership probe per slab page — so many small slabs into a
        large object stay linear in the pages inserted.
        """
        if pages:
            self._check_insert(min(pages), max(pages))
            self._overlay(pages, ())

    def insert_runs(self, runs: Sequence[LocatorRun],
                    dirty: bool = False) -> None:
        """Install synthetic runs ``("syn", start, count, seed0, step)``
        (sorted, disjoint), all clean or all ``dirty``, replacing what
        the object holds at their indexes: one frame-accounting
        adjustment, and no ``Page`` built."""
        if runs:
            self._check_insert(runs[0][1], runs[-1][1] + runs[-1][2] - 1)
            self._overlay({}, [("syn", run[1], run[2], run[3], run[4], dirty)
                               for run in runs])

    def remove_page(self, pindex: int) -> Optional[Page]:
        """Remove and return the page at ``pindex`` (frame freed)."""
        page = self.pages.pop(pindex, None)
        if page is None and self._runs:
            page = self.page_at(pindex)
            if page is not None:
                self._cut(pindex)
        if page is not None:
            self.kernel.physmem.release(1)
        return page

    def page_at(self, pindex: int) -> Optional[Page]:
        """The page this object itself holds at ``pindex``, if any (a
        run's page is built, never cached back)."""
        page = self.pages.get(pindex)
        if page is None and self._runs:
            run = run_at(self._runs, pindex)
            if run is not None:
                page = _run_page(run, pindex)
        return page

    def holding(self, spans: Sequence[Tuple[int, int]]
                ) -> List[Tuple[int, int]]:
        """The stretches ``(lo, hi)`` of ``spans`` (sorted, disjoint
        ``(first, end)`` ranges) this object holds content at, ascending:
        one bisect into the runs per span, and one probe per index (or
        per page, if fewer) into the page dict."""
        held: List[Tuple[int, int]] = []
        runs, pages = self._runs, self.pages
        for first, end in spans:
            part: List[Tuple[int, int]] = []
            at = run_index(runs, first) if runs else 0
            while at < len(runs) and runs[at][1] < end:
                lo = max(runs[at][1], first)
                hi = min(runs[at][1] + runs[at][2], end)
                if lo < hi:
                    part.append((lo, hi))
                at += 1
            if pages:
                hits = (sorted(p for p in pages if first <= p < end)
                        if len(pages) < end - first
                        else filter(pages.__contains__, range(first, end)))
                spans_hit = [(p, p + 1) for p in hits]
                part = sorted(part + spans_hit) if part else spans_hit
            held += part
        return held

    def content(self) -> Tuple[Dict[int, Page], List[LocatorRun]]:
        """Everything this object holds, for a flush: a copy of its page
        dict and its runs as locator runs ``("syn", start, count, seed0,
        step)``.  No ``Page`` is built."""
        return dict(self.pages), [run[:5] for run in self._runs]

    def spans(self) -> List[LocatorRun]:
        """The indexes this object holds, as sorted bare spans."""
        return content_spans(self.pages, self._runs)

    def mark_clean(self, runs: Sequence[LocatorRun]) -> None:
        """``runs`` (sorted, disjoint pieces of :meth:`content`) are
        durable: the dirty runs still over them become clean.  A piece
        cut out since — an eviction — stays cut."""
        clean = [(*run[:5], False) for piece in runs
                 for run in runs_within(self._runs, piece[1],
                                        piece[1] + piece[2]) if run[5]]
        if clean:
            self._runs = splice(self._runs, clean)[0]

    def all_pages(self) -> Dict[int, Page]:
        """Every page this object holds, run pages built: O(resident),
        for the paths that are O(resident) already — the pageout
        daemon's candidate scan, vnode, shm and SLSFS content."""
        pages = dict(self.pages)
        for run in self._runs:
            pages.update((p, _run_page(run, p))
                         for p in range(run[1], run[1] + run[2]))
        return pages

    def resident_count(self) -> int:
        """Number of pages resident in this object."""
        return len(self.pages) + sum(run[2] for run in self._runs)

    def grow(self, size_pages: int) -> None:
        """Extend the object (vnode objects grow as their file grows)."""
        if size_pages > self.size_pages:
            self.size_pages = size_pages

    def lookup_page(self, pindex: int) -> Tuple[Optional[Page], int,
                                                Optional["VMObject"]]:
        """Walk the shadow chain for the page at ``pindex``.

        Returns ``(page, depth, owner)`` where depth counts chain hops
        (0 = found in this object).  ``(None, depth, None)`` means no
        object in the chain has the page (an anonymous zero-fill), and
        ``(None, depth, obj)`` that ``obj`` evicted it (a fault pages it
        in): an eviction hides every older copy below it.
        """
        evicted = self.kernel.pageout.evicted
        obj: Optional[VMObject] = self
        index = pindex
        depth = 0
        while obj is not None:
            page = obj.page_at(index)
            if page is not None:
                return page, depth, obj
            if obj.kid in evicted and run_at(evicted[obj.kid], index):
                return None, depth, obj
            index += obj.backing_offset
            obj = obj.backing
            depth += 1
        return None, depth, None

    def chain_length(self) -> int:
        """Number of objects in this shadow chain, including self."""
        length = 0
        obj: Optional[VMObject] = self
        while obj is not None:
            length += 1
            obj = obj.backing
        return length

    def chain(self) -> Iterator["VMObject"]:
        """Iterate this object then its backing ancestors."""
        obj: Optional[VMObject] = self
        while obj is not None:
            yield obj
            obj = obj.backing

    def visible_page(self, pindex: int) -> Optional[Page]:
        """The page a reader mapping this object at ``pindex`` sees."""
        page, _depth, _owner = self.lookup_page(pindex)
        return page

    # -- shadowing -------------------------------------------------------------

    def shadow(self, name: str = "") -> "VMObject":
        """Create a shadow of this object (new top of the chain)."""
        return VMObject(self.kernel, self.size_pages, kind=ANONYMOUS,
                        backing=self, name=name or f"shadow:{self.name}")

    def _detach_backing(self) -> None:
        if self.backing is not None:
            self.backing.shadow_count -= 1
            self.backing.unref()
            self.backing = None

    def collapse_forward(self) -> int:
        """Classic collapse: absorb the parent's pages into *this* object.

        Only legal when the parent is not shared with anyone else
        (refcount 1 beyond our backing ref means just us).  Returns the
        number of pages moved (the operation's cost driver).  The
        parent's runs move up as runs, minus the indexes this object
        already holds or has evicted.
        """
        parent = self.backing
        if parent is None:
            raise InvalidArgument("no backing object to collapse")
        if parent.shadow_count != 1:
            raise InvalidArgument("cannot collapse: parent has other shadows")
        evicted = self.kernel.pageout.migrate_object(parent.kid, self,
                                                     self.kid)
        moved = 0
        offset = self.backing_offset
        for pindex, page in list(parent.pages.items()):
            local = pindex - offset
            if 0 <= local < self.size_pages and self.page_at(local) is None \
                    and run_at(evicted, local) is None:
                # Keep the shadow's version when both exist.
                self.kernel.physmem.allocate(1)
                self.pages[local] = page
                moved += 1
            parent.remove_page(pindex)
        if parent._runs:
            window = runs_within(parent._runs, offset,
                                 offset + self.size_pages)
            # The parent's runs go under this object's content and
            # evictions.
            self._runs, hidden = splice(
                [(run[0], run[1] - offset, *run[2:]) for run in window],
                sorted([*content_spans(self.pages, evicted), *self._runs],
                       key=run_start))
            gained = sum(run[2] for run in window) - hidden
            self.kernel.physmem.release(parent.resident_count())
            self.kernel.physmem.allocate(gained)
            parent._runs = ()
            moved += gained
        grandparent = parent.backing
        offset += parent.backing_offset
        self._detach_backing()
        if grandparent is not None:
            grandparent.ref()
            grandparent.shadow_count += 1
            self.backing = grandparent
            self.backing_offset = offset
        return moved

    def collapse_into_parent(self) -> Tuple["VMObject", int]:
        """Aurora's reversed collapse: push *this* object's pages down.

        Moves this (short-lived, sparsely populated) shadow's content
        into the parent, overwriting the parent's stale versions, and
        returns ``(parent, pages_moved)``.  The caller repoints any map
        entries or shadows that referenced this object to the parent
        and discards this object.

        The move is a slab merge: one newest-wins dict update for the
        pages, the runs spliced into the parent's (cut under the
        shadow's spans, nothing materialised), and one frame release for
        the overwritten stale content.  The shadow's evicted runs win
        too: the parent's copies under them are released.
        """
        parent = self.backing
        if parent is None:
            raise InvalidArgument("no backing object to collapse into")
        if self.backing_offset != 0:
            raise InvalidArgument("system shadows always use offset 0")
        # Hold the parent alive across _detach_backing; this reference
        # is transferred to the caller, which repoints map entries.
        parent.ref()
        evicted = self.kernel.pageout.migrate_object(parent.kid, self,
                                                     parent.kid)
        pages, runs = self.pages, self._runs
        moved = len(pages) + sum(run[2] for run in runs)
        if evicted:
            runs = sorted([*runs, *content_spans((), evicted)],
                          key=run_start)
        # Stale parent copies are overwritten (or, under an eviction,
        # dropped) in place: the net frame delta of the whole move is
        # exactly -|overlap| (each such page frees the parent's stale
        # frame; every other page just changes owner).
        parent._runs, overlap = overlay_content(parent.pages, parent._runs,
                                                pages, runs)
        pages.clear()
        self._runs = ()
        if overlap:
            self.kernel.physmem.release(overlap)
        self._detach_backing()
        # Our ref on parent was dropped by _detach_backing; the caller
        # re-refs when it repoints entries.
        return parent, moved

    # -- lifecycle ---------------------------------------------------------------

    def destroy(self) -> None:
        """Release pages, evicted records and the backing reference."""
        self.kernel.pageout.evicted.pop(self.kid, None)
        held = self.resident_count()
        if held:
            self.kernel.physmem.release(held)
            self.pages.clear()
            self._runs = ()
        self._detach_backing()

    def __repr__(self) -> str:
        backing = f" over kid={self.backing.kid}" if self.backing else ""
        return (f"VMObject(kid={self.kid}, {self.kind}, "
                f"{self.resident_count()}/{self.size_pages} pages{backing})")
