"""VM objects: mappable page collections with shadow chains.

A VM object is a collection of pages backing one or more map entries
(Figure 2).  Objects know nothing about virtual addresses or
permissions, which is what lets one object appear in several address
spaces (shared memory) and lets *shadow* objects stack on top of a
parent to hold process-private (or, for Aurora, checkpoint-private)
copies of pages.

An object's content is one sorted, disjoint run list, and this module
alone decides how it is held.  A run is one of two kinds:

* ``("syn", start, count, seed0, step, dirty)`` — a synthetic stretch
  whose page ``start + i`` has seed ``seed0 + step × i``.  ``fill`` and
  ``touch`` insert one dirty run per stretch, an eager restore or a
  page-in clean ones (the seed progression is its own locator);
* ``("page", pindex, 1, page, locator)`` — one real-byte
  :class:`~repro.hw.memory.Page`, with its one-page ``"ext"`` locator
  while it is clean (an eager restore, a page-in, or a durable flush)
  and None while it is dirty.

A synthetic :class:`~repro.hw.memory.Page` goes in as a one-page run
(:func:`page_run`).  Only objects that hold content pay for the list;
the rest share an empty default.

A synthetic run's ``Page`` is built only when code needs that page's
bytes, and is never cached back: a read (:meth:`page_at`,
:meth:`lookup_page`), the copy-up of a write fault onto a real page and
a partial ``VMSpace.write``.  The pageout daemon evicts a dirty
synthetic run as it is, with its dirty bit (:mod:`repro.kernel.swap`).

Runs are *cut* where newer content replaces them — an insert, an
eviction (:meth:`remove`), a collapse moving content between objects —
with :func:`~repro.core.runs.splice`, the one edit every run list in the
system goes through: one bisect per cut span and at most two clips, so
an edit costs O(edit), not O(runs held).  An object splices only the
window of its runs an edit meets, in place (:meth:`_splice`): a
one-page insert is one bisect and a slot edit, the list never
rebuilt.  A flush takes an object's runs as they are
(:meth:`content`), and once the checkpoint that carried them is durable
:meth:`mark_clean` turns the dirty runs under them clean.

Two collapse directions are implemented:

* :meth:`collapse_forward` — the classic Mach/FreeBSD operation that
  moves the **parent's** pages into the shadow (cost proportional to
  the parent's resident count).
* :meth:`collapse_into_parent` — Aurora's reversed operation (§6,
  "Aurora optimizes the collapse operation by reversing its
  direction"): the short-lived system shadow's few pages move into the
  parent, so cost is proportional to the *dirty set* instead of the
  full resident set.  The ablation benchmark contrasts the two.

The reversed collapse moves content as one slab: the shadow's runs
spliced into the parent's, with one frame-accounting adjustment — the
newest-wins merge a checkpoint transaction stages with.  The
page-at-a-time originals are reference models in
``tests/vm_reference.py``.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ...core.runs import (LocatorRun, bare_spans, clip_run, run_at,
                          run_index, run_start, runs_within, splice,
                          splice_window)
from ...errors import InvalidArgument
from ...hw.memory import Page
from ..kobject import KObject

#: Object kinds, mirroring FreeBSD's OBJT_* types we need.
ANONYMOUS = "anonymous"
VNODE = "vnode"
DEVICE = "device"


def page_run(pindex: int, page: Page,
             locator: Optional[LocatorRun] = None) -> LocatorRun:
    """``page`` at ``pindex`` as the run a VM object holds it as: clean
    when ``locator`` (where the store holds this content) is given."""
    if page.seed is not None:
        return ("syn", pindex, 1, page.seed, 0, locator is None)
    return ("page", pindex, 1, page, locator)


def run_page(run: LocatorRun, pindex: int) -> Page:
    """Page ``pindex`` of a VM object's run (the run's own ``Page`` for
    a real page; a synthetic one is built)."""
    if run[0] == "page":
        return run[3]
    return Page(seed=run[3] + run[4] * (pindex - run[1]))


def is_clean(run: LocatorRun) -> bool:
    """Whether the store holds a VM object's run as it is."""
    return run[4] is not None if run[0] == "page" else not run[5]


class VMObject(KObject):
    """A mappable collection of pages, possibly shadowing a parent."""

    obj_type = "vmobject"
    #: The content runs, sorted and disjoint (see the module
    #: docstring); an object that never held one shares this empty
    #: default.
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
        self.backing = backing
        self.backing_offset = backing_offset
        self.vnode = vnode
        self.name = name
        #: Number of shadow objects whose ``backing`` is this object.
        self.shadow_count = 0
        #: Set by system shadowing while this object's pages are being
        #: flushed to the store; a frozen object gains clean content
        #: only (a page-in), never dirty.
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

    def _splice(self, cover: Sequence[LocatorRun]) -> int:
        """Lay ``cover`` (sorted, disjoint) over the runs; returns the
        pages cut.  Only the window of runs ``cover`` meets is spliced,
        in place: one bisect finds it, and the runs outside it are
        neither visited nor copied."""
        runs = self._runs
        if not runs:
            self._runs, cut = splice(runs, cover)
            return cut
        first = run_index(runs, cover[0][1])
        window, stop, cut = splice_window(runs, cover, first)
        runs[first:stop] = window   # type: ignore[index]
        return cut

    def insert(self, runs: Sequence[LocatorRun]) -> None:
        """Install ``runs`` (sorted, disjoint, in the module docstring's
        two kinds), replacing what the object holds at their indexes:
        one splice and one frame-accounting adjustment."""
        if not runs:
            return
        low, high = runs[0][1], runs[-1][1] + runs[-1][2] - 1
        if self.frozen and not all(map(is_clean, runs)) \
                and not self.kernel.pageout.is_evicted(self, low):
            # Only a page-in brings dirty content back into a frozen
            # object: content it held when it was frozen.
            raise InvalidArgument(f"insert into frozen object {self!r}")
        if low < 0 or high >= self.size_pages:
            raise InvalidArgument(
                f"pindex range [{low}, {high}] outside object of "
                f"{self.size_pages} pages")
        self.kernel.pageout.forget(self.kid, runs)
        new = sum(run[2] for run in runs) - self._splice(runs)
        if new:
            self.kernel.physmem.allocate(new)

    def remove(self, lo: int, hi: int) -> None:
        """Drop what the object holds in ``[lo, hi)`` (frames freed)."""
        if lo < hi and self._runs:
            self.kernel.physmem.release(self._splice(((None, lo, hi - lo),)))

    def page_at(self, pindex: int) -> Optional[Page]:
        """The page this object itself holds at ``pindex``, if any (a
        synthetic run's page is built, never cached back)."""
        run = run_at(self._runs, pindex) if self._runs else None
        return None if run is None else run_page(run, pindex)

    def holding(self, spans: Sequence[Tuple[int, int]]
                ) -> List[Tuple[int, int]]:
        """The stretches ``(lo, hi)`` of ``spans`` (sorted, disjoint
        ``(first, end)`` ranges) this object holds content at, ascending:
        one bisect into the runs per span."""
        held: List[Tuple[int, int]] = []
        runs = self._runs
        for first, end in spans:
            at = run_index(runs, first) if runs else 0
            while at < len(runs) and runs[at][1] < end:
                held.append((max(runs[at][1], first),
                             min(runs[at][1] + runs[at][2], end)))
                at += 1
        return held

    def content(self, lo: int = 0, hi: Optional[int] = None
                ) -> List[LocatorRun]:
        """A copy of the runs this object holds in ``[lo, hi)`` (all of
        them by default), for a flush: no ``Page`` is built."""
        if hi is None:
            return list(self._runs)
        return runs_within(self._runs, lo, hi)

    def mark_clean(self, pieces: Sequence[LocatorRun], table: Any) -> None:
        """``pieces`` (sorted, disjoint pieces of :meth:`content` and of
        the object's dirty evicted runs) are durable, the real pages at
        the locators of ``table`` (the checkpoint's
        :class:`~repro.objstore.checkpoint.PageRuns`): the dirty runs
        still over them, resident or evicted, become clean.  A piece cut
        out since — an eviction — stays cut, and content written over it
        since — a real page replaced, a synthetic run of other seeds —
        stays dirty."""
        clean: List[LocatorRun] = []
        runs = self._runs
        locators: Sequence[LocatorRun] = table.runs if table else ()
        at = 0
        for piece in pieces:
            lo = piece[1]
            if piece[0] == "ext":
                continue    # an evicted real page: marked there, below
            if piece[0] == "syn":
                seed, step = piece[3] - piece[4] * lo, piece[4]
                clean += ((*run[:5], False) for run in runs_within(
                    runs, lo, lo + piece[2]) if run[0] == "syn" and run[5]
                    and run[3] == seed + step * run[1]
                    and (run[2] == 1 or run[4] == step))
                continue
            run = run_at(runs, lo)
            if run is not None and run[3] is piece[3] and run[4] is None:
                # Pieces ascend: so do their locators in the table.
                while locators[at][1] + locators[at][2] <= lo:
                    at += 1
                clean.append(("page", lo, 1, run[3],
                              clip_run(locators[at], lo, lo + 1)))
        if clean:
            self._splice(clean)
        pageout = self.kernel.pageout
        if self.kid in pageout.evicted:
            pageout.mark_clean(self.kid, pieces)

    def resident_count(self) -> int:
        """Number of pages resident in this object."""
        return sum(run[2] for run in self._runs)

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
        offset = self.backing_offset
        window = runs_within(parent._runs, offset, offset + self.size_pages)
        # The parent's runs go under this object's content and
        # evictions.
        self._runs, hidden = splice(
            [(run[0], run[1] - offset, *run[2:]) for run in window],
            sorted([*self._runs, *bare_spans(evicted)], key=run_start))
        moved = sum(run[2] for run in window) - hidden
        self.kernel.physmem.release(parent.resident_count())
        self.kernel.physmem.allocate(moved)
        parent._runs = ()
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

        The move is a slab merge: the runs spliced into the parent's
        (nothing materialised), and one frame release for the
        overwritten stale content.  The shadow's evicted runs win
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
        runs = self._runs
        moved = sum(run[2] for run in runs)
        if evicted:
            runs = sorted([*runs, *bare_spans(evicted)], key=run_start)
        # Stale parent copies are overwritten (or, under an eviction,
        # dropped) in place: the net frame delta of the whole move is
        # exactly -|overlap| (each such page frees the parent's stale
        # frame; every other page just changes owner).
        overlap = parent._splice(runs) if runs else 0
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
            self._runs = ()
        self._detach_backing()

    def __repr__(self) -> str:
        backing = f" over kid={self.backing.kid}" if self.backing else ""
        return (f"VMObject(kid={self.kid}, {self.kind}, "
                f"{self.resident_count()}/{self.size_pages} pages{backing})")
