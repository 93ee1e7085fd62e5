"""VM objects: mappable page collections with shadow chains.

A VM object is a collection of pages backing one or more map entries
(Figure 2).  Objects know nothing about virtual addresses or
permissions, which is what lets one object appear in several address
spaces (shared memory) and lets *shadow* objects stack on top of a
parent to hold process-private (or, for Aurora, checkpoint-private)
copies of pages.

Two collapse directions are implemented:

* :meth:`collapse_forward` — the classic Mach/FreeBSD operation that
  moves the **parent's** pages into the shadow (cost proportional to
  the parent's resident count).
* :meth:`collapse_into_parent` — Aurora's reversed operation (§6,
  "Aurora optimizes the collapse operation by reversing its
  direction"): the short-lived system shadow's few pages move into the
  parent, so cost is proportional to the *dirty set* instead of the
  full resident set.  The ablation benchmark contrasts the two.

The page-moving primitives are *slab* operations: a collapse merges
the shadow's whole page dict into the parent with one dict update and
one frame-accounting adjustment instead of three per-page calls, so
the real (wall-clock) cost of a collapse tracks the number of
contiguous runs, not the page count.  The page-at-a-time original is
a reference model in ``tests/vm_reference.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from ...errors import InvalidArgument
from ...hw.memory import Page
from ..kobject import KObject

#: Object kinds, mirroring FreeBSD's OBJT_* types we need.
ANONYMOUS = "anonymous"
VNODE = "vnode"
DEVICE = "device"


class VMObject(KObject):
    """A mappable collection of pages, possibly shadowing a parent."""

    obj_type = "vmobject"

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

    def insert_page(self, pindex: int, page: Page) -> None:
        """Install ``page`` at ``pindex``, replacing any existing page."""
        if self.frozen:
            raise InvalidArgument(f"insert into frozen object {self!r}")
        if not 0 <= pindex < self.size_pages:
            raise InvalidArgument(
                f"pindex {pindex} outside object of {self.size_pages} pages")
        if pindex not in self.pages:
            self.kernel.physmem.allocate(1)
        self.pages[pindex] = page

    def insert_pages(self, pages: Mapping[int, Page]) -> None:
        """Bulk-install a page slab: one frame-accounting adjustment.

        Equivalent to :meth:`insert_page` per entry (replacement
        included).  New frames are counted from the slab side — one
        membership probe per slab page — so many small slabs into a
        large object stay linear in the pages inserted (a key-set
        difference would walk the *resident* set on every call).
        """
        if not pages:
            return
        if self.frozen:
            raise InvalidArgument(f"insert into frozen object {self!r}")
        low = min(pages)
        high = max(pages)
        if low < 0 or high >= self.size_pages:
            raise InvalidArgument(
                f"pindex range [{low}, {high}] outside object of "
                f"{self.size_pages} pages")
        resident = self.pages
        new = len(pages)
        if resident:
            new -= sum(map(resident.__contains__, pages))
        if new:
            self.kernel.physmem.allocate(new)
        self.pages.update(pages)

    def remove_page(self, pindex: int) -> Optional[Page]:
        """Remove and return the page at ``pindex`` (frame freed)."""
        page = self.pages.pop(pindex, None)
        if page is not None:
            self.kernel.physmem.release(1)
        return page

    def resident_count(self) -> int:
        """Number of pages resident in this object."""
        return len(self.pages)

    def grow(self, size_pages: int) -> None:
        """Extend the object (vnode objects grow as their file grows)."""
        if size_pages > self.size_pages:
            self.size_pages = size_pages

    def lookup_page(self, pindex: int) -> Tuple[Optional[Page], int,
                                                Optional["VMObject"]]:
        """Walk the shadow chain for the page at ``pindex``.

        Returns ``(page, depth, owner)`` where depth counts chain hops
        (0 = found in this object).  ``(None, depth, None)`` means no
        object in the chain has the page (an anonymous zero-fill).
        """
        obj: Optional[VMObject] = self
        index = pindex
        depth = 0
        while obj is not None:
            page = obj.pages.get(index)
            if page is not None:
                return page, depth, obj
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
        number of pages moved (the operation's cost driver).
        """
        parent = self.backing
        if parent is None:
            raise InvalidArgument("no backing object to collapse")
        if parent.shadow_count != 1:
            raise InvalidArgument("cannot collapse: parent has other shadows")
        moved = 0
        for pindex, page in list(parent.pages.items()):
            local = pindex - self.backing_offset
            if 0 <= local < self.size_pages and local not in self.pages:
                # Keep the shadow's version when both exist.
                self.kernel.physmem.allocate(1)
                self.pages[local] = page
                moved += 1
            parent.remove_page(pindex)
        pageout = getattr(self.kernel, "pageout", None)
        if pageout is not None:
            pageout.migrate_object(parent.kid, self.kid)
        grandparent = parent.backing
        offset = self.backing_offset + parent.backing_offset
        self._detach_backing()
        if grandparent is not None:
            grandparent.ref()
            grandparent.shadow_count += 1
            self.backing = grandparent
            self.backing_offset = offset
        return moved

    def collapse_into_parent(self) -> Tuple["VMObject", int]:
        """Aurora's reversed collapse: push *this* object's pages down.

        Moves this (short-lived, sparsely populated) shadow's pages
        into the parent, overwriting the parent's stale versions, and
        returns ``(parent, pages_moved)``.  The caller repoints any map
        entries or shadows that referenced this object to the parent
        and discards this object.

        The move is a slab merge: one newest-wins dict update plus one
        frame release for the overwritten stale pages, instead of a
        remove/insert/remove triple per page.
        """
        parent = self.backing
        if parent is None:
            raise InvalidArgument("no backing object to collapse into")
        if self.backing_offset != 0:
            raise InvalidArgument("system shadows always use offset 0")
        # Hold the parent alive across _detach_backing; this reference
        # is transferred to the caller, which repoints map entries.
        parent.ref()
        moved = len(self.pages)
        # Stale parent copies are overwritten in place: the net frame
        # delta of the whole move is exactly -|overlap| (each
        # overwritten page frees the parent's stale frame; every other
        # page just changes owner).
        overlap = len(self.pages.keys() & parent.pages.keys())
        parent.pages.update(self.pages)
        self.pages.clear()
        if overlap:
            self.kernel.physmem.release(overlap)
        pageout = getattr(self.kernel, "pageout", None)
        if pageout is not None:
            # Evicted-page records follow the pages' new home.
            pageout.migrate_object(self.kid, parent.kid)
        self._detach_backing()
        # Our ref on parent was dropped by _detach_backing; the caller
        # re-refs when it repoints entries.
        return parent, moved

    # -- lifecycle ---------------------------------------------------------------

    def destroy(self) -> None:
        """Release pages and the backing reference."""
        if self.pages:
            self.kernel.physmem.release(len(self.pages))
            self.pages.clear()
        self._detach_backing()

    def __repr__(self) -> str:
        backing = f" over kid={self.backing.kid}" if self.backing else ""
        return (f"VMObject(kid={self.kid}, {self.kind}, "
                f"{self.resident_count()}/{self.size_pages} pages{backing})")
