"""Software pmap: the per-address-space stand-in for hardware page tables.

FreeBSD's physical map caches VM-map state in hardware page tables; the
tables are ephemeral and rebuilt from the VM map on demand (Figure 2).
This software pmap keeps the two bits the reproduction needs per mapped
page — *writable* and *dirty* — plus counters, so that:

* write faults occur exactly when the hardware would take one (page
  not mapped, or mapped read-only), and
* system shadowing's cost of "marking pages copy-on-write in the x86
  page tables" can be charged per PTE actually downgraded, which is
  what makes Table 5's stop time linear in the dirty set.

The default implementation is *columnar*: instead of a ``Dict[int,
PTE]`` keyed by virtual page number, the three PTE bits live in three
packed bitmap columns (present / writable / dirty), each a sparse map
of :data:`CHUNK_BITS`-wide integer words.  Range operations —
``write_protect_range``, ``remove_range``, ``collect_dirty`` — become
word-wise mask arithmetic (C-speed memcpy-class work), so a
checkpoint's write-protect pass over a million-page mapping costs a
few hundred mask ops instead of a million dict probes.  The fault side
is columnar too: ``writable_runs`` cuts a stored-to range into runs of
equal write permission, a run of write faults is one ``enter_range``
and a run already writable one ``mark_dirty_range`` — a mask op per
chunk, not three single-bit rewrites per page.  The original
dict-of-PTE implementation is a reference model in
``tests/vm_reference.py``; the equivalence property suite drives both
with identical operation sequences and asserts observational equality.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ...errors import SegmentationFault


def iter_bit_runs(bits: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, length)`` runs of consecutive set bits.

    Each run costs a constant number of big-int operations (isolate
    the lowest set bit, count the trailing ones, strip the run), so a
    sweep costs O(runs), not O(bits): a million-page bitmap with one
    dirty run is three mask ops, independent of where the run sits.
    """
    while bits:
        # Lowest set bit = start of the next run.
        start = (bits & -bits).bit_length() - 1
        tail = bits >> start
        # ``tail`` ends in the run's ones; ``tail + 1`` carries past
        # them, so its lowest set bit sits just above the run.
        length = ((tail + 1) & -(tail + 1)).bit_length() - 1
        yield start, length
        bits = (tail >> length) << (start + length)


#: Bits per bitmap chunk.  Single-PTE updates (page faults) rewrite one
#: chunk — a few hundred bytes — instead of the whole column, while
#: range operations still move chunk-at-a-time masks; 4096 bits keeps a
#: million-page column at 256 chunks.
CHUNK_BITS = 4096


class Pmap:
    """Per-address-space page table model, bitmap columns per PTE bit.

    Each column (present / writable / dirty) is a sparse map of chunk
    index → ``chunk_bits``-wide bitmap word.  Bit ``va_page %
    chunk_bits`` of word ``va_page // chunk_bits`` holds that page's
    bit.  Invariants: ``writable ⊆ present`` and ``dirty ⊆ present``;
    a chunk with no present bits is absent from every column.
    """

    def __init__(self, chunk_bits: int = CHUNK_BITS) -> None:
        self._chunk_bits = chunk_bits
        self._full_chunk = (1 << chunk_bits) - 1
        self._present: Dict[int, int] = {}
        self._writable: Dict[int, int] = {}
        self._dirty: Dict[int, int] = {}
        self.fault_count = 0
        self.wp_downgrades = 0

    def _chunk_masks(self, start_page: int,
                     npages: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(chunk_index, mask)`` covering the page range."""
        chunk_bits = self._chunk_bits
        end = start_page + npages
        chunk = start_page // chunk_bits
        while chunk * chunk_bits < end:
            low = max(start_page - chunk * chunk_bits, 0)
            high = min(end - chunk * chunk_bits, chunk_bits)
            if low == 0 and high == chunk_bits:
                yield chunk, self._full_chunk
            else:
                yield chunk, ((1 << (high - low)) - 1) << low
            chunk += 1

    def enter(self, va_page: int, writable: bool) -> None:
        """Install a translation (overwrites any existing one)."""
        chunk, offset = divmod(va_page, self._chunk_bits)
        bit = 1 << offset
        self._present[chunk] = self._present.get(chunk, 0) | bit
        word = self._writable.get(chunk, 0)
        self._writable[chunk] = (word | bit) if writable else (word & ~bit)
        # A fresh PTE starts clean.
        word = self._dirty.get(chunk, 0)
        if word & bit:
            self._dirty[chunk] = word & ~bit

    def enter_range(self, start_page: int, npages: int, writable: bool,
                    dirty: bool = False) -> None:
        """Install ``npages`` contiguous translations, one mask op per
        covered chunk.

        Equivalent to ``enter()`` per page (plus ``mark_dirty`` per
        page when ``dirty``); used by bulk setup paths such as
        :meth:`~repro.kernel.vm.vmspace.VMSpace.fill`.
        """
        if npages <= 0:
            return
        for chunk, mask in self._chunk_masks(start_page, npages):
            self._present[chunk] = self._present.get(chunk, 0) | mask
            word = self._writable.get(chunk, 0)
            self._writable[chunk] = (word | mask) if writable \
                else (word & ~mask)
            word = self._dirty.get(chunk, 0)
            self._dirty[chunk] = (word | mask) if dirty else (word & ~mask)

    def _drop_bits(self, chunk: int, mask: int) -> None:
        """Clear ``mask`` bits of one chunk in every column."""
        word = self._present.get(chunk, 0) & ~mask
        if word:
            self._present[chunk] = word
            self._writable[chunk] = self._writable.get(chunk, 0) & ~mask
            self._dirty[chunk] = self._dirty.get(chunk, 0) & ~mask
        else:
            self._present.pop(chunk, None)
            self._writable.pop(chunk, None)
            self._dirty.pop(chunk, None)

    def remove(self, va_page: int) -> None:
        """Invalidate one translation."""
        chunk, offset = divmod(va_page, self._chunk_bits)
        if chunk in self._present:
            self._drop_bits(chunk, 1 << offset)

    def remove_range(self, start_page: int, npages: int) -> None:
        """Invalidate a contiguous range of translations."""
        if npages <= 0:
            return
        for chunk, mask in self._chunk_masks(start_page, npages):
            if chunk in self._present:
                self._drop_bits(chunk, mask)

    def is_mapped(self, va_page: int) -> bool:
        """True when a translation exists for the page."""
        chunk, offset = divmod(va_page, self._chunk_bits)
        return bool(self._present.get(chunk, 0) >> offset & 1)

    def is_writable(self, va_page: int) -> bool:
        """True when the page is mapped writable."""
        chunk, offset = divmod(va_page, self._chunk_bits)
        return bool(self._writable.get(chunk, 0) >> offset & 1)

    def mark_dirty(self, va_page: int) -> None:
        """Set the dirty bit (a store hit the page).

        Dirtying a page with no installed translation is a VM-layer
        contract violation (the hardware cannot set a dirty bit in a
        PTE that does not exist), surfaced as a typed fault instead of
        a bare ``KeyError``.
        """
        chunk, offset = divmod(va_page, self._chunk_bits)
        bit = 1 << offset
        if not self._present.get(chunk, 0) & bit:
            raise SegmentationFault(
                f"mark_dirty on unmapped page {va_page:#x}: no PTE "
                f"installed (enter() the translation first)")
        self._dirty[chunk] = self._dirty.get(chunk, 0) | bit

    def mark_dirty_range(self, start_page: int, npages: int) -> None:
        """:meth:`mark_dirty` for ``npages`` contiguous pages, one mask
        op per covered chunk; like the per-page loop, it dirties the
        pages before the first unmapped one and then raises."""
        for chunk, mask in self._chunk_masks(start_page, max(npages, 0)):
            absent = mask & ~self._present.get(chunk, 0)
            if absent:
                first = absent & -absent
                mask &= first - 1
            if mask:
                self._dirty[chunk] = self._dirty.get(chunk, 0) | mask
            if absent:
                va_page = chunk * self._chunk_bits + first.bit_length() - 1
                raise SegmentationFault(
                    f"mark_dirty on unmapped page {va_page:#x}: no PTE "
                    f"installed (enter() the translation first)")

    def writable_runs(self, start_page: int,
                      npages: int) -> Iterator[Tuple[int, int, bool]]:
        """Cut a range into maximal ``(start, length, writable)`` runs
        (a store takes one range fault per non-writable run and one
        :meth:`mark_dirty_range` per writable one).  O(chunks + runs)."""
        cursor = start_page
        for start, length in self._column_runs(self._writable, start_page,
                                               npages):
            if start > cursor:
                yield cursor, start - cursor, False
            yield start, length, True
            cursor = start + length
        if start_page + npages > cursor:
            yield cursor, start_page + npages - cursor, False

    def write_protect_range(self, start_page: int, npages: int) -> int:
        """Downgrade writable PTEs in a range to read-only.

        Returns the number of PTEs actually downgraded — the linear
        cost driver of a system-shadowing pass.  Dirty bits are cleared
        as the downgraded pages now belong to the frozen checkpoint.
        """
        if npages <= 0:
            return 0
        downgraded = 0
        for chunk, mask in self._chunk_masks(start_page, npages):
            word = self._writable.get(chunk)
            if not word:
                continue
            downgrade = word & mask
            if not downgrade:
                continue
            self._writable[chunk] = word & ~downgrade
            dirty = self._dirty.get(chunk)
            if dirty:
                self._dirty[chunk] = dirty & ~downgrade
            downgraded += downgrade.bit_count()
        self.wp_downgrades += downgraded
        return downgraded

    def resident_pages(self) -> int:
        """Number of installed translations."""
        return sum(word.bit_count() for word in self._present.values())

    def dirty_pages(self) -> List[int]:
        """Virtual pages whose dirty bit is set (ascending)."""
        pages: List[int] = []
        for chunk in sorted(self._dirty):
            base = chunk * self._chunk_bits
            for start, length in iter_bit_runs(self._dirty[chunk]):
                pages.extend(range(base + start, base + start + length))
        return pages

    def collect_dirty(self, start_page: int,
                      npages: int) -> Iterator[Tuple[int, int]]:
        """Dirty pages in a range as ``(page, run_length)`` runs.

        The batched successor to :meth:`dirty_pages`: a checkpoint pass
        over a window yields contiguous dirty *runs* so downstream
        staging can move slabs instead of single pages.
        """
        return self._column_runs(self._dirty, start_page, npages)

    def _column_runs(self, column: Dict[int, int], start_page: int,
                     npages: int) -> Iterator[Tuple[int, int]]:
        """Maximal ``(page, run_length)`` runs of set bits of one
        column inside a range; runs crossing a chunk boundary are
        stitched back together."""
        if npages <= 0:
            return
        pending_start = pending_len = 0
        for chunk, mask in self._chunk_masks(start_page, npages):
            word = column.get(chunk)
            window = word & mask if word else 0
            if not window:
                if pending_len:
                    yield pending_start, pending_len
                    pending_len = 0
                continue
            base = chunk * self._chunk_bits
            for run_start, run_len in iter_bit_runs(window):
                absolute = base + run_start
                if pending_len and pending_start + pending_len == absolute:
                    pending_len += run_len
                else:
                    if pending_len:
                        yield pending_start, pending_len
                    pending_start, pending_len = absolute, run_len
        if pending_len:
            yield pending_start, pending_len

    def clear(self) -> None:
        """Drop every translation (address space teardown)."""
        self._present.clear()
        self._writable.clear()
        self._dirty.clear()
