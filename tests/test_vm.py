"""The Mach VM subsystem: objects, shadow chains, collapse, maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument, SegmentationFault
from repro.hw.memory import Page
from repro.kernel.vm.vmmap import (INHERIT_SHARE, PROT_READ, PROT_WRITE,
                                   VMMap, VMMapEntry)
from repro.kernel.vm.vmobject import VMObject
from repro.machine import Machine
from repro.units import PAGE_SIZE


@pytest.fixture
def kernel():
    return Machine().kernel


# -- VM objects ------------------------------------------------------------------


def test_insert_and_lookup_page(kernel):
    obj = VMObject(kernel, 10)
    obj.insert_page(3, Page(data=b"three"))
    page, depth, owner = obj.lookup_page(3)
    assert page.realize().startswith(b"three")
    assert depth == 0 and owner is obj


def test_insert_out_of_range_rejected(kernel):
    obj = VMObject(kernel, 2)
    with pytest.raises(InvalidArgument):
        obj.insert_page(2, Page(seed=1))


def test_frame_accounting_follows_pages(kernel):
    before = kernel.physmem.used_frames
    obj = VMObject(kernel, 4)
    obj.insert_page(0, Page(seed=1))
    obj.insert_page(1, Page(seed=2))
    assert kernel.physmem.used_frames == before + 2
    obj.insert_page(0, Page(seed=3))  # replacement: no new frame
    assert kernel.physmem.used_frames == before + 2
    obj.unref()
    assert kernel.physmem.used_frames == before


class _ProbeCountingPages(dict):
    """A resident-page dict that counts how it is consulted: one per
    membership probe, the whole resident set per key-view request."""

    probes = 0

    def __contains__(self, pindex):
        self.probes += 1
        return super().__contains__(pindex)

    def keys(self):
        self.probes += len(self)
        return super().keys()


def test_small_slabs_into_a_large_object_probe_only_the_slab(kernel):
    """1 000 four-page slabs into a 100 k-page object cost one probe
    per slab page — counting new frames from the resident side walked
    100 k keys per insert (a latent quadratic)."""
    resident, slabs, width = 100_000, 1_000, 4
    obj = VMObject(kernel, resident + slabs * width)
    obj.insert_pages({i: Page(seed=i) for i in range(resident)})
    obj.pages = _ProbeCountingPages(obj.pages)
    before = kernel.physmem.used_frames
    for slab in range(slabs):
        # Odd slabs replace resident pages, even ones extend the object.
        first = (slab * 97 if slab % 2 else resident + slab * width)
        obj.insert_pages({first + i: Page(seed=-slab)
                          for i in range(width)})
    assert obj.pages.probes == slabs * width
    assert kernel.physmem.used_frames == before + (slabs // 2) * width
    assert obj.resident_count() == resident + (slabs // 2) * width
    assert obj.pages[97].seed == -1 and obj.pages[resident].seed == 0


def test_shadow_lookup_walks_chain(kernel):
    base = VMObject(kernel, 8)
    base.insert_page(0, Page(seed=100))
    shadow = base.shadow()
    page, depth, owner = shadow.lookup_page(0)
    assert page.seed == 100
    assert depth == 1 and owner is base
    shadow.insert_page(0, Page(seed=200))
    page, depth, _ = shadow.lookup_page(0)
    assert page.seed == 200 and depth == 0


def test_shadow_counts(kernel):
    base = VMObject(kernel, 4)
    s1 = base.shadow()
    s2 = base.shadow()
    assert base.shadow_count == 2
    s1.unref()
    assert base.shadow_count == 1
    assert not base.destroyed  # s2 still references it
    s2.unref()


def test_frozen_object_rejects_inserts(kernel):
    obj = VMObject(kernel, 4)
    obj.frozen = True
    with pytest.raises(InvalidArgument):
        obj.insert_page(0, Page(seed=1))


def _visible(obj, npages):
    return [obj.visible_page(i).seed if obj.visible_page(i) else None
            for i in range(npages)]


def test_collapse_into_parent_preserves_visibility(kernel):
    base = VMObject(kernel, 6)
    for i in range(4):
        base.insert_page(i, Page(seed=i))
    mid = base.shadow()
    mid.insert_page(1, Page(seed=101))
    mid.insert_page(4, Page(seed=104))
    top = mid.shadow()
    before = _visible(top, 6)

    parent, moved = mid.collapse_into_parent()
    assert parent is base and moved == 2
    # Repoint top over the collapsed middle (what the engine does).
    mid.shadow_count -= 1
    top.backing = base
    base.shadow_count += 1
    mid.unref()
    assert _visible(top, 6) == before
    assert top.chain_length() == 2


def test_collapse_forward_preserves_visibility(kernel):
    base = VMObject(kernel, 6)
    for i in range(4):
        base.insert_page(i, Page(seed=i))
    top = base.shadow()
    top.insert_page(1, Page(seed=201))
    before = _visible(top, 6)
    moved = top.collapse_forward()
    assert moved == 3  # pages 0, 2, 3 (1 was shadowed)
    assert top.backing is None
    assert _visible(top, 6) == before


def test_collapse_forward_refused_when_parent_shared(kernel):
    base = VMObject(kernel, 4)
    s1 = base.shadow()
    s2 = base.shadow()
    with pytest.raises(InvalidArgument):
        s1.collapse_forward()
    s1.unref()
    s2.unref()


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(0, 15), st.integers(0, 1000), max_size=16),
       st.dictionaries(st.integers(0, 15), st.integers(0, 1000), max_size=16),
       st.dictionaries(st.integers(0, 15), st.integers(0, 1000), max_size=16))
def test_collapse_invariant_property(base_pages, mid_pages, top_pages):
    """Reverse collapse of the middle object never changes what the top
    of the chain sees — the core safety property of system shadowing."""
    kernel = Machine().kernel
    base = VMObject(kernel, 16)
    for pindex, seed in base_pages.items():
        base.insert_page(pindex, Page(seed=seed))
    mid = base.shadow()
    for pindex, seed in mid_pages.items():
        mid.insert_page(pindex, Page(seed=seed + 10_000))
    top = mid.shadow()
    for pindex, seed in top_pages.items():
        top.insert_page(pindex, Page(seed=seed + 20_000))
    before = _visible(top, 16)

    parent, _moved = mid.collapse_into_parent()
    mid.shadow_count -= 1
    top.backing = parent
    parent.shadow_count += 1
    mid.unref()
    assert _visible(top, 16) == before


# -- VM maps ----------------------------------------------------------------------------


def test_map_insert_and_lookup(kernel):
    vmmap = VMMap()
    obj = VMObject(kernel, 4)
    entry = VMMapEntry(0x2000, 4, PROT_READ | PROT_WRITE, obj)
    vmmap.insert(entry)
    assert vmmap.lookup(0x2001) is entry
    assert vmmap.lookup(0x2004) is None


def test_map_rejects_overlap(kernel):
    vmmap = VMMap()
    obj = VMObject(kernel, 4)
    vmmap.insert(VMMapEntry(0x2000, 4, PROT_READ, obj))
    with pytest.raises(InvalidArgument):
        vmmap.insert(VMMapEntry(0x2002, 4, PROT_READ, obj))


def test_find_space_first_fit(kernel):
    vmmap = VMMap()
    obj = VMObject(kernel, 100)
    start = vmmap.find_space(10)
    vmmap.insert(VMMapEntry(start, 10, PROT_READ, obj))
    vmmap.insert(VMMapEntry(start + 20, 10, PROT_READ, obj))
    gap = vmmap.find_space(10)
    assert gap == start + 10  # fits in the hole


def test_entry_pindex_translation(kernel):
    obj = VMObject(kernel, 20)
    entry = VMMapEntry(0x5000, 10, PROT_READ, obj, offset_pages=4)
    assert entry.pindex_of(0x5000) == 4
    assert entry.pindex_of(0x5009) == 13
    with pytest.raises(SegmentationFault):
        entry.pindex_of(0x500A)
