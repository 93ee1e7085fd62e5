"""The Mach VM subsystem: objects, shadow chains, collapse, maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import runs as runs_mod
from repro.core.runs import clip_run
from repro.errors import InvalidArgument, SegmentationFault
from repro.hw.memory import Page
from repro.kernel.vm.vmmap import (INHERIT_SHARE, PROT_READ, PROT_WRITE,
                                   VMMap, VMMapEntry)
from repro.kernel.vm import vmobject as vmobject_mod
from repro.kernel.vm.vmobject import VMObject, page_run
from repro.machine import Machine
from repro.objstore.checkpoint import PageRuns
from repro.units import PAGE_SIZE
from tests.content import clean_mark, held_pages, page_runs


@pytest.fixture
def kernel():
    return Machine().kernel


# -- VM objects ------------------------------------------------------------------


def test_insert_and_lookup_page(kernel):
    obj = VMObject(kernel, 10)
    obj.insert([page_run(3, Page(data=b"three"))])
    page, depth, owner = obj.lookup_page(3)
    assert page.realize().startswith(b"three")
    assert depth == 0 and owner is obj


def test_insert_out_of_range_rejected(kernel):
    obj = VMObject(kernel, 2)
    with pytest.raises(InvalidArgument):
        obj.insert([page_run(2, Page(seed=1))])


def test_frame_accounting_follows_pages(kernel):
    before = kernel.physmem.used_frames
    obj = VMObject(kernel, 4)
    obj.insert([page_run(0, Page(seed=1))])
    obj.insert([page_run(1, Page(seed=2))])
    assert kernel.physmem.used_frames == before + 2
    obj.insert([page_run(0, Page(seed=3))])  # replacement: no new frame
    assert kernel.physmem.used_frames == before + 2
    obj.unref()
    assert kernel.physmem.used_frames == before


def test_small_slabs_into_a_large_object_probe_only_the_slab(kernel,
                                                             monkeypatch):
    """1 000 four-page slabs into a 100 k-page object cost one bisect
    per slab and splice only the runs the slab lands on — rebuilding
    the object's run list, or counting new frames from the resident
    side, copied or walked 100 k entries per insert (a latent
    quadratic)."""
    resident, slabs, width = 100_000, 1_000, 4
    obj = VMObject(kernel, resident + slabs * width)
    obj.insert(page_runs({i: Page(seed=i) for i in range(resident)}))
    probes, spliced = [], []
    plain_bisect, plain_splice = (runs_mod.bisect_right,
                                  vmobject_mod.splice_window)

    def counting_bisect(*args, **kwargs):
        probes.append(1)
        return plain_bisect(*args, **kwargs)

    def counting_splice(runs, cover, first):
        window, stop, cut = plain_splice(runs, cover, first)
        spliced.append(stop - first)
        return window, stop, cut

    monkeypatch.setattr(runs_mod, "bisect_right", counting_bisect)
    monkeypatch.setattr(vmobject_mod, "splice_window", counting_splice)
    before = kernel.physmem.used_frames
    for slab in range(slabs):
        # Odd slabs replace resident pages, even ones extend the object.
        first = (slab * 97 if slab % 2 else resident + slab * width)
        obj.insert(page_runs({first + i: Page(seed=-slab)
                              for i in range(width)}))
    assert len(probes) == slabs
    # Each replacing slab splices the four one-page runs it replaces;
    # each extending slab, none.
    assert spliced == [width if slab % 2 else 0 for slab in range(slabs)]
    assert kernel.physmem.used_frames == before + (slabs // 2) * width
    assert obj.resident_count() == resident + (slabs // 2) * width
    assert obj.page_at(97).seed == -1 and obj.page_at(resident).seed == 0


_restored = st.lists(st.tuples(st.integers(0, 6), st.integers(1, 12),
                               st.integers(0, 99), st.integers(-2, 2),
                               st.booleans()),
                     max_size=6)
_object_ops = st.lists(st.one_of(
    st.tuples(st.just("page"), st.integers(0, 63), st.integers(0, 99)),
    st.tuples(st.just("slab"), st.integers(0, 63), st.integers(1, 9),
              st.integers(0, 99)),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("runs"), st.integers(0, 63), st.integers(1, 12),
              st.integers(0, 99), st.integers(-2, 2), st.booleans()),
    st.tuples(st.just("clean"), st.integers(0, 63), st.integers(1, 40))),
    max_size=12)


def _runs_or_pages(obj, runs, as_runs, dirty):
    """Give ``obj`` the synthetic runs ``runs`` as runs or as one-page
    runs (pages), clean or ``dirty``."""
    if as_runs:
        obj.insert([(*run, dirty) for run in runs])
        return
    obj.insert([page_run(start + i, Page(seed=seed0 + step * i),
                         None if dirty else ("syn", start + i, 1,
                                             seed0 + step * i, 0))
                for _kind, start, count, seed0, step in runs
                for i in range(count)])


def _flush_clean(obj, lo, hi):
    """A flush of ``obj``'s content in ``[lo, hi)`` became durable:
    the object marks its runs there clean."""
    obj.mark_clean([clip_run(run, max(run[1], lo), min(run[1] + run[2], hi))
                    for run in obj.content()
                    if run[1] < hi and run[1] + run[2] > lo], None)


def _state(obj, pindex):
    page = obj.page_at(pindex)
    return None if page is None else (page.seed, clean_mark(obj, pindex))


@settings(max_examples=100, deadline=None)
@given(restored=_restored, ops=_object_ops,
       shadowed=st.sets(st.integers(0, 63), max_size=12),
       forward=st.booleans())
def test_runs_hold_what_pages_would(restored, ops, shadowed, forward):
    """Objects holding runs, clean or dirty, behave as ones holding the
    same content as ``Page`` values — content, clean marks, resident
    count and frames — through inserts, removals, marking a flushed
    range clean, either collapse direction and teardown."""
    runs, start = [], 0
    for gap, count, seed0, step, dirty in restored:
        start += gap
        if start + count <= 64:
            runs.append((("syn", start, count, seed0, step), dirty))
            start += count
    shadow_runs = []    # one run per stretch of consecutive indexes
    for pindex in sorted(shadowed):
        if shadow_runs and sum(shadow_runs[-1][1:3]) == pindex:
            _kind, start, count, seed0, step = shadow_runs.pop()
            shadow_runs.append(("syn", start, count + 1, seed0, step))
        else:
            shadow_runs.append(("syn", pindex, 1, 1000 + pindex, 1))
    observed = []
    for as_runs in (True, False):
        kernel = Machine().kernel
        before = kernel.physmem.used_frames
        parent = VMObject(kernel, 64)
        for run, dirty in runs:
            _runs_or_pages(parent, [run], as_runs, dirty)
        seen = []
        for op in ops:
            if op[0] == "page":
                parent.insert([page_run(op[1], Page(seed=op[2]))])
            elif op[0] == "slab":
                first = min(op[1], 64 - op[2])
                parent.insert(page_runs({first + i: Page(seed=op[3] + i)
                                         for i in range(op[2])}))
            elif op[0] == "remove":
                seen.append(_state(parent, op[1]))
                parent.remove(op[1], op[1] + 1)
            elif op[0] == "clean":
                _flush_clean(parent, op[1], op[1] + op[2])
            else:
                count = min(op[2], 64 - op[1])
                _runs_or_pages(parent, [("syn", op[1], count, op[3], op[4])],
                               as_runs, op[5])
            seen.append((parent.resident_count(), kernel.physmem.used_frames,
                         _state(parent, op[1])))
        shadow = parent.shadow()
        _runs_or_pages(shadow, shadow_runs, as_runs, True)
        if forward:
            moved, survivor = shadow.collapse_forward(), shadow
        else:
            survivor, moved = shadow.collapse_into_parent()
            survivor.unref()    # the reference the collapse handed over
        content = {p: _state(survivor, p) for p in held_pages(survivor)}
        held = [p for lo, hi in survivor.holding([(0, 64)])
                for p in range(lo, hi)]
        seen.append((moved, content, survivor.resident_count(),
                     kernel.physmem.used_frames, held == sorted(content)))
        shadow.unref()
        parent.unref()
        seen.append(kernel.physmem.used_frames - before)
        observed.append(seen)
    assert observed[0] == observed[1]
    assert observed[0][-1] == 0


def test_content_written_after_staging_stays_dirty(kernel):
    """Marking staged content clean leaves what was written over it
    since dirty: a real page replaced, a synthetic stretch of other
    seeds."""
    obj = VMObject(kernel, 12)
    obj.insert([("syn", 0, 8, 10, 1, True),
                page_run(8, Page(data=b"old")), page_run(9, Page(data=b"x"))])
    staged = obj.content()
    obj.insert([("syn", 2, 2, 500, 1, True), ("syn", 5, 1, 15, 0, True)])
    obj.insert([page_run(9, Page(data=b"new"))])
    _flush_clean_pieces(obj, staged)
    assert [pindex for pindex in range(10)
            if clean_mark(obj, pindex) is None] == [2, 3, 9]


def _flush_clean_pieces(obj, pieces):
    """``pieces`` of ``obj`` became durable, its real pages at one
    extent's slots in index order."""
    slots = [piece[1] for piece in pieces if piece[0] == "page"]
    obj.mark_clean(pieces, PageRuns([
        ["ext", pindex, 1, 7, PAGE_SIZE * slot, PAGE_SIZE]
        for slot, pindex in enumerate(slots)]))


def test_shadow_lookup_walks_chain(kernel):
    base = VMObject(kernel, 8)
    base.insert([page_run(0, Page(seed=100))])
    shadow = base.shadow()
    page, depth, owner = shadow.lookup_page(0)
    assert page.seed == 100
    assert depth == 1 and owner is base
    shadow.insert([page_run(0, Page(seed=200))])
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
        obj.insert([page_run(0, Page(seed=1))])


def _visible(obj, npages):
    return [obj.visible_page(i).seed if obj.visible_page(i) else None
            for i in range(npages)]


def test_collapse_into_parent_preserves_visibility(kernel):
    base = VMObject(kernel, 6)
    for i in range(4):
        base.insert([page_run(i, Page(seed=i))])
    mid = base.shadow()
    mid.insert([page_run(1, Page(seed=101))])
    mid.insert([page_run(4, Page(seed=104))])
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
        base.insert([page_run(i, Page(seed=i))])
    top = base.shadow()
    top.insert([page_run(1, Page(seed=201))])
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
        base.insert([page_run(pindex, Page(seed=seed))])
    mid = base.shadow()
    for pindex, seed in mid_pages.items():
        mid.insert([page_run(pindex, Page(seed=seed + 10_000))])
    top = mid.shadow()
    for pindex, seed in top_pages.items():
        top.insert([page_run(pindex, Page(seed=seed + 20_000))])
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
