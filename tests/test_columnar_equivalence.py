"""Observational equivalence of the columnar hot path vs the legacy one.

The bitmap :class:`Pmap`, the run-based shadow merge and the slab
collapse replaced per-page dict implementations for scale; the legacy
implementations are the reference models in ``tests/vm_reference.py``.
These properties drive both sides with identical randomized inputs and
assert identical observable state: mapped/writable/dirty sets,
downgrade counts, merge results, frame accounting and restored memory
contents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.errors import SegmentationFault
from repro.hw.memory import Page
from repro.kernel.vm.pmap import Pmap, iter_bit_runs
from repro.kernel.vm.vmobject import VMObject
from repro.core.shadowing import merged_chain_pages
from repro.units import PAGE_SIZE
from tests import vm_reference
from tests.vm_reference import (LegacyPmap, collapse_into_parent_legacy,
                                legacy_hot_path, merged_chain_pages_legacy)

PAGES = 96  # page-number space the random ops draw from


# -- Pmap.mark_dirty regression (typed fault, not KeyError) ---------------------


@pytest.mark.parametrize("pmap_cls", [Pmap, LegacyPmap])
def test_mark_dirty_unmapped_raises_typed_fault(pmap_cls):
    pmap = pmap_cls()
    with pytest.raises(SegmentationFault, match="no PTE installed"):
        pmap.mark_dirty(0x44)
    # Never a bare KeyError, and a mapped page still works.
    pmap.enter(0x44, writable=True)
    pmap.mark_dirty(0x44)
    assert pmap.dirty_pages() == [0x44]


@pytest.mark.parametrize("pmap_cls", [Pmap, LegacyPmap])
def test_mark_dirty_after_remove_raises(pmap_cls):
    pmap = pmap_cls()
    pmap.enter(7, writable=True)
    pmap.remove(7)
    with pytest.raises(SegmentationFault):
        pmap.mark_dirty(7)


# -- bitmap pmap vs dict-of-PTE pmap ---------------------------------------------


def _page(draw_int):
    return st.integers(min_value=0, max_value=PAGES - 1)


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enter"), st.integers(0, PAGES - 1),
                  st.booleans()),
        st.tuples(st.just("enter_range"), st.integers(0, PAGES - 1),
                  st.integers(0, 16), st.booleans(), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("remove_range"), st.integers(0, PAGES - 1),
                  st.integers(0, 16)),
        st.tuples(st.just("protect"), st.integers(0, PAGES - 1),
                  st.integers(0, PAGES)),
        st.tuples(st.just("dirty"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("dirty_range"), st.integers(0, PAGES - 1),
                  st.integers(0, PAGES)),
        st.tuples(st.just("writable_runs"), st.integers(0, PAGES - 1),
                  st.integers(0, PAGES)),
        st.tuples(st.just("collect"), st.integers(0, PAGES - 1),
                  st.integers(0, PAGES)),
    ),
    max_size=60)


def _observe(pmap):
    return {
        "resident": pmap.resident_pages(),
        "mapped": [p for p in range(PAGES) if pmap.is_mapped(p)],
        "writable": [p for p in range(PAGES) if pmap.is_writable(p)],
        "dirty": pmap.dirty_pages(),
        "downgrades": pmap.wp_downgrades,
    }


@pytest.mark.parametrize("chunk_bits", [4096, 32, 64],
                         ids=["default-chunk", "tiny-chunk", "word-chunk"])
@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_pmap_equivalence(chunk_bits, ops):
    # The small chunks force the 96-page op space to span chunk
    # boundaries, exercising mask splitting and run stitching.
    new, old = Pmap(chunk_bits=chunk_bits), LegacyPmap()
    for op in ops:
        if op[0] == "enter":
            new.enter(op[1], op[2])
            old.enter(op[1], op[2])
        elif op[0] == "enter_range":
            new.enter_range(op[1], op[2], op[3], dirty=op[4])
            old.enter_range(op[1], op[2], op[3], dirty=op[4])
        elif op[0] == "remove":
            new.remove(op[1])
            old.remove(op[1])
        elif op[0] == "remove_range":
            new.remove_range(op[1], op[2])
            old.remove_range(op[1], op[2])
        elif op[0] == "protect":
            assert (new.write_protect_range(op[1], op[2])
                    == old.write_protect_range(op[1], op[2]))
        elif op[0] in ("dirty", "dirty_range"):
            # Same fault (naming the same page) after the same prefix
            # of pages was dirtied; the state check below sees the prefix.
            outcomes = []
            for pmap in (new, old):
                try:
                    if op[0] == "dirty":
                        pmap.mark_dirty(op[1])
                    else:
                        pmap.mark_dirty_range(op[1], op[2])
                    outcomes.append("ok")
                except SegmentationFault as fault:
                    outcomes.append(str(fault))
            assert outcomes[0] == outcomes[1]
        elif op[0] == "writable_runs":
            runs = list(new.writable_runs(op[1], op[2]))
            assert runs == list(old.writable_runs(op[1], op[2]))
            # Maximal runs tiling exactly the range asked for.
            assert sum(length for _s, length, _w in runs) == op[2]
            assert all(length > 0 for _s, length, _w in runs)
            for (s1, l1, w1), (s2, _l2, w2) in zip(runs, runs[1:]):
                assert s1 + l1 == s2 and w1 != w2
        elif op[0] == "collect":
            assert (list(new.collect_dirty(op[1], op[2]))
                    == list(old.collect_dirty(op[1], op[2])))
        assert _observe(new) == _observe(old)


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 300) - 1))
def test_iter_bit_runs_matches_bit_scan(bits):
    expanded = []
    for start, length in iter_bit_runs(bits):
        assert length > 0
        expanded.extend(range(start, start + length))
    assert expanded == [i for i in range(bits.bit_length())
                        if bits >> i & 1]
    # Runs are maximal: consecutive runs never touch.
    runs = list(iter_bit_runs(bits))
    for (s1, l1), (s2, _l2) in zip(runs, runs[1:]):
        assert s1 + l1 < s2


@settings(max_examples=200, deadline=None)
@given(values=st.sets(st.integers(0, 1 << 60), max_size=80))
def test_arith_runs_round_trip(values):
    from repro.core.runs import build_arith_runs, expand_arith_runs
    runs = build_arith_runs(values)
    assert expand_arith_runs(runs) == sorted(values)


# -- run-based shadow merge vs per-page setdefault merge -------------------------


_chain_layers = st.lists(
    st.dictionaries(st.integers(0, 31), st.integers(0, 1 << 30),
                    max_size=12),
    min_size=1, max_size=5)


def _build_chain(kernel, layers, foreign_base):
    """A shadow chain: base first, newest (top) last, one logical OID."""
    base = None
    if foreign_base:
        # A deeper object owned by a different logical OID: the merge
        # must stop before it.
        base = VMObject(kernel, 32, name="foreign")
        base.sls_oid = 999
        base.insert_pages({i: Page(seed=7000 + i) for i in range(0, 32, 3)})
    top = base
    for layer in layers:
        obj = (top.shadow() if top is not None else VMObject(kernel, 32))
        obj.sls_oid = 1
        obj.insert_pages({pindex: Page(seed=seed)
                          for pindex, seed in layer.items()})
        top = obj
    return top


@settings(max_examples=100, deadline=None)
@given(layers=_chain_layers, foreign_base=st.booleans())
def test_merged_chain_pages_equivalence(layers, foreign_base):
    kernel = Machine().kernel
    top = _build_chain(kernel, layers, foreign_base)
    bulk = merged_chain_pages(top)
    legacy = merged_chain_pages_legacy(top)
    # Identical keys AND identical page identity (newest wins).
    assert bulk.keys() == legacy.keys()
    for pindex in bulk:
        assert bulk[pindex] is legacy[pindex]


@settings(max_examples=100, deadline=None)
@given(parent_pages=st.dictionaries(st.integers(0, 31),
                                    st.integers(0, 1 << 30), max_size=16),
       shadow_pages=st.dictionaries(st.integers(0, 31),
                                    st.integers(0, 1 << 30), max_size=16))
def test_collapse_into_parent_equivalence(parent_pages, shadow_pages):
    """Slab collapse and page-at-a-time collapse agree on resulting
    pages, moved count and frame accounting."""
    results = []
    for legacy in (False, True):
        kernel = Machine().kernel
        parent = VMObject(kernel, 32)
        parent.insert_pages({p: Page(seed=s)
                             for p, s in parent_pages.items()})
        shadow = parent.shadow()
        shadow.insert_pages({p: Page(seed=s)
                             for p, s in shadow_pages.items()})
        parent.frozen = False
        shadow.frozen = False
        if legacy:
            merged_parent, moved = collapse_into_parent_legacy(shadow)
        else:
            merged_parent, moved = shadow.collapse_into_parent()
        results.append({
            "pages": {p: page.seed
                      for p, page in merged_parent.pages.items()},
            "moved": moved,
            "frames": kernel.physmem.used_frames,
            "shadow_empty": len(shadow.pages),
        })
        merged_parent.unref()  # the ref collapse_into_parent returned
    assert results[0] == results[1]


# -- end-to-end: columnar and legacy paths restore identical state ---------------


def _run_workload():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    addr = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    for round_no in range(4):
        proc.vmspace.write(addr + round_no * PAGE_SIZE,
                           f"round-{round_no}".encode())
        proc.vmspace.touch(addr + 32 * PAGE_SIZE, 8,
                           seed=100 + round_no)
        sls.checkpoint(group, sync=True)
    gid = group.group_id
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    result = sls2.restore(gid, periodic=False)
    space = result.root.vmspace
    return {
        "image": space.read(addr, 40 * PAGE_SIZE),
        "sim_ns": machine.clock.now(),
    }


def test_columnar_and_legacy_restore_identical_state():
    columnar = _run_workload()
    with legacy_hot_path():
        legacy = _run_workload()
    assert columnar == legacy


def test_legacy_hot_path_installs_the_reference_models(monkeypatch):
    """The harness really runs the patched-in path: a mutant of each
    reference model changes (or stops) the legacy run, and the
    production names are back once the block exits."""
    production = _run_workload()

    def merge_dropping_page_zero(top):
        pages = merged_chain_pages_legacy(top)
        pages.pop(0, None)
        return pages

    def collapse_that_refuses(shadow):
        raise AssertionError("reference collapse reached")

    def protect_nothing(pmap, start_page, npages):
        return 0

    with monkeypatch.context() as patch:
        patch.setattr(vm_reference, "merged_chain_pages_legacy",
                      merge_dropping_page_zero)
        with legacy_hot_path():
            assert _run_workload()["image"] != production["image"]
    with monkeypatch.context() as patch:
        patch.setattr(vm_reference, "collapse_into_parent_legacy",
                      collapse_that_refuses)
        with pytest.raises(AssertionError, match="reference collapse"):
            with legacy_hot_path():
                _run_workload()
    with monkeypatch.context() as patch:
        # No PTE is ever downgraded, so no COW-mark/shootdown page term.
        patch.setattr(LegacyPmap, "write_protect_range", protect_nothing)
        with legacy_hot_path():
            assert _run_workload()["sim_ns"] != production["sim_ns"]
    assert _run_workload() == production


@pytest.mark.parametrize("chunk_bits", [64, 4096])
def test_writable_runs_and_dirty_range_across_chunk_boundaries(chunk_bits):
    """Runs that start, end and continue exactly on chunk boundaries."""
    new, old = Pmap(chunk_bits=chunk_bits), LegacyPmap()
    edge = chunk_bits
    for pmap in (new, old):
        pmap.enter_range(edge - 3, 6, writable=True)        # straddles
        pmap.enter_range(edge + 3, 5, writable=False)
        pmap.enter_range(2 * edge - 2, edge + 4, writable=True)  # whole chunk
        pmap.mark_dirty_range(edge - 2, 9)
    span = (edge - 8, 2 * edge + 16)
    assert list(new.writable_runs(*span)) == list(old.writable_runs(*span)) == [
        (edge - 8, 5, False), (edge - 3, 6, True),
        (edge + 3, edge - 5, False), (2 * edge - 2, edge + 4, True),
        (3 * edge + 2, 6, False)]
    assert new.dirty_pages() == old.dirty_pages() \
        == list(range(edge - 2, edge + 7))
    # An unmapped page in the middle: the prefix is dirtied, then the
    # fault names that page.
    for pmap in (new, old):
        with pytest.raises(SegmentationFault, match=f"{edge + 8:#x}"):
            pmap.mark_dirty_range(edge + 6, edge)
    assert new.dirty_pages() == old.dirty_pages() \
        == list(range(edge - 2, edge + 8))
