"""Property tests for the extent allocator.

The never-overwrite guarantee of the store rests on two allocator
invariants, checked here over hypothesis-generated op sequences:

* **No double allocation** — live extents are pairwise disjoint,
  4 KiB-aligned, and inside ``[reserved, capacity)``.
* **Exact accounting** — ``free_bytes() + used_bytes()`` equals
  ``capacity - reserved`` after every operation: no byte is ever
  leaked or counted twice, through any interleaving of allocs, frees,
  coalescing and free-list reuse.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import InvalidArgument, StoreFull
from repro.objstore.blockalloc import ALIGN, ExtentAllocator, _align_up
from repro.units import STRIPE_SIZE

CAPACITY = 64 * STRIPE_SIZE
RESERVED = 2 * STRIPE_SIZE

# An op is ("alloc", nbytes) or ("free", pick) where pick indexes the
# live set at execution time — keeps sequences shrinkable.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"),
                  st.integers(min_value=1, max_value=3 * STRIPE_SIZE)),
        st.tuples(st.just("free"),
                  st.integers(min_value=0, max_value=2 ** 16)),
    ),
    max_size=80)


def _run(ops, alloc=None, live=None):
    """Execute ops against the allocator (a fresh one by default) and a
    shadow model of the live set; verify both invariants after every
    step."""
    if alloc is None:
        alloc = ExtentAllocator(CAPACITY, reserved=RESERVED)
    if live is None:
        live = {}  # offset -> aligned length
    for op, arg in ops:
        if op == "alloc":
            try:
                offset = alloc.alloc(arg)
            except StoreFull:
                continue
            length = _align_up(arg)
            # In bounds and aligned.
            assert offset % ALIGN == 0
            assert RESERVED <= offset
            assert offset + length <= CAPACITY
            # Disjoint from every live extent: no double allocation.
            for other_off, other_len in live.items():
                assert offset + length <= other_off or \
                    other_off + other_len <= offset, \
                    f"extent [{offset},{offset + length}) overlaps " \
                    f"live [{other_off},{other_off + other_len})"
            live[offset] = length
        else:
            if not live:
                continue
            offset = sorted(live)[arg % len(live)]
            length = live.pop(offset)
            alloc.free(offset, length)
        # Exact free-space accounting, every step.
        assert alloc.free_bytes() + alloc.used_bytes() == \
            CAPACITY - RESERVED
        assert alloc.used_bytes() == sum(live.values())
    return alloc, live


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_no_double_allocation_and_exact_accounting(ops):
    _run(ops)


@settings(max_examples=40, deadline=None)
@given(OPS)
def test_free_everything_restores_full_capacity(ops):
    alloc, live = _run(ops)
    for offset, length in sorted(live.items()):
        alloc.free(offset, length)
    assert alloc.used_bytes() == 0
    assert alloc.free_bytes() == CAPACITY - RESERVED


@settings(max_examples=40, deadline=None)
@given(OPS, OPS)
def test_a_rebuilt_allocator_keeps_exact_accounting(before, after):
    """A mount rebuilds the allocator from the superblock's cursor and
    the extents the owners hold (:meth:`ExtentAllocator.derive`): it
    has the free list and reports the used bytes the old one did, and
    stays exact through whatever follows."""
    alloc, live = _run(before)
    rebuilt = ExtentAllocator(CAPACITY, reserved=RESERVED,
                              cursor=alloc.cursor)
    rebuilt.restore((alloc.cursor, rebuilt.derive(live.items())))
    assert rebuilt.snapshot() == alloc.snapshot()
    assert rebuilt.used_bytes() == alloc.used_bytes() == sum(live.values())
    _run(after, rebuilt, live)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=STRIPE_SIZE),
                min_size=1, max_size=40))
def test_freed_space_is_reused_not_leaked(sizes):
    """Alloc-free-alloc of the same sizes never advances the bump
    cursor the second time: the free list satisfies the repeat."""
    alloc = ExtentAllocator(CAPACITY, reserved=RESERVED)
    extents = [(alloc.alloc(size), size) for size in sizes]
    for offset, size in extents:
        alloc.free(offset, size)
    cursor = alloc.cursor
    for size in sizes:
        alloc.alloc(size)
    assert alloc.cursor == cursor


def test_bad_arguments_rejected():
    with pytest.raises(InvalidArgument):
        ExtentAllocator(STRIPE_SIZE, reserved=2 * STRIPE_SIZE)
    alloc = ExtentAllocator(CAPACITY, reserved=RESERVED)
    with pytest.raises(InvalidArgument):
        alloc.alloc(0)


def test_exhaustion_is_exact():
    """The allocator hands out every last aligned byte, then StoreFull."""
    alloc = ExtentAllocator(CAPACITY, reserved=RESERVED)
    count = (CAPACITY - RESERVED) // ALIGN
    for _ in range(count):
        alloc.alloc(ALIGN)
    assert alloc.free_bytes() == 0
    with pytest.raises(StoreFull):
        alloc.alloc(1)
