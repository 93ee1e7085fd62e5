"""FDTable descriptor allocation against the linear scan it replaced.

``install(fd=None)`` must hand out the POSIX lowest-numbered free
descriptor.  The table finds it with a min-heap of freed descriptors
plus a high-water mark; the reference model here is the scan from 0
the table used to do on every ``open``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine
from repro.kernel.fs.file import FDTable, OpenFile
from repro.kernel.kobject import KObject


def _lowest_free_by_scan(used) -> int:
    fd = 0
    while fd in used:
        fd += 1
    return fd


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.just(0)),
        st.tuples(st.just("close"), st.integers(0, 63)),
        st.tuples(st.just("dup2"), st.integers(0, 40)),
        st.tuples(st.just("fork"), st.just(0)),
        st.tuples(st.just("close_all"), st.just(0)),
    ),
    max_size=80)


@given(_ops)
@settings(max_examples=200, deadline=None)
def test_lowest_free_matches_linear_scan(ops):
    kernel = Machine().kernel
    table = FDTable(kernel)
    file = OpenFile(kernel, KObject(kernel), "device")
    used = set()
    for op, arg in ops:
        if op == "open":
            expected = _lowest_free_by_scan(used)
            assert table.install(file) == expected
            used.add(expected)
        elif op == "close":
            # Index into the open descriptors so closes mostly hit.
            if used:
                fd = sorted(used)[arg % len(used)]
                table.close(fd)
                used.discard(fd)
        elif op == "dup2":
            # An explicit slot (dup2, restore): may be below, at or far
            # above the high-water mark, open or free.
            if used:
                table.dup2(min(used), arg)
                used.add(arg)
        elif op == "fork":
            table = table.fork_copy()
        elif op == "close_all":
            table.close_all()
            used.clear()
        assert set(table.fds()) == used


def test_closed_descriptor_is_reused_before_the_high_water_mark():
    kernel = Machine().kernel
    table = FDTable(kernel)
    file = OpenFile(kernel, KObject(kernel), "device")
    assert [table.install(file) for _ in range(5)] == [0, 1, 2, 3, 4]
    table.close(3)
    table.close(1)
    assert table.install(file) == 1
    assert table.install(file) == 3
    assert table.install(file) == 5
    # An explicit install above the mark leaves the gap allocatable.
    table.install(file, fd=9)
    assert [table.install(file) for _ in range(4)] == [6, 7, 8, 10]
