"""A flush's synthetic runs equal the per-stripe loop.

The flush allocates, queues and books an object's synthetic stripes as
one run: :meth:`ExtentAllocator.alloc_run` hands the extents out in one
call, :meth:`StripedArray.submit_writes` books each device's share in
closed form, and one queue entry lands each stripe at its own
completion time.  The per-stripe loop is kept as the reference:
``count`` calls of ``alloc``, every run split into runs of one (the
array's one-command recurrence, itself held to the textbook recurrence
here) and ``tests/pack_reference.py`` for the store.  Both must hand
out the same offsets and owned extents, and leave the same completion
times, clock, counters, ``nvme.write`` series and spans.  At any
instant inside a run, ``poll`` must land the same writes and a power
failure must lose the same count.  The comparison is of what a device
shows (its queue, media, counts and the completion of a probe write
queued behind it), not of how its queue is kept.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro import Machine
from repro.core import costs, telemetry
from repro.errors import StoreFull
from repro.hw.clock import SimClock
from repro.hw.nvme import StripedArray, payload_length, synthetic_payload
from repro.objstore.blockalloc import ALIGN, ExtentAllocator, _align_up
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore.store import ObjectStore
from repro.units import GiB, KiB, PAGE_SIZE, STRIPE_SIZE
from tests.pack_reference import pack_pages_per_page

#: Stripes in vm_wide's first full checkpoint: one run.
BIG_RUN = 8192

#: Host time between commands: none, the store's allocation charge, and
#: gaps long enough that submissions outpace a stripe's transfer on four
#: devices (the closed form's second regime).
GAPS = (0, costs.STORE_ALLOC_EXTENT, 20_000)


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    yield
    telemetry.reset()


# -- the allocator -------------------------------------------------------------

#: A free-list hole in 4 KiB units: smaller than, equal to, a few times
#: and misaligned with a stripe (16 units).
_hole_units = st.sampled_from((1, 7, 15, 16, 17, 31, 32, 33, 48, 70))


@st.composite
def free_lists(draw):
    """``(capacity, cursor, holes)``: holes between used stretches below
    the cursor, and room past it that may run out mid-run."""
    at = 2 * STRIPE_SIZE
    holes = []
    for used, hole in draw(st.lists(st.tuples(st.integers(1, 20),
                                              _hole_units), max_size=6)):
        at += used * ALIGN
        holes.append((at, hole * ALIGN))
        at += hole * ALIGN
    return at + draw(st.integers(1, 5000)) * ALIGN, at, holes


def _allocator(capacity, cursor, holes):
    alloc = ExtentAllocator(capacity, cursor=cursor)
    for offset, length in holes:
        alloc.free(offset, length)
    return alloc


def _one_at_a_time(alloc, nbytes, count):
    offsets = []
    try:
        for _ in range(count):
            offsets.append(alloc.alloc(nbytes))
    except StoreFull as exc:
        return offsets, str(exc)
    return offsets, None


def _by_runs(alloc, nbytes, count, holes):
    want = _align_up(nbytes)
    offsets = []
    try:
        while len(offsets) < count:
            pieces = alloc.alloc_run(nbytes, count - len(offsets))
            # A few contiguous pieces: at most one per hole, and the tail.
            assert len(pieces) <= len(holes) + 1
            for offset, taken in pieces:
                offsets.extend(range(offset, offset + taken * want, want))
    except StoreFull as exc:
        return offsets, str(exc)
    return offsets, None


@settings(max_examples=150, deadline=None)
@given(free_lists(), st.sampled_from((STRIPE_SIZE, STRIPE_SIZE - ALIGN,
                                      20 * KiB + 1)),
       st.integers(1, 300))
@example((2 * STRIPE_SIZE + (BIG_RUN + 40) * STRIPE_SIZE,
          2 * STRIPE_SIZE + 40 * STRIPE_SIZE,
          [(2 * STRIPE_SIZE + ALIGN, 3 * STRIPE_SIZE + ALIGN)]),
         STRIPE_SIZE, BIG_RUN)
def test_alloc_run_hands_out_what_the_first_fit_loop_does(shape, nbytes,
                                                          count):
    """Same offsets, same ``StoreFull`` at the same extent, same cursor
    and free list after."""
    loop = _allocator(*shape)
    runs = _allocator(*shape)
    assert _by_runs(runs, nbytes, count, shape[2]) == \
        _one_at_a_time(loop, nbytes, count)
    assert runs.snapshot() == loop.snapshot()


# -- the array -------------------------------------------------------------------

#: A run: first stripe unit, 4 KiB slot inside it, stripes, and whether
#: it is synthetic stripes or one write of the given length.
_runs = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 15),
                           st.integers(1, 300), st.booleans(),
                           st.integers(1, 80 * KiB)),
                 min_size=1, max_size=4)


def _writes(runs):
    writes = []
    for unit, slot, count, synthetic, length in runs:
        offset = unit * STRIPE_SIZE + slot * 4 * KiB
        if synthetic:
            writes.append((offset, count,
                           synthetic_payload(unit, STRIPE_SIZE)))
        else:
            writes.append((offset, 1, b"r" * length))
    return writes


def _per_command(writes):
    """Every run as runs of one: the per-stripe loop."""
    return [(offset + k * payload_length(payload), 1, payload)
            for offset, count, payload in writes for k in range(count)]


def _array(ndev, busy, enabled):
    """A fresh array whose devices are still busy with earlier work."""
    telemetry.reset()
    telemetry.set_enabled(enabled)
    clock = SimClock()
    clock.advance(1000)
    array = StripedArray(clock, ndevices=ndev, capacity_per_device=4 * GiB)
    for device, ahead in zip(array.devices, busy):
        device._busy_until = clock.now() + ahead
    return array


def _devices(array):
    """What each device shows: its queue, counts and latency series."""
    return [(list(dev.queued()), dev.bytes_written, dev.write_commands,
             dev._t_bytes_written.value, dev._t_write_commands.value,
             dev._t_write_ns.count, dev._t_write_ns.total,
             dev._t_write_ns.min, dev._t_write_ns.max,
             list(dev._t_write_ns.samples))
            for dev in array.devices]


def _spans(*names):
    return [(span.name, span.labels, span.start_ns, span.end_ns)
            for span in telemetry.registry().spans if span.name in names]


def _inside(array, cancel_at, instant):
    """Cancel one write, land what is due at ``instant``, probe each
    device's backlog with a write submitted then, and fail the power."""
    cancelled = array.cancel_extent(cancel_at)
    queues = [list(dev.queued()) for dev in array.devices]
    array.clock.advance_to(instant)
    array.poll()
    media = [dict(dev.extents()) for dev in array.devices]
    now = array.clock.now()
    probes = [dev.queue_run(0, 1, b"p", now, 0) for dev in array.devices]
    return cancelled, queues, media, probes, array.discard_inflight()


def _textbook(busy, commands, t0, gap, ndev):
    """The recurrence one command at a time: per device, each command's
    ``(completion, latency sample)``."""
    busy = list(busy)
    per_device = [[] for _ in range(ndev)]
    for index, (offset, _count, payload) in enumerate(commands):
        submit = t0 + (index + 1) * gap
        device = (offset // STRIPE_SIZE) % ndev
        start = max(submit, busy[device])
        busy[device] = start + (payload_length(payload) * 1_000_000_000
                                // costs.NVME_WRITE_BW)
        done = busy[device] + costs.NVME_WRITE_LATENCY
        per_device[device].append((done, done - submit))
    return per_device


def _submit(ndev, busy, writes, gap, enabled):
    array = _array(ndev, busy, enabled)
    last = array.submit_writes(writes, gap=gap)
    return array, {"last": last, "clock": array.clock.now(),
                   "devices": _devices(array),
                   "spans": _spans("nvme.write")}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 5_000_000), min_size=4,
                                   max_size=4),
       _runs, st.sampled_from(GAPS), st.booleans(), st.data())
@example(4, [0, 90_000, 0, 3_000_000], [(3, 5, BIG_RUN, True, 1)],
         costs.STORE_ALLOC_EXTENT, True, None)
def test_a_run_books_what_the_per_stripe_loop_books(ndev, busy, runs, gap,
                                                    enabled, data):
    writes = _writes(runs)
    commands = _per_command(writes)
    reference, expected = _submit(ndev, busy, commands, gap, enabled)
    # The reference is the textbook recurrence.
    per_device = _textbook([1000 + ahead for ahead in busy], commands, 1000,
                           gap, ndev)
    for dev, queue, book in zip(reference.devices, expected["devices"],
                                per_device):
        assert [done for done, _offset, _payload in queue[0]] == \
            [done for done, _sample in book]
        if enabled:
            assert queue[-1] == [sample for _done, sample in book]
    array, got = _submit(ndev, busy, writes, gap, enabled)
    assert got == expected

    # Inside the run: one stripe cancelled, what lands at a completion
    # time (or just before it), and what a power failure then loses.
    dones = sorted(done for dev in reference.devices
                   for done, _offset, _payload in dev.queued())
    if data is None:
        pick, early, victim = len(dones) // 2, 1, len(commands) // 3
    else:
        pick = data.draw(st.integers(0, len(dones) - 1))
        early = data.draw(st.integers(0, 1))
        victim = data.draw(st.integers(0, len(commands) - 1))
    instant = dones[pick] - early
    cancel_at = commands[victim][0]
    assert _inside(array, cancel_at, instant) == \
        _inside(reference, cancel_at, instant)


# -- the store -------------------------------------------------------------------


@st.composite
def flushes(draw):
    """Objects' synthetic page counts (up to 300 stripes each, with a
    tail or not), holes to punch in the free list and device backlogs."""
    pages = draw(st.lists(st.integers(1, 300 * STRIPE_SIZE // PAGE_SIZE),
                          min_size=1, max_size=3))
    holes = draw(st.lists(st.tuples(st.integers(1, 20), _hole_units),
                          max_size=5))
    busy = draw(st.lists(st.integers(0, 2_000_000), min_size=4, max_size=4))
    return pages, holes, busy


def _flush(pages, holes, busy, enabled, per_stripe):
    """Commit the objects asynchronously; returns the store and what it
    did."""
    telemetry.reset()
    telemetry.set_enabled(enabled)
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    storage = machine.storage
    for index, ahead in enumerate(busy):
        # A backlog on each device, far from anything the store uses.
        storage.submit_write(200 * GiB + index * STRIPE_SIZE,
                             synthetic_payload(0, ahead + 1))
    for used, hole in holes:
        store.alloc.alloc(used * ALIGN)
        store.alloc.free(store.alloc.alloc(hole * ALIGN), hole * ALIGN)
    telemetry.registry().spans.clear()
    txn = store.begin_checkpoint(group_id=1)
    for serial, count in enumerate(pages, 1):
        txn.put_pages(make_oid(CLASS_MEMORY, serial),
                      [("syn", 0, count, 1000 * serial, 1, True)])
    with pytest.MonkeyPatch.context() as patch:
        if per_stripe:
            patch.setattr(ObjectStore, "_pack_pages", pack_pages_per_page)
        info = store.commit(txn)
    return store, {
        "extents": list(info.owned_extents), "data_bytes": info.data_bytes,
        "data_done": txn.data_done, "clock": machine.clock.now(),
        "alloc": store.alloc.snapshot(), "used": store.used_bytes(),
        "devices": _devices(storage),
        "spans": _spans("nvme.write", "store.flush")}


@settings(max_examples=40, deadline=None)
@given(flushes(), st.booleans(), st.data())
@example(([BIG_RUN * STRIPE_SIZE // PAGE_SIZE], [(3, 17)], [0] * 4), True,
         None)
def test_a_flush_of_runs_equals_the_per_stripe_flush(flush, enabled, data):
    reference, expected = _flush(*flush, enabled, per_stripe=True)
    store, got = _flush(*flush, enabled, per_stripe=False)
    assert got == expected
    extents = expected["extents"]
    dones = sorted(done for dev in reference.device.devices
                   for done, _offset, _payload in dev.queued())
    if data is None:
        pick, victim = len(dones) // 2, len(extents) // 2
    else:
        pick = data.draw(st.integers(0, len(dones) - 1))
        victim = data.draw(st.integers(0, len(extents) - 1))
    cancel_at = extents[victim][0]
    assert _inside(store.device, cancel_at, dones[pick]) == \
        _inside(reference.device, cancel_at, dones[pick])


def test_a_drained_bench_filesystem_has_nothing_queued():
    """The array has one settle rule, its last write's completion: a
    benchmark phase that ends with ``sync`` ends once every write has
    landed, not when the last transfer ends (``NVME_WRITE_LATENCY``
    earlier)."""
    from repro.slsfs import mount_ffs
    from repro.workloads.filebench import FileBench

    machine = Machine()
    fs = mount_ffs(machine)
    bench = FileBench(machine)
    file = bench.create("/x")
    for index in range(64):
        bench.write(file, index * 64 * KiB, 64 * KiB, seed=index)
    last = machine.storage.last_completion
    fs.sync()
    assert not [write for device in machine.storage.devices
                for write in device.queued()]
    assert machine.clock.now() >= last > 0
