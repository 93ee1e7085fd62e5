"""Hardware models: NVMe devices, striping, memory, CPUs, NIC."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core import costs, telemetry
from repro.errors import DeviceFull, InvalidArgument, StoreError
from repro.hw.clock import SimClock
from repro.hw.cpu import CPUSet
from repro.hw.memory import Page, PhysicalMemory, synthetic_bytes
from repro.hw.nic import NIC
from repro.hw.nvme import (DeferredPayload, NVMeDevice, StripedArray,
                           payload_length, synthetic_payload)
from repro.units import GiB, KiB, MiB, PAGE_SIZE, STRIPE_SIZE, USEC


# -- pages -------------------------------------------------------------------


def test_page_requires_exactly_one_payload():
    with pytest.raises(InvalidArgument):
        Page()
    with pytest.raises(InvalidArgument):
        Page(data=b"x", seed=1)


def test_page_realize_pads_to_page_size():
    page = Page(data=b"abc")
    content = page.realize()
    assert len(content) == PAGE_SIZE
    assert content.startswith(b"abc")


def test_synthetic_page_is_deterministic():
    assert Page(seed=7).realize() == Page(seed=7).realize()
    assert Page(seed=7).realize() != Page(seed=8).realize()
    assert synthetic_bytes(7, 100) == Page(seed=7).realize()[:100]


def _synthetic_bytes_formula(seed, length):
    """The synthetic page formula: the SHAKE-128 stream of
    ``f"{seed}:"``, cut to ``length`` (a 4 KiB page is one XOF call)."""
    import hashlib

    return hashlib.shake_128(f"{seed}:".encode()).digest(length)


@pytest.mark.parametrize("seed", [0, 7, -5, 2 ** 40])
def test_synthetic_bytes_keep_the_original_formula(seed):
    for length in (1, 31, 32, 33, 100, 4096, 8192):
        assert synthetic_bytes(seed, length) == \
            _synthetic_bytes_formula(seed, length), length
    assert Page(seed=seed).realize() == _synthetic_bytes_formula(seed,
                                                                 PAGE_SIZE)
    # A longer stream extends a shorter one: a cut page is a prefix.
    assert synthetic_bytes(seed, 8192)[:100] == synthetic_bytes(seed, 100)


def test_page_copy_preserves_content():
    real = Page(data=b"hello")
    syn = Page(seed=3)
    assert real.copy().same_content(real)
    assert syn.copy().same_content(syn)


def test_page_rejects_oversized_payload():
    with pytest.raises(InvalidArgument):
        Page(data=b"x" * (PAGE_SIZE + 1))


# -- physical memory ------------------------------------------------------------


def test_physmem_accounting():
    mem = PhysicalMemory(10 * PAGE_SIZE)
    assert mem.total_frames == 10
    mem.allocate(4)
    assert mem.used_frames == 4
    assert mem.free_frames == 6
    mem.release(2)
    assert mem.used_frames == 2


def test_physmem_overflow_is_an_error():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    with pytest.raises(MemoryError):
        mem.allocate(3)


def test_physmem_release_underflow_rejected():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    with pytest.raises(InvalidArgument):
        mem.release(1)


# -- NVMe ------------------------------------------------------------------------


def make_device(capacity=1 * GiB):
    """A one-device array: its offsets are the device's own, and every
    write takes the array's one queueing path."""
    clock = SimClock()
    return clock, StripedArray(clock, ndevices=1,
                               capacity_per_device=capacity)


def test_sync_write_read_round_trip():
    clock, dev = make_device()
    dev.write(0, b"hello world")
    assert dev.read(0) == b"hello world"


def test_write_beyond_capacity_rejected():
    clock = SimClock()
    dev = StripedArray(clock, ndevices=1, capacity_per_device=1024,
                       stripe=1024)
    with pytest.raises(DeviceFull):
        dev.submit_write(2000, b"x" * 100)


def test_read_of_unwritten_extent_fails():
    clock, dev = make_device()
    with pytest.raises(StoreError):
        dev.read(4096)


def test_async_write_not_visible_until_completion():
    clock, dev = make_device()
    done = dev.submit_write(0, b"payload")
    assert not dev.has_extent(0)
    clock.advance_to(done)
    assert dev.has_extent(0)


def test_crash_tears_inflight_writes():
    clock, dev = make_device()
    done1 = dev.submit_write(0, b"first")
    clock.advance_to(done1)
    dev.submit_write(8192, b"second")  # still in the queue
    lost = dev.discard_inflight()
    assert lost == 1
    assert dev.has_extent(0)
    assert not dev.has_extent(8192)


def test_sync_write_latency_matches_journal_calibration():
    """A 4 KiB queue-depth-1 sync write costs ~28 us (Table 5)."""
    clock, dev = make_device()
    start = clock.now()
    dev.write(0, b"x" * 4096, sync=True)
    elapsed = clock.now() - start
    assert 25 * USEC <= elapsed <= 32 * USEC


def test_async_writes_pipeline_at_bandwidth():
    """Many queued writes stream at device bandwidth: total time far
    below the sum of per-command latencies."""
    clock, dev = make_device()
    n = 100
    last = 0
    for i in range(n):
        last = dev.submit_write(i * STRIPE_SIZE * 4,
                                synthetic_payload(i, 4096))
    elapsed = last - clock.now()
    assert elapsed < n * costs.NVME_WRITE_LATENCY


def test_stripe_units_map_round_robin():
    clock = SimClock()
    array = StripedArray(clock, ndevices=4, capacity_per_device=1 * GiB)
    array.write(0, b"a")
    array.write(STRIPE_SIZE, b"b")
    array.write(2 * STRIPE_SIZE, b"c")
    array.write(3 * STRIPE_SIZE, b"d")
    counts = [dev.write_commands for dev in array.devices]
    assert counts == [1, 1, 1, 1]
    assert array.read(STRIPE_SIZE) == b"b"


def test_striped_aggregate_bandwidth_beats_single_device():
    """4 devices striped flush ~4x faster than one device."""
    def flush_time(ndev):
        clock = SimClock()
        array = StripedArray(clock, ndevices=ndev,
                             capacity_per_device=4 * GiB)
        total = 64 * MiB
        last = 0
        offset = 0
        while offset < total:
            last = array.submit_write(offset,
                                      synthetic_payload(0, STRIPE_SIZE))
            offset += STRIPE_SIZE
        return last

    t1 = flush_time(1)
    t4 = flush_time(4)
    assert t1 > 3 * t4


#: One command of a drawn batch: stripe unit, 4 KiB slot inside it,
#: real or synthetic, and a length that may spill past the unit.
_commands = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                               st.booleans(), st.integers(1, 80 * KiB)),
                     min_size=1, max_size=24)


def _batch_array(ndev, busy):
    """A fresh array whose devices are still busy with earlier work."""
    telemetry.reset()
    clock = SimClock()
    clock.advance(1000)
    array = StripedArray(clock, ndevices=ndev, capacity_per_device=1 * GiB)
    for device, ahead in zip(array.devices, busy):
        device._busy_until = clock.now() + ahead
    return array


def _device_state(array):
    """What each device shows: its queue, counts and latency series, and
    then, through a probe write submitted behind it, its backlog."""
    state = []
    for dev in array.devices:
        series = dev._t_write_ns
        state.append((list(dev.queued()), dev.bytes_written,
                      dev.write_commands, dev._t_bytes_written.value,
                      dev._t_write_commands.value, series.count,
                      series.total, series.min, series.max,
                      list(series.samples)))
    now = array.clock.now()
    return state, [dev.queue_run(0, 1, b"p", now, 0) for dev in array.devices]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 200_000), min_size=4,
                                   max_size=4),
       _commands, st.sampled_from((0, costs.STORE_ALLOC_EXTENT)))
def test_submit_writes_matches_the_per_command_loop(ndev, busy, commands,
                                                    gap):
    """A batch queues exactly what submitting its commands one at a
    time, the clock advanced by ``gap`` before each, queues: the same
    completion times, device state, clock and counts."""
    writes = [(unit * STRIPE_SIZE + slot * 4 * KiB,
               b"r" * length if real else synthetic_payload(unit, length))
              for unit, slot, real, length in commands]
    reference = _batch_array(ndev, busy)
    dones = []
    for offset, payload in writes:
        reference.clock.advance(gap)
        dones.append(reference.submit_write(offset, payload))
    expected = (max(dones), reference.clock.now(), _device_state(reference))

    batched = _batch_array(ndev, busy)
    got = batched.submit_writes(((offset, 1, payload)
                                 for offset, payload in writes), gap=gap)
    assert (got, batched.clock.now(), _device_state(batched)) == expected


def test_a_batch_books_one_span_per_touched_device():
    array = _batch_array(4, [0] * 4)
    writes = [(unit * STRIPE_SIZE, 1, synthetic_payload(unit, 1000 + unit))
              for unit in (0, 1, 4, 5, 8, 1)]
    array.submit_writes(writes)
    spans = [span for span in telemetry.registry().spans
             if span.name == "nvme.write"]
    assert [(span.labels["device"], span.labels["commands"],
             span.labels["bytes"]) for span in spans] == [
        ("nvd0", 3, 1000 + 1004 + 1008), ("nvd1", 3, 1001 + 1005 + 1001)]
    assert [dev.write_commands for dev in array.devices] == [3, 3, 0, 0]


def test_synthetic_payload_accounting():
    clock, dev = make_device()
    dev.write(0, synthetic_payload(seed=9, length=64 * KiB))
    assert dev.bytes_written == 64 * KiB
    payload = dev.read(0)
    assert payload == ("synthetic", 9, 64 * KiB)


class CountedPayload(DeferredPayload):
    """A deferred payload that counts its builds."""

    def __init__(self, content):
        self.content = content
        self.builds = 0

    def __len__(self):
        return len(self.content)

    def build(self):
        self.builds += 1
        return self.content


def test_a_deferred_payload_is_built_on_first_read_and_kept():
    clock = SimClock()
    dev = NVMeDevice(clock, 1 * GiB)
    deferred = CountedPayload(b"built when read")
    dev.place_extent(4096, deferred)
    assert payload_length(deferred) == len(b"built when read")
    assert deferred.builds == 0
    first = dev.read(4096)
    second, _done = dev.read_async(4096)
    assert first == b"built when read" and second is first
    assert deferred.builds == 1
    assert dev.bytes_read == 2 * len(first)


def test_extents_builds_deferred_payloads_without_io_or_clock():
    clock, array = make_device()
    array.write(0, b"real")
    array.write(8192, synthetic_payload(seed=3, length=4096))
    dev = array.devices[0]
    deferred = CountedPayload(b"deferred")
    dev.place_extent(65536, deferred)
    now, reads = clock.now(), (dev.bytes_read, dev.read_commands)
    assert list(dev.extents()) == [
        (0, b"real"), (8192, ("synthetic", 3, 4096)), (65536, b"deferred")]
    assert (clock.now(), (dev.bytes_read, dev.read_commands)) == (now, reads)
    # What extents() built is the payload from then on.
    assert dev.read(65536) == b"deferred"
    assert list(dev.extents())[-1] == (65536, b"deferred")
    assert deferred.builds == 1


# -- CPUs ------------------------------------------------------------------------------


def test_ipi_broadcast_charges_time_and_counts():
    clock = SimClock()
    cpus = CPUSet(clock, 8)
    elapsed = cpus.broadcast_ipi(4)
    assert elapsed > 0
    assert clock.now() == elapsed
    assert sum(c.ipi_count for c in cpus.cpus) == 4


def test_tlb_shootdown_caps_at_full_flush():
    clock = SimClock()
    cpus = CPUSet(clock, 4)
    small = cpus.tlb_shootdown(2, 4)
    clock2 = SimClock()
    cpus2 = CPUSet(clock2, 4)
    huge = cpus2.tlb_shootdown(2, 1_000_000)
    capped = (costs.TLB_SHOOTDOWN_BASE +
              costs.TLB_FULL_FLUSH_THRESHOLD_PAGES *
              costs.TLB_INVLPG_PER_PAGE)
    assert small < huge <= capped
    assert cpus2.cpus[0].tlb_flush_count == 1


def test_zero_core_operations_are_free():
    clock = SimClock()
    cpus = CPUSet(clock, 4)
    assert cpus.broadcast_ipi(0) == 0
    assert cpus.tlb_shootdown(0, 100) == 0
    assert clock.now() == 0


# -- NIC ------------------------------------------------------------------------------------


def test_nic_transfer_time_scales_with_size():
    clock = SimClock()
    nic = NIC(clock)
    small = nic.transfer_time(1000)
    large = nic.transfer_time(1_000_000)
    assert large > 100 * small


def test_nic_send_counts():
    clock = SimClock()
    nic = NIC(clock)
    nic.send(1500)
    assert nic.bytes_sent == 1500
    assert nic.packets_sent == 1
