"""A checkpoint's flush is one batch of device writes.

``ObjectStore.commit`` hands every page and record extent of a
checkpoint to ``StripedArray.submit_writes`` in one call.  The fault
plan still sees each command on its own — its ``io`` log, crashes,
torn writes, transient errors and ENOSPC land on exactly the command
they name, and nothing after it is allocated or queued — while the
telemetry is booked once per device per batch: one ``nvme.write``
span whose ``commands`` / ``bytes`` labels add up to the batch, and
one latency sample per command in the device's series.
"""

from __future__ import annotations

import pytest

from repro import Machine, load_aurora
from repro.core import costs, telemetry
from repro.core.faults import IO, FaultPlan, InjectedCrash
from repro.core.resilience import RetryPolicy
from repro.errors import NoSpace, ReproError, RetriesExhausted
from repro.hw.clock import SimClock
from repro.hw.memory import Page
from repro.hw.nvme import StripedArray, payload_length, synthetic_payload
from repro.objstore.blockalloc import _align_up
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore.store import ObjectStore
from repro.units import GiB, KiB, MSEC, PAGE_SIZE, STRIPE_SIZE
from tests.content import page_runs
from tests.pack_reference import pack_pages_per_page

MEM_OID = make_oid(CLASS_MEMORY, 7)


def _store():
    """A formatted store with nothing left in any device queue."""
    telemetry.reset()
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    machine.storage.poll()
    telemetry.registry().spans.clear()
    return machine, store


def _staged(store):
    """A transaction whose flush is seven commands over every device:
    two full stripes of real pages, two synthetic extents, the real
    tail and two record extents."""
    txn = store.begin_checkpoint(group_id=1)
    pages = {pindex: Page(data=b"real %d" % pindex) for pindex in range(40)}
    pages.update({pindex: Page(seed=pindex) for pindex in range(40, 60)})
    txn.put_pages(MEM_OID, page_runs(pages))
    for serial in range(300):
        txn.put_object(make_oid(CLASS_MEMORY, 100 + serial), "blob",
                       {"serial": serial})
    return txn


@pytest.fixture(scope="module")
def commands():
    """The flush's commands, in order: ``(array offset, length)``."""
    _machine, store = _store()
    info = store.commit(_staged(store))
    return list(info.owned_extents)


def _queued(array):
    """Every queued write as ``(device, local offset)``."""
    return sorted((dev.name, offset) for dev in array.devices
                  for _done, offset, _payload in dev.queued())


def _where(array, offsets):
    return sorted((device.name, local) for device, local in
                  (array._device_for(offset) for offset in offsets))


def _nvme_spans():
    return [span for span in telemetry.registry().spans
            if span.name == "nvme.write"]


def test_the_probed_flush_spans_every_device(commands):
    assert len(commands) == 7
    machine, _store_ = _store()
    assert {machine.storage._device_for(offset)[0].name
            for offset, _length in commands} == {"nvd0", "nvd1", "nvd2",
                                                 "nvd3"}


def test_the_plan_logs_one_io_entry_per_command_in_order(commands):
    machine, store = _store()
    plan = FaultPlan()
    machine.set_fault_plan(plan)
    store.commit(_staged(store))
    assert plan.log == [(IO, offset, "write") for offset, _ in commands]


@pytest.mark.parametrize("k", [0, 3, 6])
@pytest.mark.parametrize("kind", ["crash", "torn"])
def test_a_fault_mid_batch_stops_at_its_command(commands, kind, k):
    """Commands before ``k`` are queued and booked; ``k`` itself is
    torn (its prefix durable) or never issued; nothing after it is
    allocated, queued or logged."""
    machine, store = _store()
    plan = FaultPlan()
    if kind == "crash":
        plan.crash_at(IO, k)
    else:
        plan.torn_at_io(k)
    machine.set_fault_plan(plan)
    array = machine.storage
    issued = sum(dev.write_commands for dev in array.devices)
    txn = _staged(store)
    with pytest.raises(InjectedCrash):
        store.commit(txn)
    assert txn.info.owned_extents == commands[:k + 1]
    assert _queued(array) == _where(array, [o for o, _ in commands[:k]])
    assert plan.log == [(IO, o, "write")
                        for o, _ in commands[:k + (kind == "torn")]]
    device, local = array._device_for(commands[k][0])
    torn = device._extents.get(local)
    if kind == "torn":
        assert payload_length(torn) == max(1, commands[k][1] // 2)
    else:
        assert torn is None
    booked = [(span.labels["commands"], span.labels["bytes"])
              for span in _nvme_spans()]
    assert sum(count for count, _ in booked) == k
    assert sum(nbytes for _, nbytes in booked) == sum(
        length for _, length in commands[:k])
    assert sum(dev.write_commands for dev in array.devices) == issued + k


def _writes():
    return [(unit * STRIPE_SIZE + (unit % 3) * 4 * KiB, 1,
             synthetic_payload(unit, 20 * KiB + unit)
             if unit % 2 else b"x" * (40 * KiB + unit))
            for unit in (0, 1, 2, 3, 5, 9, 4)]


def _transient_run(batched, k, times):
    """Drive ``_writes`` past a transient fault at command ``k``, as
    one batch or as the per-command ``retry.run`` loop the store used
    to run; returns everything the two must agree on."""
    telemetry.reset()
    clock = SimClock()
    array = StripedArray(clock, ndevices=4, capacity_per_device=1 * GiB)
    plan = FaultPlan()
    plan.clock = clock
    plan.transient_at_io(k, times=times)
    array.fault_plan = plan
    retry = RetryPolicy(clock, seed=0x51, op="store")

    def drawn():
        for write in _writes():
            clock.advance(costs.STORE_ALLOC_EXTENT)
            yield write

    def one_at_a_time():
        return max(retry.run(lambda: array.submit_write(offset, payload),
                             op="store.flush")
                   for offset, _count, payload in drawn())

    done, error = None, None
    try:
        if batched:
            done = array.submit_writes(drawn(), retry, "store.flush")
        else:
            done = one_at_a_time()
    except RetriesExhausted as exc:
        error = str(exc)
    registry = telemetry.registry()
    return {
        "done": done, "error": error, "clock": clock.now(),
        "retries": registry.value("sls.resilience.retries", op="store.flush"),
        "exhausted": registry.value("sls.resilience.exhausted",
                                    op="store.flush"),
        "backoff": [(span.start_ns, span.end_ns, span.labels)
                    for span in registry.spans
                    if span.name == "resilience.backoff"],
        "queued": [list(dev.queued()) for dev in array.devices],
        "log": list(plan.log),
        "fired": [(event.kind, event.io_index) for event in plan.events],
    }


@pytest.mark.parametrize("k", [0, 4, 6])
@pytest.mark.parametrize("times", [2, 5])
def test_a_transient_error_mid_batch_retries_only_its_command(k, times):
    """Same clock, retry counters and backoff spans as the per-command
    loop: two fails are absorbed, five exhaust the policy at ``k``."""
    batched = _transient_run(True, k, times)
    assert batched == _transient_run(False, k, times)
    assert batched["retries"] == min(times, 4)
    if times == 5:
        assert batched["error"] is not None
        assert sum(len(queue) for queue in batched["queued"]) == k
    else:
        assert sum(len(queue) for queue in batched["queued"]) == len(
            _writes())


def test_injected_nospace_mid_batch_frees_every_owned_extent(commands):
    """ENOSPC at command 4 aborts the checkpoint: every extent it owned
    goes back, its queued writes are cancelled, and commands after the
    failed one were never allocated."""
    machine, store = _store()
    before = store.alloc.snapshot()
    used = store.alloc.used_bytes()
    plan = FaultPlan().nospace_at_io(4)
    machine.set_fault_plan(plan)
    txn = _staged(store)
    with pytest.raises(NoSpace):
        store.commit(txn)
    assert txn.aborted and txn.info.owned_extents == []
    assert store.alloc.used_bytes() == used
    reached = sum(_align_up(length) for _, length in commands[:5])
    assert store.alloc.cursor == before[0] + reached
    assert _queued(machine.storage) == []


def test_a_flush_books_one_span_per_touched_device(commands):
    """Exactly one ``nvme.write`` span per device the flush touched;
    its labels add up to the batch."""
    machine, store = _store()
    info = store.commit(_staged(store))
    spans = _nvme_spans()
    devices = [span.labels["device"] for span in spans]
    assert sorted(devices) == ["nvd0", "nvd1", "nvd2", "nvd3"]
    assert sum(span.labels["commands"] for span in spans) == len(commands)
    assert sum(span.labels["bytes"] for span in spans) == sum(
        length for _, length in info.owned_extents)
    for span in spans:
        device = machine.storage.devices[int(span.labels["device"][3:])]
        assert span.end_ns == max(done for done, _off, _payload
                                  in device.queued())


def test_each_write_series_counts_every_command():
    """A device's ``nvme.write`` series holds one sample per write
    command, whether it was queued alone or in a batch."""
    telemetry.reset()
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(48 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 48, seed=3)
    group = sls.attach(proc, name="app", period_ns=10 * MSEC)
    for step in range(4):
        proc.vmspace.write(addr + step * PAGE_SIZE, b"step %d" % step)
        sls.checkpoint(group, sync=True)
    registry = telemetry.registry()
    for device in machine.storage.devices:
        series = registry.histogram("nvme.write", device=device.name)
        assert device.write_commands > 0
        assert series.count == device.write_commands == \
            registry.value("nvme.write_commands", device=device.name)


# -- faults inside a synthetic run ------------------------------------------------

#: A synthetic object of ten full stripes and a tail: one run and a run
#: of one, commands 0..10 of the flush.
RUN_PAGES = 10 * STRIPE_SIZE // PAGE_SIZE + 3


def _run_flush(per_stripe, plan=None, room=None):
    """Commit one synthetic run, its ``_pack_pages`` the production one
    or the per-stripe reference, past ``plan`` and with ``room`` bytes
    left in the allocator; returns what both must agree on."""
    machine, store = _store()
    if room is not None:
        store.alloc.capacity = store.alloc.cursor + room
    before = (store.alloc.used_bytes(), store.alloc.free_bytes())
    if plan is not None:
        machine.set_fault_plan(plan)
    txn = store.begin_checkpoint(group_id=1)
    txn.put_pages(MEM_OID, [("syn", 0, RUN_PAGES, 11, 1, True)])
    error = None
    with pytest.MonkeyPatch.context() as patch:
        if per_stripe:
            patch.setattr(ObjectStore, "_pack_pages", pack_pages_per_page)
        try:
            store.commit(txn)
        except ReproError as exc:
            error = (type(exc).__name__, str(exc))
    array = machine.storage
    return {
        "error": error, "aborted": txn.aborted,
        "extents": list(txn.info.owned_extents),
        "log": None if plan is None else list(plan.log),
        "fired": None if plan is None else [
            (event.kind, event.io_index) for event in plan.events],
        "alloc": store.alloc.snapshot(), "before": before,
        "after": (store.alloc.used_bytes(), store.alloc.free_bytes()),
        "clock": machine.clock.now(),
        "queued": [list(dev.queued()) for dev in array.devices],
        "media": [dict(dev.extents()) for dev in array.devices],
        "counts": [(dev.write_commands, dev.bytes_written)
                   for dev in array.devices],
        "spans": [(span.labels, span.start_ns, span.end_ns)
                  for span in _nvme_spans()]}


_MID_RUN = 5


@pytest.mark.parametrize("plant", [
    lambda plan: plan.crash_at(IO, _MID_RUN),
    lambda plan: plan.torn_at_io(_MID_RUN),
    lambda plan: plan.transient_at_io(_MID_RUN, times=2),
    lambda plan: plan.transient_at_io(_MID_RUN, times=5),
    lambda plan: plan.nospace_at_io(_MID_RUN),
], ids=["crash", "torn", "transient", "transient-exhausted", "nospace"])
def test_a_fault_inside_a_synthetic_run_stops_where_the_loop_does(plant):
    """The fault lands on the command it names, inside the run: the same
    log, the same command stopped, the same extents owned, allocated
    and queued as the per-stripe loop; an abort frees every one."""
    got = _run_flush(False, plant(FaultPlan()))
    assert got == _run_flush(True, plant(FaultPlan()))
    if got["aborted"]:
        assert got["extents"] == [] and got["after"] == got["before"]
        assert got["queued"] == [[] for _ in got["queued"]]
    elif got["error"] is not None:
        assert len(got["extents"]) == _MID_RUN + 1


def test_the_store_filling_up_inside_a_run_stops_where_the_loop_does():
    """The allocator runs out at the sixth stripe of the run: the five
    before it were queued, the checkpoint aborts, and the allocator's
    used and free bytes are what they were before the checkpoint."""
    room = 5 * STRIPE_SIZE + 4 * KiB
    got = _run_flush(False, room=room)
    assert got == _run_flush(True, room=room)
    assert got["error"][0] == "StoreFull" and got["aborted"]
    assert got["after"] == got["before"]
    assert sum(span["commands"] for span, _start, _end in got["spans"]) == 5
