"""The crash-persistent flight recorder.

The recorder's contract has three legs, each tested here against the
live store rather than mocks:

* **Fixed-size, zero-cost persistence** — every snapshot is exactly
  ``FLIGHTREC_BYTES`` on media and rides the commit protocol without
  advancing the simulated clock, so instrumented and uninstrumented
  runs keep identical timings, allocator state and crash schedules.
* **Recoverability** — ``blackbox`` reconstructs the timeline from an
  unmounted (or unmountable) store's raw superblock slots, ending at
  the last durable commit.
* **Volatile merge** — the surviving in-process event ring appends
  the post-snapshot tail (the history that never reached durability),
  each row marked ``post_snapshot``.
"""

import sys

import pytest

from repro import Machine, load_aurora
from repro.core import events, flightrec, telemetry
from repro.objstore import records
from repro.objstore.store import ObjectStore
from repro.units import MSEC, PAGE_SIZE


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _run(count=3, name="app", pages=4):
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn(name)
    addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, name=name, periodic=False)
    results = []
    for i in range(count):
        proc.vmspace.fill(addr, pages, seed=i)
        machine.run_for(10 * MSEC)
        results.append(sls.checkpoint(group, name=f"v{i}", sync=True))
    return machine, sls, group, results


# -- the record format ------------------------------------------------------------------


def test_snapshot_encodes_at_exactly_the_fixed_size():
    machine, sls, group, _ = _run(3)
    payload = flightrec.encode_snapshot(sls.store, generation=7)
    assert len(payload) == flightrec.FLIGHTREC_BYTES
    body = flightrec.decode_snapshot(payload)
    assert body["generation"] == 7
    assert body["time_ns"] == machine.clock.now()
    assert "pad" not in body


def test_snapshot_round_trips_events_spans_and_slo_rows():
    machine, sls, group, results = _run(3)
    body = flightrec.decode_snapshot(
        flightrec.encode_snapshot(sls.store,
                                  pending={"group": group.group_id,
                                           "ckpt": 9, "name": "x"}))
    kinds = [row["kind"] for row in body["events"]]
    assert events.CKPT_COMMIT in kinds
    assert body["pending"] == {"group": group.group_id, "ckpt": 9,
                               "name": "x"}
    assert body["telemetry_enabled"] is True
    assert any(span["name"] == "checkpoint" for span in body["spans"])
    (row,) = body["slo"]
    assert row["group"] == group.group_id
    assert row["tenant"] == "app"
    assert row["commits"] == len(results)
    assert len(row["rpo_tail"]) == row["rpo_lag"]["count"]


def test_oversized_content_is_shed_oldest_first_not_fatal():
    machine, sls, group, _ = _run(1)
    log = events.log()
    for i in range(2000):
        log.emit(machine.clock.now(), "test.noise", payload="y" * 200, n=i)
    payload = flightrec.encode_snapshot(sls.store)
    assert len(payload) == flightrec.FLIGHTREC_BYTES
    body = flightrec.decode_snapshot(payload)
    # Whatever survived shedding is the *newest* slice of the ring.
    kept = [row["fields"]["n"] for row in body["events"]
            if row["kind"] == "test.noise"]
    assert kept == sorted(kept)
    assert kept[-1] == 1999


# -- encode once -------------------------------------------------------------------------


def reference_encode(store, pending=None, generation=0):
    """The encode-shed-re-encode loop the recorder started with: the
    whole body encoded from plain values, halved and encoded again
    until it fits.  The oracle for what the arithmetic shedding on
    cached fragments must produce, byte for byte."""
    body = flightrec.build_snapshot(store, pending=pending,
                                    generation=generation)
    shed = []
    while True:
        body["pad"] = b""
        blob = records.encode(records.REC_FLIGHTREC, body)
        delta = flightrec.FLIGHTREC_BYTES - len(blob)
        if delta >= 0:
            break
        key = next(key for key in ("events", "spans", "slo", "counters")
                   if body[key])
        cut = len(body[key]) // 2 + 1
        shed.append((key, cut))
        body[key] = body[key][cut:]
    body["pad"] = b"\x00" * delta
    return records.encode(records.REC_FLIGHTREC, body), shed


def test_every_decoded_row_equals_the_row_of_its_live_object():
    machine, sls, group, _ = _run(4)
    body = flightrec.decode_snapshot(flightrec.encode_snapshot(sls.store))
    live_events = list(events.log())[-len(body["events"]):]
    live_spans = list(telemetry.registry().spans)[-len(body["spans"]):]
    assert body["events"] and body["spans"]
    assert body["events"] == [flightrec._event_row(e) for e in live_events]
    assert body["spans"] == [flightrec._span_row(s) for s in live_spans]
    assert body["slo"] == [flightrec._slo_row(sls.slo, group.group_id)]
    # Each row was encoded once and the bytes live on the object.
    assert all(e.encoded is not None for e in live_events)
    assert all(s.encoded is not None for s in live_spans)


def test_warm_caches_encode_the_bytes_the_reference_loop_encodes():
    machine, sls, group, _ = _run(3)
    pending = {"group": group.group_id, "ckpt": 9, "name": "x"}
    want, shed = reference_encode(sls.store, pending, generation=5)
    assert shed == []
    cold = flightrec.encode_snapshot(sls.store, pending, generation=5)
    warm = flightrec.encode_snapshot(sls.store, pending, generation=5)
    assert cold == want and warm == want


def test_over_budget_snapshot_sheds_exactly_what_the_old_loop_shed():
    machine, sls, group, _ = _run(2)
    log = events.log()
    registry = telemetry.registry()
    for i in range(300):
        log.emit(machine.clock.now(), "test.noise", payload="y" * (i % 700),
                 n=i)
        registry.record_span("test.span", i, i + 1, note="z" * (i % 300))
        registry.counter("sls.resilience.test", n=i).add(i)
    want, shed = reference_encode(sls.store, generation=3)
    # Events go first, halved until gone, then spans start to go.
    assert [key for key, _cut in shed[:2]] == ["events", "events"]
    assert "spans" in [key for key, _cut in shed]
    assert flightrec.encode_snapshot(sls.store, generation=3) == want
    body = flightrec.decode_snapshot(want)
    assert body["events"] == []
    assert 0 < len(body["spans"]) < flightrec.MAX_SPANS
    assert len([row for row in body["counters"]
                if row["name"] == "sls.resilience.test"]) == 300


def test_counter_rows_group_by_prefix_in_registration_order():
    registry = telemetry.registry()
    for name in ("sls.slo.b", "sls.events.fault.c", "sls.resilience.a",
                 "sls.other", "sls.slo.a", "sls.events.degraded.d"):
        registry.counter(name).add(1)
    assert [row["name"] for row in flightrec._counter_rows(registry)] == [
        "sls.resilience.a", "sls.slo.b", "sls.slo.a",
        "sls.events.degraded.d", "sls.events.fault.c"]


def test_snapshot_that_cannot_fit_even_when_empty_is_an_error():
    from repro.errors import StoreError

    machine, sls, group, _ = _run(1)
    with pytest.raises(StoreError, match="cannot fit"):
        flightrec.encode_snapshot(
            sls.store, pending={"blob": "x" * flightrec.FLIGHTREC_BYTES})


def test_cached_row_bytes_go_when_the_ring_evicts_the_entry():
    machine, sls, group, _ = _run(1)
    log = events.log()
    flightrec.encode_snapshot(sls.store)
    event = log.events[-1]
    row = event.encoded
    assert row is not None
    held = sys.getrefcount(row)
    for i in range(log.events.maxlen):
        log.emit(machine.clock.now(), "test.noise", n=i)
    assert event not in log.events
    # The recorder keeps no second cache: the evicted event still
    # carries its bytes, and nothing else does.
    assert sys.getrefcount(row) == held
    del event
    assert sys.getrefcount(row) == held - 1


def test_only_the_tenant_that_moved_has_its_slo_row_re_encoded():
    machine = Machine()
    sls = load_aurora(machine)
    groups = []
    for name in ("a", "b"):
        proc = machine.kernel.spawn(name)
        proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
        groups.append(sls.attach(proc, name=name, periodic=False))
    for group in groups:
        sls.checkpoint(group, sync=True)
    states = [sls.slo.groups[g.group_id] for g in groups]
    flightrec.encode_snapshot(sls.store)
    before = [state.encoded_row[1] for state in states]
    machine.run_for(10 * MSEC)
    sls.checkpoint(groups[1], sync=True)
    body = flightrec.decode_snapshot(flightrec.encode_snapshot(sls.store))
    assert states[0].encoded_row[1] is before[0]
    assert states[1].encoded_row[1] is not before[1]
    assert body["slo"] == [flightrec._slo_row(sls.slo, g.group_id)
                           for g in groups]
    assert body["slo"][1]["commits"] == 2
    # A budget change alone re-encodes the row too (burn rates read it).
    sls.slo.set_group_targets(groups[0].group_id, rpo_ns=1)
    body = flightrec.decode_snapshot(flightrec.encode_snapshot(sls.store))
    assert states[0].encoded_row[1] is not before[0]
    assert body["slo"][0] == flightrec._slo_row(sls.slo, groups[0].group_id)


def test_snapshot_persistence_has_zero_simulated_clock_cost():
    """Enabled vs disabled telemetry: identical clocks, allocator
    cursors and store generations — the recorder's media writes are
    timing-free and fixed-size by construction.  The second shape is
    the smoke point of the retired ``bench_flightrec.py``."""
    def observe(enabled, count, pages):
        telemetry.reset()
        telemetry.set_enabled(enabled)
        machine, sls, group, _ = _run(count, pages=pages)
        return (machine.clock.now(), sls.store.alloc.cursor,
                sls.store._generation, sls.store._flightrec_extent)

    for count, pages in ((3, 4), (10, 8)):
        on = observe(True, count, pages)
        off = observe(False, count, pages)
        assert on[0] == off[0], "clock diverged with the recorder enabled"
        assert on[1] == off[1], "allocator diverged"
        assert on[2] == off[2], "generation diverged"
        assert on[3] == off[3], "snapshot extent placement diverged"


# -- reconstruction ---------------------------------------------------------------------


def test_blackbox_recovers_from_a_crashed_unmounted_store():
    machine, sls, group, results = _run(3)
    machine.crash()
    machine.boot()
    # No mount: the raw device is all the black box needs.
    store = ObjectStore(machine)
    box = flightrec.blackbox(store)
    assert box is not None
    last = box.last_durable
    assert last is not None
    assert last["kind"] == flightrec.COMMIT_DURABLE
    assert last["fields"]["ckpt"] == results[-1].info.ckpt_id
    assert last["fields"]["name"] == "v2"
    # The persisted timeline ends at the durable commit.
    assert box.events[-1] is last
    assert box.generation == sls.store._generation


def test_blackbox_timeline_ends_at_last_durable_commit():
    machine, sls, group, results = _run(2)
    box = flightrec.blackbox(sls.store)
    commits = [row for row in box.events
               if row["kind"] in (events.CKPT_COMMIT,
                                  flightrec.COMMIT_DURABLE)]
    # v0 as a persisted commit event, v1 as the synthesized pending
    # marker (its snapshot rode v1's own superblock flip).
    assert commits[-1]["fields"]["ckpt"] == results[-1].info.ckpt_id
    assert not any(row["time_ns"] > box.snapshot["time_ns"]
                   for row in box.events)


def test_volatile_ring_merges_as_post_snapshot_tail():
    machine, sls, group, _ = _run(2)
    events.emit(machine.clock.now() + 5, events.FAULT_INJECTED,
                fault="crash", io_index=42)
    box = flightrec.blackbox(sls.store, volatile=events.log())
    faults = [row for row in box.timeline()
              if row["kind"] == events.FAULT_INJECTED]
    assert len(faults) == 1
    assert faults[0]["post_snapshot"] is True
    assert faults[0]["fields"]["io_index"] == 42
    # Pre-snapshot history is not duplicated by the merge: every
    # volatile row postdates the snapshot instant, and the only
    # commit it may carry is the anchoring (pending) one — the live
    # ring's counterpart of the synthesized durable marker.
    snap_ns = box.snapshot["time_ns"]
    assert all(row["time_ns"] >= snap_ns for row in box.volatile)
    volatile_commits = [row for row in box.volatile
                        if row["kind"] == events.CKPT_COMMIT]
    assert [row["fields"]["ckpt"] for row in volatile_commits] == \
        [box.last_durable["fields"]["ckpt"]]


def test_blackbox_returns_none_on_a_blank_store():
    machine = Machine()
    store = ObjectStore(machine)
    assert flightrec.blackbox(store) is None


def test_recovery_survives_a_corrupt_newest_anchor():
    """Torn flight-recorder extent: reconstruction falls back to the
    previous superblock generation's snapshot."""
    machine, sls, group, results = _run(3)
    offset, length = sls.store._flightrec_extent
    sls.store.device.place_extent(offset, b"\xff" * length)
    box = flightrec.blackbox(sls.store)
    assert box is not None
    assert box.generation < sls.store._generation
    assert box.last_durable["fields"]["ckpt"] == \
        results[-2].info.ckpt_id
