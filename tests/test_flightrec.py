"""The crash-persistent flight recorder.

The recorder's contract has three legs, each tested here against the
live store rather than mocks:

* **Fixed-size, zero-cost persistence** — every snapshot is exactly
  ``FLIGHTREC_BYTES`` on media and rides the commit protocol without
  advancing the simulated clock, so instrumented and uninstrumented
  runs keep identical timings, allocator state and crash schedules.
  A flip only captures the record; its bytes are built by the one
  encoder when the extent is first read (:func:`record_bytes` reads
  them the same way), byte-identical to encoding them at the flip.
* **Recoverability** — ``blackbox`` reconstructs the timeline from an
  unmounted (or unmountable) store's raw superblock slots, ending at
  the last durable commit.
* **Volatile merge** — the surviving in-process event ring appends
  the post-snapshot tail (the history that never reached durability),
  each row marked ``post_snapshot``.
"""

import sys

import pytest

from repro import Machine, load_aurora, serde
from repro.core import events, flightrec, resilience, telemetry
from repro.core.faults import FaultPlan
from repro.errors import NoSpace
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


def record_bytes(store, pending=None, generation=0):
    """A snapshot's record as a reader gets it: captured as of now,
    then built by the one encoder."""
    return flightrec.encode_snapshot(store, pending, generation).build()


# -- the record format ------------------------------------------------------------------


def test_snapshot_encodes_at_exactly_the_fixed_size():
    machine, sls, group, _ = _run(3)
    capture = flightrec.encode_snapshot(sls.store, generation=7)
    assert len(capture) == flightrec.FLIGHTREC_BYTES
    payload = capture.build()
    assert len(payload) == flightrec.FLIGHTREC_BYTES
    body = flightrec.decode_snapshot(payload)
    assert body["generation"] == 7
    assert body["time_ns"] == machine.clock.now()
    assert "pad" not in body


def test_snapshot_round_trips_events_spans_and_slo_rows():
    machine, sls, group, results = _run(3)
    body = flightrec.decode_snapshot(
        record_bytes(sls.store, pending={"group": group.group_id,
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
    payload = record_bytes(sls.store)
    assert len(payload) == flightrec.FLIGHTREC_BYTES
    body = flightrec.decode_snapshot(payload)
    # Whatever survived shedding is the *newest* slice of the ring.
    kept = [row["fields"]["n"] for row in body["events"]
            if row["kind"] == "test.noise"]
    assert kept == sorted(kept)
    assert kept[-1] == 1999


# -- encode once, when read -------------------------------------------------------------


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
    body = flightrec.decode_snapshot(record_bytes(sls.store))
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
    cold = record_bytes(sls.store, pending, generation=5)
    warm = record_bytes(sls.store, pending, generation=5)
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
    assert record_bytes(sls.store, generation=3) == want
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
    record_bytes(sls.store)
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
    """Each write to the SLO tracker drops the encoded row of exactly
    the tenants whose state it changed; the next flip re-encodes those
    and splices every other row's bytes as they were."""
    machine = Machine()
    sls = load_aurora(machine)
    tracker = sls.slo
    groups = []

    def attach(name):
        proc = machine.kernel.spawn(name)
        proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
        groups.append(sls.attach(proc, name=name, periodic=False))
        sls.checkpoint(groups[-1], sync=True)

    for name in ("a", "b", "c"):
        attach(name)
    gids = [group.group_id for group in groups]

    def rows():
        return {gid: tracker.groups[gid].encoded_row for gid in gids}

    flightrec.encode_snapshot(sls.store)
    now = machine.clock.now()
    writes = [
        ("sample", {gids[0]}, lambda: tracker.on_stop_time(gids[0], 5)),
        ("commit", {gids[1]}, lambda: sls.checkpoint(groups[1], sync=True)),
        ("degraded enter", {gids[2]},
         lambda: tracker.on_degraded_enter(gids[2], now)),
        ("degraded exit", {gids[2]},
         lambda: tracker.on_degraded_exit(gids[2], now + 7)),
        ("group targets", {gids[0]},
         lambda: tracker.set_group_targets(gids[0], rpo_ns=1)),
        # Every tenant without targets of its own inherits the swap.
        ("tracker targets", {gids[1], gids[2]},
         lambda: setattr(tracker, "targets",
                         tracker.targets.replace(quorum_ns=3))),
        ("tenant name", {gids[1]},
         lambda: tracker.set_tenant_name(gids[1], "renamed")),
        # Attach names the new tenant through the tracker; its first
        # checkpoint writes only its own state.
        ("attach", set(), lambda: attach("d")),
    ]
    for what, moved, write in writes:
        before = rows()
        write()
        body = flightrec.decode_snapshot(record_bytes(sls.store))
        after = rows()
        assert {gid for gid in before if after[gid] is not before[gid]} \
            == moved, what
        assert body["slo"] == [flightrec._slo_row(tracker, gid)
                               for gid in sorted(tracker.groups)], what
    assert body["slo"][-1]["tenant"] == "d"
    assert body["slo"][1]["tenant"] == "renamed"


def test_a_counter_row_is_re_encoded_only_when_its_value_moves():
    machine, sls, group, _ = _run(1)
    registry = telemetry.registry()
    counter = registry.counter("sls.resilience.test", op="x")
    counter.add(2)
    body = flightrec.decode_snapshot(record_bytes(sls.store))
    row = counter.encoded[1]
    assert body["counters"] == [{"name": "sls.resilience.test",
                                 "labels": {"op": "x"}, "value": 2}]
    record_bytes(sls.store)
    assert counter.encoded[1] is row
    counter.add(1)
    body = flightrec.decode_snapshot(record_bytes(sls.store))
    assert counter.encoded[1] is not row
    assert body["counters"][0]["value"] == 3


def _fleet_run(machine, sls):
    """A small fleet run: several tenants, a history limit (GC deletes
    flip), async commits, a degraded spell, target changes, counters
    registered mid-run and a rolled-back GC flip."""
    store = sls.store
    tenants = []
    for index, name in enumerate(("a", "b", "c")):
        proc = machine.kernel.spawn(name)
        addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
        group = sls.attach(proc, name=name, history_limit=2,
                           period_ns=(10 + 5 * index) * MSEC, probe_every=2)
        tenants.append((proc, addr, group))
    # A tenant checkpointed by hand, for a GC flip that rolls back.
    proc = machine.kernel.spawn("manual")
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    manual = sls.attach(proc, name="manual", periodic=False)
    manual_ids = []
    for step in range(3):
        proc.vmspace.fill(addr, 1, seed=1000 + step)
        manual_ids.append(sls.checkpoint(manual, sync=True).info.ckpt_id)

    for step in range(24):
        for proc, addr, _group in tenants:
            proc.vmspace.fill(addr, 4, seed=step)
        if step == 4:
            sls.slo.set_group_targets(tenants[0][2].group_id, rpo_ns=1)
            sls.slo.targets = sls.slo.targets.replace(stop_ns=1)
        if step == 6:
            telemetry.registry().counter("sls.slo.test", step=step).add(1)
        if step == 8:
            # What the fleet does on ENOSPC: the tenant checkpoints to
            # memory and probes the disk until a full one lands.
            sls._enter_degraded(tenants[1][2], resilience.REASON_ENOSPC)
        if step == 10:
            machine.set_fault_plan(
                FaultPlan(name="transient").transient_at_io(1, times=2))
        if step == 12:
            machine.clear_fault_plan()
            # Deleting the manual tenant's oldest checkpoint writes its
            # child's metadata (IO 0), the catalog (IO 1) and the
            # superblock (IO 2): that flip fails and rolls back.
            machine.set_fault_plan(FaultPlan(name="enospc").nospace_at_io(2))
            with pytest.raises(NoSpace):
                store.delete_checkpoint(manual_ids[0])
            machine.clear_fault_plan()
        if step == 14:
            store.delete_checkpoint(manual_ids[0])
        machine.run_for(10 * MSEC)

    log = events.log()
    assert log.matching(events.DEGRADED_ENTER)
    assert log.matching(events.DEGRADED_EXIT)
    assert log.matching(events.GC_RECLAIM)
    assert log.matching(events.RETRY)
    assert telemetry.registry().persisted["sls.resilience"]


def test_every_flip_of_a_fleet_encodes_what_plain_values_encode_to(
        monkeypatch):
    """Every superblock flip of :func:`_fleet_run` is checked: its
    catalog against the plain-value document, and its flight record
    against :func:`reference_encode` taken at the flip.  The records
    are built only once the run is over — after more events, spans,
    counter moves and SLO writes — and each must still be the bytes of
    its flip."""
    machine = Machine()
    sls = load_aurora(machine)
    store = sls.store
    captured = []
    seen = {"catalogs": 0}
    real_snapshot = flightrec.encode_snapshot
    real_encode = records.encode

    def checked_snapshot(store_, pending=None, generation=0):
        want, _shed = reference_encode(store_, pending, generation)
        capture = real_snapshot(store_, pending, generation)
        captured.append((want, capture))
        return capture

    def checked_encode(kind, body):
        got = real_encode(kind, body)
        if kind == records.REC_CATALOG:
            plain = {str(ckpt_id): {"meta_extent": list(info.meta_extent)}
                     for ckpt_id, info in store.checkpoints.items()
                     if info.complete}
            assert got == real_encode(kind, {"checkpoints": plain})
            seen["catalogs"] += 1
        return got

    monkeypatch.setattr(flightrec, "encode_snapshot", checked_snapshot)
    monkeypatch.setattr(records, "encode", checked_encode)
    _fleet_run(machine, sls)
    assert len(captured) == seen["catalogs"] > 50
    for index, (want, capture) in enumerate(captured):
        assert capture.build() == want, index


def test_no_flip_of_a_fleet_encodes_an_event_span_or_counter_row(
        monkeypatch):
    """A flip captures its record: the only rows the recorder encodes
    over :func:`_fleet_run` are the head (its fit check, once a flip)
    and the SLO rows of the tenants whose state moved since the last
    flip."""
    machine = Machine()
    sls = load_aurora(machine)
    calls = []
    flips = {"count": 0, "moved": 0}
    real_fragment = serde.fragment
    real_snapshot = flightrec.encode_snapshot

    def counted_fragment(value):
        if sys._getframe(1).f_globals["__name__"] == flightrec.__name__:
            calls.append(value)
        return real_fragment(value)

    def counted_snapshot(store_, pending=None, generation=0):
        flips["count"] += 1
        flips["moved"] += sum(state.encoded_row is None
                              for state in sls.slo.groups.values())
        return real_snapshot(store_, pending, generation)

    monkeypatch.setattr(serde, "fragment", counted_fragment)
    monkeypatch.setattr(flightrec, "encode_snapshot", counted_snapshot)
    _fleet_run(machine, sls)
    heads = [value for value in calls if "version" in value]
    slo_rows = [value for value in calls if "rpo_lag" in value]
    assert len(heads) + len(slo_rows) == len(calls)
    assert len(heads) == flips["count"] > 50
    assert 0 < len(slo_rows) == flips["moved"]


def _captured_flip(monkeypatch, sls, group):
    """Take one checkpoint of ``group``; returns its flip's capture,
    :func:`reference_encode` at the flip, and the newest event and span
    the capture holds."""
    real_snapshot = flightrec.encode_snapshot
    taken = []

    def capturing(store_, pending=None, generation=0):
        want, _shed = reference_encode(store_, pending, generation)
        capture = real_snapshot(store_, pending, generation)
        taken.append((capture, want, events.log().events[-1],
                      telemetry.registry().spans[-1]))
        return capture

    monkeypatch.setattr(flightrec, "encode_snapshot", capturing)
    sls.checkpoint(group, name="flipped", sync=True)
    monkeypatch.setattr(flightrec, "encode_snapshot", real_snapshot)
    (flip,) = taken
    return flip


def test_a_record_read_twice_is_built_once_and_then_holds_no_row_source(
        monkeypatch):
    machine, sls, group, _ = _run(2)
    capture, want, event, span = _captured_flip(monkeypatch, sls, group)
    builds = []
    real_encode = flightrec._encode

    def counted_encode(*args):
        builds.append(1)
        return real_encode(*args)

    monkeypatch.setattr(flightrec, "_encode", counted_encode)
    offset, length = sls.store._flightrec_extent
    assert length == len(capture) == flightrec.FLIGHTREC_BYTES
    held = (sys.getrefcount(event), sys.getrefcount(span))
    first = sls.store.device.read(offset)
    second = sls.store.device.read(offset)
    assert len(first) == flightrec.FLIGHTREC_BYTES
    assert first == second == want and capture.build() is first
    assert builds == [1]
    # Built, the capture lets go of the events and spans it held.
    assert (sys.getrefcount(event), sys.getrefcount(span)) == \
        (held[0] - 1, held[1] - 1)


def test_what_happens_after_a_flip_is_not_in_its_record(monkeypatch):
    machine, sls, group, _ = _run(2)
    registry = telemetry.registry()
    counter = registry.counter("sls.resilience.test", op="x")
    counter.add(2)
    _capture, want, _event, _span = _captured_flip(monkeypatch, sls, group)
    # After the flip: an event, a counter move, a new counter and SLO
    # writes — none of them may reach the flip's record.
    events.emit(machine.clock.now() + 1, "test.after_flip", n=1)
    counter.add(5)
    registry.counter("sls.slo.test_after_flip").add(1)
    sls.slo.on_stop_time(group.group_id, 12345)
    sls.slo.set_tenant_name(group.group_id, "renamed")
    payload = sls.store.device.read(sls.store._flightrec_extent[0])
    assert payload == want
    body = flightrec.decode_snapshot(payload)
    assert "test.after_flip" not in [row["kind"] for row in body["events"]]
    assert [row["value"] for row in body["counters"]
            if row["name"] == "sls.resilience.test"] == [2]
    assert "sls.slo.test_after_flip" not in \
        [row["name"] for row in body["counters"]]
    (row,) = body["slo"]
    now = flightrec._slo_row(sls.slo, group.group_id)
    assert (row["tenant"], now["tenant"]) == ("app", "renamed")
    assert row["stop"]["count"] < now["stop"]["count"]


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
