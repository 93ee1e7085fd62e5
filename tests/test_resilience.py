"""The self-healing storage path: transient-fault retry/backoff,
online repair, and degraded-mode checkpointing.

Covers the resilience policy layer end to end:

* :class:`~repro.core.resilience.RetryPolicy` unit behavior —
  deterministic backoff, attempt/deadline bounds, exhaustion.
* Seeded transient/intermittent device faults absorbed by the store's
  retries; exhausted retries rolling the checkpoint back cleanly
  (no leaked blocks — the regression test for the abort path).
* The orchestrator's degraded mode: ENOSPC → memory-only checkpoints
  plus emergency GC; repeated device errors → widened interval; both
  exit automatically when a probe checkpoint succeeds, with the spell
  visible to ``sls events`` and the ``sls slo`` degraded budget.
* Read-path self-healing: a corrupt record falls back to an ancestor
  delta's copy instead of failing the restore.
* Replication leg flaps: retry/reconnect with backoff; an outage never
  promotes the standby over a live, leased primary.
* ``sls scrub --repair``: scrubber findings promoted into applied
  fixes, re-scrub clean.
* A Hypothesis property: any seeded schedule of *retryable* faults
  within the retry budget completes, restores the last durable
  checkpoint, and scrubs clean.
"""

import random

import pytest

from repro import Machine, load_aurora
from repro.core import events, resilience, telemetry
from repro.core.cluster import SLSCluster
from repro.core.faults import (FaultPlan, InjectedCrash, INTERMITTENT,
                               TRANSIENT)
from repro.core.resilience import GroupHealth, RetryPolicy
from repro.errors import (CorruptRecord, LeaseValid, LinkDown, NoSpace,
                          RetriesExhausted, TransientDeviceError)
from repro.hw.clock import SimClock
from repro.hw.memory import Page
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore.repair import repair
from repro.objstore.scrub import scrub
from repro.objstore.store import ObjectStore, SUPERBLOCK_SLOTS
from repro.units import MiB, MSEC, PAGE_SIZE, USEC

from tests.crashsched import CounterAppWorkload, CrashScheduleExplorer

MEM_OID = make_oid(CLASS_MEMORY, 42)


def _store_with_chain(machine, nckpts=3):
    store = ObjectStore(machine)
    store.format()
    parent = None
    infos = []
    for index in range(nckpts):
        txn = store.begin_checkpoint(group_id=4, parent=parent)
        txn.put_object(MEM_OID, "vmobject", {"step": index})
        txn.put_pages(MEM_OID, {0: Page(data=b"page-%d" % index * 16)})
        info = store.commit(txn, sync=True)
        infos.append(info)
        parent = info.ckpt_id
    return store, infos


def _flip_byte(machine, offset, index=0):
    payload = machine.storage.read(offset)
    assert isinstance(payload, bytes)
    flipped = (payload[:index] + bytes([payload[index] ^ 0xFF]) +
               payload[index + 1:])
    machine.storage.discard_extent(offset)
    machine.storage.write(offset, flipped)


# -- RetryPolicy units --------------------------------------------------------------


def test_retry_absorbs_transient_failures_and_advances_sim_clock():
    clock = SimClock()
    policy = RetryPolicy(clock, seed=7, op="unit")
    calls = []

    def flaky():
        calls.append(clock.now())
        if len(calls) < 3:
            raise TransientDeviceError("not yet")
        return "done"

    assert policy.run(flaky) == "done"
    assert len(calls) == 3
    # Each retry waited a strictly positive backoff on the sim clock.
    assert calls[0] == 0 and calls[1] > 0 and calls[2] > calls[1]


def test_retry_backoff_is_deterministic_and_bounded():
    first = RetryPolicy(SimClock(), seed=11)
    second = RetryPolicy(SimClock(), seed=11)
    seq1 = [first.backoff_ns(a) for a in range(1, 8)]
    seq2 = [second.backoff_ns(a) for a in range(1, 8)]
    assert seq1 == seq2
    # Exponential up to the cap, plus at most 50% jitter.
    for attempt, delay in enumerate(seq1, start=1):
        base = min(first.max_backoff_ns,
                   first.base_backoff_ns << (attempt - 1))
        assert base <= delay <= base + base // 2


def test_retry_exhausts_after_max_attempts_with_last_error():
    telemetry.reset()
    clock = SimClock()
    policy = RetryPolicy(clock, max_attempts=3, seed=1, op="unit")

    def always():
        raise TransientDeviceError("forever")

    with pytest.raises(RetriesExhausted) as excinfo:
        policy.run(always)
    assert isinstance(excinfo.value.last_error, TransientDeviceError)
    exhausted = events.log().matching(events.RETRY_EXHAUSTED)
    assert len(exhausted) == 1 and exhausted[0].fields["attempts"] == 3
    assert len(events.log().matching(events.RETRY)) == 2
    telemetry.reset()


def test_retry_deadline_bounds_total_backoff():
    clock = SimClock()
    deadline = 500 * USEC
    policy = RetryPolicy(clock, max_attempts=100, deadline_ns=deadline,
                         seed=3, op="unit")
    with pytest.raises(RetriesExhausted) as excinfo:
        policy.run(lambda: (_ for _ in ()).throw(
            TransientDeviceError("forever")))
    assert "deadline" in str(excinfo.value)
    # Backoffs never sleep past the deadline.
    assert clock.now() <= deadline


def test_non_retryable_errors_propagate_immediately():
    policy = RetryPolicy(SimClock(), seed=5)
    calls = []

    def fatal():
        calls.append(1)
        raise ValueError("not a device problem")

    with pytest.raises(ValueError):
        policy.run(fatal)
    assert len(calls) == 1


# -- transient faults on the store path ---------------------------------------------


def test_transient_write_faults_are_absorbed_by_store_retry():
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    machine.set_fault_plan(
        FaultPlan(name="blip").transient_at_io(1, times=2))
    txn = store.begin_checkpoint(group_id=4)
    txn.put_object(MEM_OID, "vmobject", {"v": 1})
    txn.put_pages(MEM_OID, {0: Page(data=b"payload" * 16)})
    info = store.commit(txn, sync=True)
    assert info.complete
    plan = machine.fault_plan
    assert [e.kind for e in plan.events] == [TRANSIENT, TRANSIENT]
    assert scrub(store).ok


def test_transient_read_faults_are_absorbed_on_readback():
    machine = Machine()
    store, infos = _store_with_chain(machine, nckpts=1)
    machine.set_fault_plan(
        FaultPlan(name="rblip").transient_at_read(0, times=2))
    otype, _state = store.read_object_records(
        {MEM_OID: infos[0].object_records[MEM_OID]})[MEM_OID]
    assert otype == "vmobject"
    assert machine.fault_plan.events[0].op == "read"


def test_intermittent_faults_replay_identically_for_a_seed():
    def run(seed):
        machine = Machine()
        store = ObjectStore(machine)
        store.format()
        machine.set_fault_plan(
            FaultPlan(name="flaky", seed=seed).intermittent(p=0.35,
                                                            limit=4))
        txn = store.begin_checkpoint(group_id=4)
        for i in range(4):
            oid = make_oid(CLASS_MEMORY, 100 + i)
            txn.put_object(oid, "vmobject", {"i": i})
            txn.put_pages(oid, {0: Page(seed=i)})
        store.commit(txn, sync=True)
        return [(e.kind, e.io_index) for e in machine.fault_plan.events]

    assert run(0xFEED) == run(0xFEED)
    # The sequence is seed-dependent, not constant.
    all_runs = {tuple(run(seed)) for seed in (1, 2, 3, 4, 5)}
    assert len(all_runs) > 1


def test_exhausted_retries_roll_checkpoint_back_without_leaking_blocks():
    """The block-leak regression test: a commit that dies after some
    data extents were written must free every block it allocated."""
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    baseline = store.alloc.used_bytes()
    ckpts_before = dict(store.checkpoints)
    # Far more failures than the retry budget: IO 2 never lands.
    machine.set_fault_plan(
        FaultPlan(name="dead").transient_at_io(2, times=1000))
    txn = store.begin_checkpoint(group_id=4)
    for i in range(4):
        oid = make_oid(CLASS_MEMORY, 200 + i)
        txn.put_object(oid, "vmobject", {"i": i})
        txn.put_pages(oid, {0: Page(data=bytes([i]) * 2048)})
    with pytest.raises(RetriesExhausted):
        store.commit(txn, sync=True)
    assert txn.aborted
    assert store.alloc.used_bytes() == baseline, \
        "aborted checkpoint leaked extents"
    assert store.checkpoints == ckpts_before
    assert events.log().matching(events.CKPT_ABORT)
    machine.clear_fault_plan()
    report = scrub(store)
    assert report.ok, report.findings
    # The store still takes checkpoints afterwards.
    txn2 = store.begin_checkpoint(group_id=4)
    txn2.put_object(MEM_OID, "vmobject", {"after": True})
    assert store.commit(txn2, sync=True).complete


# -- FaultPlan.random reproducibility (new kinds included) --------------------------


def test_random_plans_reproduce_and_cover_new_kinds():
    """Identical seed ⇒ identical schedule and describe(); the seeded
    distribution actually produces the new retryable kinds."""
    described = set()
    for seed in range(64):
        first = FaultPlan.random(seed, io_count=40,
                                 boundaries=[("seal", "before")])
        second = FaultPlan.random(seed, io_count=40,
                                  boundaries=[("seal", "before")])
        assert first.describe() == second.describe()
        described.add(first.describe())
    assert any("transient(x" in d for d in described), described
    assert any("intermittent(p=" in d for d in described), described


# -- degraded mode ------------------------------------------------------------------


def _run_enospc_degradation():
    """Drive a periodic group into ENOSPC degradation and out again.

    Returns (machine, sls, group, enter_events, exit_events)."""
    telemetry.reset()
    machine = Machine(capacity_per_device=1 * MiB)
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(256 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=True)
    # Dirty a large slice every period: history accumulates until the
    # store fills, then the tick degrades instead of crashing.
    for step in range(40):
        proc.vmspace.fill(addr, 160, seed=step)
        machine.run_for(group.period_ns)
        if events.log().matching(events.DEGRADED_EXIT):
            break
    enters = events.log().matching(events.DEGRADED_ENTER)
    exits = events.log().matching(events.DEGRADED_EXIT)
    return machine, sls, group, enters, exits


def test_enospc_degrades_to_mem_checkpoints_and_auto_recovers():
    machine, sls, group, enters, exits = _run_enospc_degradation()
    assert enters and enters[0].fields["reason"] == resilience.REASON_ENOSPC
    # While degraded the cadence continued memory-only...
    mem_starts = events.log().matching(events.CKPT_START, mode="mem")
    assert mem_starts, "no memory-only checkpoints while degraded"
    # ...emergency GC freed history...
    assert events.log().matching(events.GC_EMERGENCY)
    # ...and a successful probe exited the spell automatically.
    assert exits, "group never exited degraded mode"
    assert not group.health.degraded
    assert exits[0].fields["spell_ns"] > 0
    # The SLO tracker charged the degraded budget.
    row = sls.slo.report(group.group_id)[0]
    assert row["degraded_spells"] >= 1
    assert row["degraded_total_ns"] == exits[0].fields["spell_ns"]
    assert not row["degraded_open"]
    telemetry.reset()


def test_enospc_degradation_is_deterministic_sim_time():
    _m1, _s1, _g1, enters1, exits1 = _run_enospc_degradation()
    _m2, _s2, _g2, enters2, exits2 = _run_enospc_degradation()
    assert [(e.time_ns, dict(e.fields)) for e in enters1] == \
        [(e.time_ns, dict(e.fields)) for e in enters2]
    assert [(e.time_ns, dict(e.fields)) for e in exits1] == \
        [(e.time_ns, dict(e.fields)) for e in exits2]
    telemetry.reset()


def test_repeated_device_errors_widen_interval_then_recover():
    telemetry.reset()
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=True)
    period = group.period_ns
    # Enough failures for three exhausted ticks (3 x max_attempts),
    # then two more: the first widened-interval probe retries through
    # them and succeeds.
    budget = 3 * resilience.DEVICE_FAILURE_THRESHOLD + 2
    assert sls.store.retry.max_attempts == 5
    machine.set_fault_plan(
        FaultPlan(name="sick").transient_at_io(0, times=17))
    proc.vmspace.write(addr, b"keep dirtying")
    for step in range(8):
        proc.vmspace.write(addr, b"step-%d" % step)
        machine.run_for(period)
        if events.log().matching(events.DEGRADED_EXIT):
            break
    del budget
    enters = events.log().matching(events.DEGRADED_ENTER)
    exits = events.log().matching(events.DEGRADED_EXIT)
    assert enters and enters[0].fields["reason"] == resilience.REASON_DEVICE
    assert exits, "probe never recovered the group"
    # The degraded spell ran on the widened cadence: the exit came at
    # least one widened period after the enter.
    spell = exits[0].time_ns - enters[0].time_ns
    assert spell >= resilience.WIDEN_FACTOR * period
    assert not group.health.degraded
    assert group.health.consecutive_failures == 0
    telemetry.reset()


def test_group_health_state_machine():
    health = GroupHealth()
    assert not health.degraded
    health.enter(resilience.REASON_ENOSPC, 1000)
    assert health.degraded and health.reason == resilience.REASON_ENOSPC
    # Re-enter with a different reason: the spell continues.
    health.enter(resilience.REASON_DEVICE, 5000)
    assert health.entered_ns == 1000
    assert health.reason == resilience.REASON_DEVICE
    assert health.exit(11_000) == 10_000
    assert not health.degraded and health.ticks == 0


# -- async flush failure ------------------------------------------------------------


def test_async_flush_failure_rolls_back_and_forces_full_checkpoint():
    """A failure during the *async* finalize (after the checkpoint
    call returned) must roll the group back, reopen the flush gate,
    and force the next disk checkpoint full so the rolled-back dirty
    pages are recaptured."""
    telemetry.reset()
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False)
    proc.vmspace.write(addr, b"durable-v1")
    sls.checkpoint(group, sync=True)

    proc.vmspace.write(addr, b"async-v2!!")
    plan = FaultPlan(name="late")
    machine.set_fault_plan(plan)
    sls.checkpoint(group, sync=False)
    assert group.flush_in_progress
    # Every write from here on is finalize-time (meta, catalog,
    # superblock): make the first of them fail past the retry budget.
    plan.transient_at_io(plan.io_index, times=1000)
    machine.run_for(50 * MSEC)

    fails = events.log().matching(events.CKPT_FAIL)
    assert any(e.fields.get("async_flush") for e in fails), fails
    assert not group.flush_in_progress
    assert group.force_full_next
    machine.clear_fault_plan()

    # The next checkpoint recaptures the rolled-back pages (it is
    # forced full) and restores show the new state.
    result = sls.checkpoint(group, sync=True)
    assert result.info.complete
    assert not group.force_full_next
    gid = group.group_id
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    restored = sls2.restore(gid, periodic=False)
    assert restored.root.vmspace.read(addr, 10) == b"async-v2!!"
    assert scrub(sls2.store).ok
    telemetry.reset()


# -- read-path self-healing ---------------------------------------------------------


def test_corrupt_record_falls_back_to_parent_copy():
    telemetry.reset()
    machine = Machine()
    store, infos = _store_with_chain(machine, nckpts=3)
    newest = infos[-1]
    extent, _length = newest.object_records[MEM_OID]
    _flip_byte(machine, extent, index=20)

    primary = {MEM_OID: newest.object_records[MEM_OID]}
    fallbacks = store.record_fallbacks(newest.ckpt_id, primary)
    assert fallbacks[MEM_OID], "no ancestor copies found"
    decoded = store.read_object_records(primary, fallbacks=fallbacks)
    otype, state = decoded[MEM_OID]
    # The ancestor's copy is stale but consistent.
    assert otype == "vmobject" and state["step"] in (0, 1)
    fallback_events = events.log().matching(events.READ_FALLBACK)
    assert fallback_events and \
        fallback_events[-1].fields["source"] == "parent"
    telemetry.reset()


def test_corrupt_record_with_no_fallback_still_fails_loudly():
    machine = Machine()
    store, infos = _store_with_chain(machine, nckpts=1)
    extent, _length = infos[0].object_records[MEM_OID]
    _flip_byte(machine, extent, index=20)
    primary = {MEM_OID: infos[0].object_records[MEM_OID]}
    with pytest.raises(CorruptRecord):
        store.read_object_records(
            primary, fallbacks=store.record_fallbacks(infos[0].ckpt_id,
                                                      primary))


# -- replication leg flaps (the N = 1 cluster's single leg) --------------------------


@pytest.fixture
def standby():
    primary = Machine()
    sls = load_aurora(primary)
    proc = primary.kernel.spawn("svc")
    addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, name="svc", periodic=False)
    cluster = SLSCluster(sls, group, nodes=1, azs=1)
    return primary, sls, proc, group, addr, cluster


def test_link_flap_reconnects_with_backoff_and_ships(standby):
    telemetry.reset()
    primary, sls, proc, group, addr, cluster = standby
    link = cluster.links[0]
    proc.vmspace.write(addr, b"flap-state")
    sls.checkpoint(group, sync=True)
    primary.set_fault_plan(FaultPlan(name="flap").flaky_link(times=2))
    before = primary.clock.now()
    assert cluster.pump() == group.last_complete_id
    assert primary.clock.now() > before, "reconnect paid no backoff"
    assert link.down_since is None and link.stats["outages"] == 0
    assert len(events.log().matching(events.RETRY, op="cluster.ship.n0")) \
        == 2
    primary.crash()
    result = cluster.failover()
    assert result.root.vmspace.read(addr, 10) == b"flap-state"
    telemetry.reset()


def test_after_the_primary_dies_the_standby_serves_the_last_shipped_state(
        standby):
    telemetry.reset()
    primary, sls, proc, group, addr, cluster = standby
    link = cluster.links[0]
    proc.vmspace.write(addr, b"shipped-v1")
    sls.checkpoint(group, sync=True)
    shipped = group.last_complete_id
    assert cluster.pump() == shipped

    # A long outage: every reconnect attempt finds the link down.
    proc.vmspace.write(addr, b"stranded!!")
    sls.checkpoint(group, sync=True)
    primary.set_fault_plan(FaultPlan(name="down").flaky_link(times=10_000))
    assert cluster.pump() == shipped
    assert link.down_since is not None
    assert events.log().matching(events.LINK_DOWN)

    # The primary is alive and holds its lease: an outage of any
    # length is no licence to promote the standby.
    primary.clock.advance(31 * MSEC)
    with pytest.raises(LeaseValid):
        cluster.failover()
    # Once it dies the standby takes over from the last shipped
    # checkpoint (bounded loss).
    primary.crash()
    result = cluster.failover()
    assert result.root.vmspace.read(addr, 10) == b"shipped-v1"
    assert events.log().matching(events.PROMOTE, ckpt=shipped)
    telemetry.reset()


def test_link_recovery_emits_link_up(standby):
    telemetry.reset()
    primary, sls, proc, group, addr, cluster = standby
    link = cluster.links[0]
    proc.vmspace.write(addr, b"first")
    sls.checkpoint(group, sync=True)
    newest = group.last_complete_id
    primary.set_fault_plan(FaultPlan(name="out").flaky_link(times=10))
    assert not link.ship_checkpoint(newest)  # 5 attempts, 5 flaps left
    assert link.down_since is not None
    assert not link.ship_checkpoint(newest)  # the flap budget drains
    assert link.ship_checkpoint(newest)  # link healed
    assert link.down_since is None
    assert events.log().matching(events.LINK_UP)
    assert link.stats["outages"] == 1
    telemetry.reset()


# -- scrub --repair -----------------------------------------------------------------


def test_repair_rewrites_corrupt_superblock_slot():
    machine = Machine()
    store, _infos = _store_with_chain(machine)
    stale_slot = SUPERBLOCK_SLOTS[(store._generation + 1) % 2]
    _flip_byte(machine, stale_slot, index=10)
    report = scrub(store)
    assert any(f.kind == "superblock" and str(stale_slot) in f.detail
               for f in report.findings), report.findings
    fixes = repair(store, report)
    assert any(a.kind == "superblock" for a in fixes.actions)
    assert scrub(store).ok


def test_repair_resets_stale_refcounts():
    machine = Machine()
    store, _infos = _store_with_chain(machine)
    offset = next(iter(store.extent_refs))
    store.extent_refs[offset] += 2
    store.extent_refs[999_999] = 3
    fixes = repair(store)
    assert len([a for a in fixes.actions if a.kind == "refcount"]) == 2
    assert 999_999 not in store.extent_refs
    assert scrub(store).ok


def test_repair_trims_free_list_overlapping_live_extent():
    from repro.objstore import records
    from repro.objstore.scrub import _read_superblocks

    machine = Machine()
    store, infos = _store_with_chain(machine)
    live_off, live_len = infos[0].owned_extents[0]
    # Corrupt the durable superblock: a live extent lands on the free
    # list.  A fresh mount then loads the poisoned allocator state.
    slots = _read_superblocks(machine.storage)
    slot, newest = max(((s, sb) for s, sb, _p in slots if sb is not None),
                       key=lambda item: item[1]["generation"])
    newest["free_list"] = list(newest["free_list"]) + [[live_off, live_len]]
    machine.storage.discard_extent(slot)
    machine.storage.write(slot,
                          records.encode(records.REC_SUPERBLOCK, newest))
    store = ObjectStore(machine)
    assert store.mount()
    report = scrub(store)
    assert any(f.kind == "freelist" for f in report.findings)
    fixes = repair(store, report)
    assert any(a.kind == "freelist" for a in fixes.actions)
    report2 = scrub(store)
    assert not [f for f in report2.findings if f.kind == "freelist"], \
        report2.findings


def test_repair_collapses_overgrown_shadow_chains():
    from repro.core.orchestrator import Orchestrator
    from repro.core.shadowing import NONE
    from repro.objstore import scrub as scrub_mod

    machine = Machine()
    sls = load_aurora(machine)
    sls = Orchestrator(machine, sls.store, sls.slsfs,
                       collapse_direction=NONE)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False)
    for round_no in range(scrub_mod.MAX_SHADOW_DEPTH + 2):
        proc.vmspace.write(addr, b"round-%d" % round_no)
        sls.checkpoint(group, sync=True)
    report = scrub(sls.store, sls=sls)
    assert any(f.kind == "shadow-chain" for f in report.findings)
    fixes = repair(sls.store, report, sls=sls)
    assert any(a.kind == "shadow-chain" for a in fixes.actions)
    assert scrub(sls.store, sls=sls).ok
    # The repaired group still checkpoints and reads correctly.
    proc.vmspace.write(addr, b"after-fix")
    sls.checkpoint(group, sync=True)
    assert proc.vmspace.read(addr, 9) == b"after-fix"


def test_cli_scrub_repair_fixes_image_and_rescrubs_clean(tmp_path,
                                                         capsys):
    from repro.core.cli import main, _boot_from_image, _save_image

    image = str(tmp_path / "aurora.img")
    assert main(["init", image]) == 0
    assert main(["spawn", image, "demo", "--memory-kib", "64"]) == 0
    assert main(["run", image, "1", "--millis", "20"]) == 0

    machine = _boot_from_image(image)
    store = ObjectStore(machine)
    assert store.mount()
    stale_slot = SUPERBLOCK_SLOTS[(store._generation + 1) % 2]
    _flip_byte(machine, stale_slot, index=10)
    _save_image(machine, image)

    assert main(["scrub", image, "--repair"]) == 0
    out = capsys.readouterr().out
    assert "superblock" in out and "re-scrub: store is clean" in out
    # The repair persisted: a plain scrub of the image is clean.
    assert main(["scrub", image]) == 0
    assert "store is clean" in capsys.readouterr().out


def test_cli_slo_reports_degraded_budget(tmp_path, capsys):
    from repro.core.cli import main

    image = str(tmp_path / "aurora.img")
    assert main(["init", image]) == 0
    assert main(["spawn", image, "app", "--memory-kib", "64"]) == 0
    assert main(["slo", image, "1", "--checkpoints", "10",
                 "--degraded-ms", "25"]) == 0
    out = capsys.readouterr().out
    assert "degraded" in out
    assert "25" in out.split("degraded", 1)[1].splitlines()[0] or \
        "25.0" in out


# -- chaos smoke (CI) ---------------------------------------------------------------


def test_chaos_smoke_retryable_schedules_complete_after_retries():
    """Seeded random fault campaign, retry-aware: every plan whose
    fired faults are all *retryable* must complete the checkpoint
    (absorbed by backoff/retry), restore the new state after a crash,
    and scrub clean.  Non-retryable plans keep the old contract:
    restore yields a durable state or fails loudly."""
    explorer = CrashScheduleExplorer()
    schedule = explorer.probe()
    workload = explorer.workload
    retryable_completions = 0
    for seed in range(20):
        run = workload.boot()
        plan = FaultPlan.random(seed, schedule.io_count,
                                schedule.boundaries)
        run.machine.set_fault_plan(plan)
        completed = False
        try:
            workload.checkpoint(run)
            completed = True
        except (InjectedCrash, NoSpace, RetriesExhausted):
            pass
        fired_kinds = {e.kind for e in plan.events}
        retryable_only = fired_kinds <= {TRANSIENT, INTERMITTENT}
        if retryable_only:
            assert completed, \
                f"seed {seed} ({plan.describe()}): retryable faults " \
                f"were not absorbed"
            retryable_completions += 1
        run.machine.crash()
        run.machine.boot()
        sls = load_aurora(run.machine)
        try:
            result = sls.restore(run.gid, periodic=False)
        except CorruptRecord:
            assert not retryable_only
            continue
        state = workload.read_state(result.root, run.addr)
        if retryable_only:
            assert state == workload.V2, \
                f"seed {seed}: completed checkpoint not durable"
            report = scrub(sls.store)
            assert report.ok, (seed, report.findings)
        else:
            assert state in (workload.V1, workload.V2)
    assert retryable_completions >= 2, \
        "campaign never exercised the retry path"


# -- the Hypothesis property --------------------------------------------------------


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_property_retryable_schedules_restore_last_durable(seed):
    """For an arbitrary seeded schedule of transient/intermittent
    faults within the retry budget: the checkpoint completes, a crash
    + restore yields exactly the checkpointed state, and the store
    scrubs clean."""
    rng = random.Random(seed)
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False)
    proc.vmspace.write(addr, b"property-v1")
    sls.checkpoint(group, sync=True)
    proc.vmspace.write(addr, b"property-v2")

    plan = FaultPlan(name=f"prop-{seed}", seed=seed)
    worst = 0
    for _ in range(rng.randrange(4)):
        # times <= 3 < the 5-attempt budget: always absorbable.
        times = 1 + rng.randrange(3)
        worst = max(worst, times)
        plan.transient_at_io(rng.randrange(24), times=times)
    for _ in range(rng.randrange(3)):
        times = 1 + rng.randrange(3)
        worst = max(worst, times)
        plan.transient_at_read(rng.randrange(8), times=times)
    if rng.random() < 0.5:
        # Scheduled and intermittent faults can land on the same op:
        # together they stay under the attempt budget, so a single op
        # can never exhaust.
        plan.intermittent(p=0.3 * rng.random(), limit=4 - worst)
    machine.set_fault_plan(plan)

    sls.checkpoint(group, sync=True)  # must complete despite faults
    gid = group.group_id
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    result = sls2.restore(gid, periodic=False)
    assert result.root.vmspace.read(addr, 11) == b"property-v2"
    report = scrub(sls2.store)
    assert report.ok, (seed, plan.describe(), report.findings)
