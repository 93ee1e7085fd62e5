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

import gc
import random
import weakref
from unittest import mock

import pytest

from repro import Machine, load_aurora
from repro.core import events, resilience, telemetry
from repro.core.cluster import SLSCluster
from repro.core.faults import (IO, STAGE, FaultPlan, InjectedCrash,
                               INTERMITTENT, TRANSIENT)
from repro.core.resilience import GroupHealth, RetryPolicy
from repro.errors import (CorruptRecord, InvalidArgument, LeaseValid,
                          LinkDown, NoSpace, RetriesExhausted,
                          TransientDeviceError)
from repro.hw.clock import SimClock
from repro.hw.memory import Page
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.objstore import store as store_module
from repro.objstore.oid import CLASS_MEMORY, CLASS_POSIX, make_oid
from repro.objstore.repair import repair
from repro.objstore.scrub import scrub
from repro.objstore.store import ObjectStore, SUPERBLOCK_SLOTS
from repro.units import MiB, MSEC, PAGE_SIZE, USEC

from tests.crashsched import V1, V2, WORKLOADS, Explorer, read_head

MEM_OID = make_oid(CLASS_MEMORY, 42)


def _store_with_chain(machine, nckpts=3):
    store = ObjectStore(machine)
    store.format()
    parent = None
    infos = []
    for index in range(nckpts):
        txn = store.begin_checkpoint(group_id=4, parent=parent)
        txn.put_object(MEM_OID, "vmobject", {"step": index})
        txn.put_pages(MEM_OID,
                      page_runs({0: Page(data=b"page-%d" % index * 16)}))
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
    txn.put_pages(MEM_OID, page_runs({0: Page(data=b"payload" * 16)}))
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
            txn.put_pages(oid, page_runs({0: Page(seed=i)}))
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
        txn.put_pages(oid, page_runs({0: Page(data=bytes([i]) * 2048)}))
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
        first = FaultPlan.random(seed, io_count=40, stages=1)
        second = FaultPlan.random(seed, io_count=40, stages=1)
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


def test_device_errors_leave_a_degraded_groups_reason_alone():
    """Failed async flushes of a group already degraded (a fenced
    ex-primary's ``stale_primary`` spell) count towards the device
    threshold but never turn the spell into a ``device`` one."""
    machine = Machine()
    sls = load_aurora(machine)
    group = sls.attach(machine.kernel.spawn("app"), periodic=False)
    group.health.enter(resilience.REASON_STALE_PRIMARY, machine.clock.now())
    failures = resilience.DEVICE_FAILURE_THRESHOLD + 1
    for _ in range(failures):
        sls.rollback_failed_checkpoint(
            group, None, error=RetriesExhausted("store.meta: gave up"))
    assert group.health.reason == resilience.REASON_STALE_PRIMARY
    assert group.health.consecutive_failures == failures


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


def test_chaos_an_aborted_async_commit_is_never_published():
    """An async checkpoint whose file-system co-commit runs out of
    retries is aborted, and its pending store commit with it: the
    finalizer the flush scheduled never runs, so the checkpoint is
    never flipped into the catalog, even once the device is healthy
    again by the time its data lands.  The loop raises nothing, the
    group's newest complete checkpoint is still the first, the store
    scrubs clean and a crash restores the first checkpoint's bytes."""
    telemetry.reset()
    machine = Machine()
    sls = load_aurora(machine)
    kernel = machine.kernel
    proc = kernel.spawn("app")
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False)
    proc.vmspace.write(addr, b"durable-v1")
    first = sls.checkpoint(group, sync=True).info.ckpt_id
    commits = sls.store.stats["commits"]

    proc.vmspace.write(addr, b"aborted-v2")
    fd = kernel.open(proc, "/notes", O_RDWR | O_CREAT)
    kernel.write(proc, fd, b"dirty file")
    assert sls.slsfs.has_dirty()
    plan = FaultPlan(name="fs-dead")
    machine.set_fault_plan(plan)
    fs_checkpoint = sls.slsfs.checkpoint

    def failing_fs_checkpoint(sync=False):
        # The first write of the file system's flush never lands.
        plan.transient_at_io(plan.io_index, times=1000)
        return fs_checkpoint(sync=sync)

    with mock.patch.object(sls.slsfs, "checkpoint", failing_fs_checkpoint):
        with pytest.raises(RetriesExhausted):
            sls.checkpoint(group)
    assert plan.fired
    # The device heals before the group's flush lands: only the abort
    # keeps its finalizer from flipping the checkpoint.
    machine.clear_fault_plan()
    machine.run_for(50 * MSEC)

    assert sls.store.find_latest_complete(group.group_id).ckpt_id == first
    assert sls.store.stats["commits"] == commits
    assert scrub(sls.store).ok
    gid = group.group_id
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    restored = sls2.restore(gid, periodic=False)
    assert restored.root.vmspace.read(addr, 10) == b"durable-v1"
    telemetry.reset()


def test_chaos_a_failed_sync_commit_leaves_its_transaction_collectable():
    """A sync file-system checkpoint whose metadata write runs out of
    retries is aborted, and nothing of the store keeps its transaction
    (or the failure callback that closes over it) alive."""

    def fs_checkpoint(plan):
        machine = Machine()
        sls = load_aurora(machine)
        kernel = machine.kernel
        proc = kernel.spawn("app")
        fd = kernel.open(proc, "/notes", O_RDWR | O_CREAT)
        kernel.write(proc, fd, b"dirty file")
        machine.set_fault_plan(plan)
        refs = []
        begin = sls.store.begin_checkpoint

        def begin_checkpoint(*args, **kwargs):
            txn = begin(*args, **kwargs)
            refs.append(weakref.ref(txn))
            return txn

        with mock.patch.object(sls.store, "begin_checkpoint",
                               begin_checkpoint):
            try:
                sls.slsfs.checkpoint(sync=True)
            except RetriesExhausted:
                pass
        return sls, refs

    probe = FaultPlan(name="count")
    fs_checkpoint(probe)
    meta = probe.io_index - 3   # the metadata, catalog and superblock
    plan = FaultPlan(name="meta-dead").transient_at_io(meta, times=1000)
    sls, refs = fs_checkpoint(plan)
    assert plan.fired and len(refs) == 1
    assert sls.store.stats["commits"] == 0
    gc.collect()
    assert refs[0]() is None, "the failed transaction is still reachable"


def test_a_settled_transaction_is_freed_by_refcount_alone():
    """A transaction's callbacks and finalizer close over it; once it
    lands or aborts it drops them, so with the cyclic collector off
    a landed async commit and an aborted sync one are both freed."""
    refs = []

    def tracked(store):
        begin = store.begin_checkpoint

        def begin_checkpoint(*args, **kwargs):
            txn = begin(*args, **kwargs)
            refs.append(weakref.ref(txn))
            return txn
        return mock.patch.object(store, "begin_checkpoint", begin_checkpoint)

    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, name="app", periodic=False)
    proc.vmspace.write(addr, b"async")
    gc.collect()
    gc.disable()
    try:
        with tracked(sls.store):
            sls.checkpoint(group, name="landed")
            machine.loop.drain()
            assert group.last_complete_id is not None
            fd = machine.kernel.open(proc, "/notes", O_RDWR | O_CREAT)
            machine.kernel.write(proc, fd, b"dirty file")
            machine.set_fault_plan(FaultPlan(name="dead").intermittent(1.0))
            with pytest.raises(RetriesExhausted):
                sls.slsfs.checkpoint(sync=True)
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None], \
            "a settled transaction is held in a reference cycle"
    finally:
        gc.enable()


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
    node = cluster.nodes[0]
    proc.vmspace.write(addr, b"flap-state")
    sls.checkpoint(group, sync=True)
    primary.set_fault_plan(FaultPlan(name="flap").flaky_link(times=2))
    before = primary.clock.now()
    assert cluster.pump() == group.last_complete_id
    assert primary.clock.now() > before, "reconnect paid no backoff"
    assert node.down_since is None and node.stats["outages"] == 0
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
    node = cluster.nodes[0]
    proc.vmspace.write(addr, b"shipped-v1")
    sls.checkpoint(group, sync=True)
    shipped = group.last_complete_id
    assert cluster.pump() == shipped

    # A long outage: every reconnect attempt finds the link down.
    proc.vmspace.write(addr, b"stranded!!")
    sls.checkpoint(group, sync=True)
    primary.set_fault_plan(FaultPlan(name="down").flaky_link(times=10_000))
    assert cluster.pump() == shipped
    assert node.down_since is not None
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
    node = cluster.nodes[0]
    proc.vmspace.write(addr, b"first")
    sls.checkpoint(group, sync=True)
    newest = group.last_complete_id
    primary.set_fault_plan(FaultPlan(name="out").flaky_link(times=10))
    # 5 attempts, 5 flaps left
    assert not cluster.ship_checkpoint(node, newest)
    assert node.down_since is not None
    assert not cluster.ship_checkpoint(node, newest)  # the flap budget drains
    assert cluster.ship_checkpoint(node, newest)  # link healed
    assert node.down_since is None
    assert events.log().matching(events.LINK_UP)
    assert node.stats["outages"] == 1
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


def test_repair_rederives_a_free_list_holding_an_owned_extent():
    """A mounted store whose allocator frees an extent a checkpoint
    owns: scrub reports it, repair replaces the free list with the one
    the owners leave, and nothing is written — the free list is not on
    media, so the superblock generation stays where it was.  An
    allocation nothing owns is the same repair's other side."""
    from repro.objstore.recovery import _read_superblocks

    machine = Machine()
    _store, infos = _store_with_chain(machine)
    machine.crash()
    machine.boot()
    store = ObjectStore(machine)
    assert store.mount()
    generation = store._generation
    free = store.alloc.snapshot()[1]
    live_off, live_len = \
        store.checkpoints[infos[0].ckpt_id].owned_extents[0]
    store.alloc.free(live_off, live_len)
    report = scrub(store)
    assert [finding.kind for finding in report.findings] == ["freelist"]
    assert str(live_off) in report.findings[0].detail
    fixes = repair(store, report)
    assert [action.kind for action in fixes.actions] == ["freelist"]
    assert store.alloc.snapshot()[1] == free
    assert scrub(store).ok
    store.alloc.alloc(PAGE_SIZE)
    report = scrub(store)
    assert [finding.kind for finding in report.findings] == ["orphan"]
    repair(store, report)
    assert store.alloc.snapshot()[1] == free
    assert scrub(store).ok
    assert store._generation == generation
    assert max(sb["generation"] for _slot, sb, _present
               in _read_superblocks(machine.storage) if sb) == generation


def test_repair_collapses_overgrown_shadow_chains():
    from repro.core.shadowing import NONE
    from repro.objstore import scrub as scrub_mod

    machine = Machine()
    sls = load_aurora(machine)
    sls.shadow.collapse_direction = NONE
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
    explorer = Explorer(WORKLOADS["counter"])
    schedule = explorer.probe()
    workload = explorer.workload
    retryable_completions = 0
    for seed in range(20):
        run = workload.boot()
        plan = FaultPlan.random(seed, len(schedule.entries(IO)),
                                len(schedule.entries(STAGE)))
        run.machine.set_fault_plan(plan)
        completed = False
        try:
            workload.action(run)
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
        state = read_head(result.root, run.addr)
        if retryable_only:
            assert state == V2, \
                f"seed {seed}: completed checkpoint not durable"
            report = scrub(sls.store)
            assert report.ok, (seed, report.findings)
        else:
            assert state in (V1, V2)
    assert retryable_completions >= 2, \
        "campaign never exercised the retry path"


# -- GC under faults: a commit that trims its history ------------------------------


def _trimming_checkpoint(plan, sync):
    """Two checkpoints of a group that keeps one: the second's
    completion deletes the first, whose child it is, in one flip (its
    one metadata record, the catalog and the superblock), with
    ``plan`` set for the second.  Returns the machine, orchestrator, group, process and
    the address written."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False, history_limit=1)
    proc.vmspace.write(addr, b"trim-v1")
    sls.checkpoint(group, sync=True)
    proc.vmspace.write(addr, b"trim-v2")
    machine.set_fault_plan(plan)
    sls.checkpoint(group, sync=sync)
    machine.loop.drain()
    return machine, sls, group, proc, addr


def _history(sls, group):
    return [info.ckpt_id for info in
            sls.store.checkpoints_for(group.group_id, include_partial=True)]


def _restores(machine, group, addr, content):
    machine.crash()
    machine.boot()
    sls = load_aurora(machine)
    result = sls.restore(group.group_id, periodic=False)
    assert result.root.vmspace.read(addr, len(content)) == content
    assert scrub(sls.store).ok


@pytest.mark.parametrize("sync", [True, False], ids=["sync", "async"])
def test_chaos_gc_transient_at_every_io_keeps_the_commit(sync):
    """One transient write error at each IO of a checkpoint whose
    commit trims the history, the adopting child's metadata write
    included, is retried away: the checkpoint commits, the old one is deleted, the
    store scrubs clean and a crash restores the new state."""
    probe = FaultPlan(name="count")
    _trimming_checkpoint(probe, sync)
    ios = probe.io_index
    assert ios >= 5     # the data, then the flip's metadata, catalog
                        # and superblock
    for index in range(ios):
        plan = FaultPlan(name=f"gc-transient-{index}").transient_at_io(index)
        machine, sls, group, _proc, addr = _trimming_checkpoint(plan, sync)
        assert plan.fired, index
        assert _history(sls, group) == [group.last_complete_id], index
        assert scrub(sls.store).ok, index
        _restores(machine, group, addr, b"trim-v2")


@pytest.mark.parametrize("sync", [True, False], ids=["sync", "async"])
def test_chaos_gc_that_exhausts_its_retries_keeps_the_commit(sync):
    """A trimming commit whose one metadata write (the adopter's, its
    own) fails past the retry budget sheds its victim and flips again,
    writing its record unadopted: the checkpoint that triggered the
    trim is committed, and the next commit's trim deletes what it
    could not."""
    probe = FaultPlan(name="count")
    _trimming_checkpoint(probe, sync)
    child_meta = probe.io_index - 3     # the adopter's metadata, catalog,
                                        # superblock
    plan = FaultPlan(name="gc-exhausted").transient_at_io(
        child_meta, times=resilience.DEFAULT_MAX_ATTEMPTS)
    machine, sls, group, proc, addr = _trimming_checkpoint(plan, sync)
    assert plan.fired
    first, second = _history(sls, group)
    assert group.last_complete_id == second
    assert scrub(sls.store).ok

    machine.clear_fault_plan()
    proc.vmspace.write(addr, b"trim-v3")
    sls.checkpoint(group, sync=sync)
    machine.loop.drain()
    assert _history(sls, group) == [group.last_complete_id]
    assert first not in sls.store.checkpoints
    assert scrub(sls.store).ok
    _restores(machine, group, addr, b"trim-v3")


def test_a_history_limit_below_one_is_refused():
    """A history of zero checkpoints would trim the one just committed:
    ``attach`` refuses it, leaving nothing attached, and so does
    ``retain_last``."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    with pytest.raises(InvalidArgument, match="history limit"):
        sls.attach(proc, periodic=False, history_limit=0)
    assert not sls.groups
    group = sls.attach(proc, periodic=False, history_limit=1)
    sls.checkpoint(group, sync=True)
    with pytest.raises(InvalidArgument, match="history limit"):
        sls.store.retain_last(group.group_id, 0)
    assert _history(sls, group) == [group.last_complete_id]


def _forked_victim():
    """A chain head whose record index spans three extents, and two
    children: ``left`` rewrote every record of the first extent and one
    of the second, ``right`` (a restore fork) no longer reaches the
    third.  A delete of the head shares, rebuilds and leaves out
    entries."""
    machine = Machine(storage_devices=1, capacity_per_device=4 * MiB)
    store = ObjectStore(machine)
    store.format()
    oids = [make_oid(CLASS_POSIX, serial) for serial in range(1, 13)]

    def commit(parent, written, live):
        txn = store.begin_checkpoint(group_id=4, parent=parent)
        for oid in written:
            txn.put_object(oid, "blob", {"v": parent})
        txn.info.live_oids = set(live)
        return store.commit(txn, sync=True)

    with mock.patch.object(store_module, "RECORD_BATCH", 4):
        head = commit(None, oids, oids)
        left = commit(head.ckpt_id, oids[:5], oids)
        right = commit(head.ckpt_id, (), oids[:8])
    assert len(head.object_records.entries) == 3
    return machine, store, head, (left, right)


def test_chaos_gc_retried_child_meta_write_matches_an_unfailed_delete():
    """A delete whose second child-metadata write exhausts its retries
    takes back both children's adoption without touching an entry of
    the victim's record index, and the retried delete writes the
    metadata bytes of a delete that never failed."""
    def run(fail):
        machine, store, head, children = _forked_victim()
        entries = [(entry, entry.extent, list(entry.oids))
                   for entry in head.object_records.entries]
        tables = [child.object_records for child in children]
        if fail:
            # IO 0 is the left child's metadata, IO 1 the right one's.
            machine.set_fault_plan(FaultPlan(name="gc-meta").transient_at_io(
                1, times=resilience.DEFAULT_MAX_ATTEMPTS))
            with pytest.raises(RetriesExhausted):
                store.delete_checkpoint(head.ckpt_id)
            machine.clear_fault_plan()
            assert [(entry, entry.extent, list(entry.oids)) for entry, _e, _o
                    in entries] == entries
            assert [child.object_records for child in children] == tables
            assert all(child.object_records is table
                       for child, table in zip(children, tables))
        store.delete_checkpoint(head.ckpt_id)
        assert scrub(store).ok
        return [store.device.read(child.meta_extent[0])
                for child in children], [child.object_records.entries
                                         for child in children]

    clean, clean_entries = run(fail=False)
    retried, retried_entries = run(fail=True)
    assert retried == clean
    # The delete shared one entry, rebuilt one and left one out.
    left, right = clean_entries
    assert [len(entry.oids) for entry in left[-2:]] == [3, 4]
    assert [len(entry.oids) for entry in right[-2:]] == [4, 4]


# -- the Hypothesis property --------------------------------------------------------


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from tests.content import page_runs


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20),
       history_limit=st.sampled_from([None, 1]))
def test_property_retryable_schedules_restore_last_durable(seed,
                                                           history_limit):
    """For an arbitrary seeded schedule of transient/intermittent
    faults within the retry budget: the checkpoint completes, a crash
    + restore yields exactly the checkpointed state, and the store
    scrubs clean.  With ``history_limit=1`` the commit also deletes
    the first checkpoint under the same plan."""
    rng = random.Random(seed)
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False, history_limit=history_limit)
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
