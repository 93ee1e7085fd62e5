"""Crash-schedule exploration: a crash at *any* instant of a
checkpoint restores the last durable checkpoint (§5, §7).

The smoke tests (tier-1) cover every pipeline stage boundary plus a
fixed-seed sample of IO indices; the exhaustive sweep over every IO
index of a full checkpoint/commit runs under ``-m slow`` (CI's
crash-schedule job).  The remaining tests exercise the other fault
kinds: torn superblock writes, injected ENOSPC, silent bit flips.
"""

import random

import pytest

from repro import Machine, load_aurora
from repro.core.faults import (AFTER, BEFORE, FaultPlan, InjectedCrash,
                               NOSPACE)
from repro.core.pipeline import STAGE_ORDER
from repro.errors import CorruptRecord, NoSpace
from repro.hw.memory import Page
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore.store import ObjectStore
from repro.units import PAGE_SIZE

from tests.crashsched import (ClusterScheduleExplorer, ClusterWorkload,
                              CounterAppWorkload, CrashScheduleExplorer,
                              GCCounterWorkload,
                              IncrementalCounterWorkload, IOCrash,
                              StageCrash)

SMOKE_SEED = 0xA0DA
SMOKE_IO_SAMPLES = 3


@pytest.fixture(scope="module")
def explorer():
    return CrashScheduleExplorer()


@pytest.fixture(scope="module")
def schedule(explorer):
    """Probed (and determinism-checked) schedule, shared per module."""
    return explorer.probe()


def test_probe_covers_every_stage_boundary(schedule):
    """The schedule space includes all N+1 boundaries of the §4.1
    pipeline, in order."""
    expected = [(stage, BEFORE) for stage in STAGE_ORDER]
    expected.append((STAGE_ORDER[-1], AFTER))
    assert schedule.boundaries == expected


def test_probe_finds_commit_point(schedule):
    """The superblock flip is inside the IO schedule, not at its very
    start (data and records precede it)."""
    assert 0 < schedule.flip_index < schedule.io_count


def test_crash_at_every_stage_boundary_restores_durable_state(
        explorer, schedule):
    """Tier-1 slice of the sweep: all stage boundaries."""
    points = [StageCrash(stage, edge)
              for stage, edge in schedule.boundaries]
    outcomes = explorer.sweep(points, schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    # Boundaries before the flush see V1; the final boundary sees V2.
    assert outcomes[0].restored == CounterAppWorkload.V1
    assert outcomes[-1].restored == CounterAppWorkload.V2


def test_crash_at_sampled_io_indices_restores_durable_state(
        explorer, schedule):
    """Tier-1 slice: a fixed-seed sample of IO indices, always
    including the commit point itself and its immediate successor."""
    rng = random.Random(SMOKE_SEED)
    indices = {schedule.flip_index, schedule.flip_index + 1}
    indices.update(rng.sample(range(schedule.io_count), SMOKE_IO_SAMPLES))
    indices = {index for index in indices if index < schedule.io_count}
    outcomes = explorer.sweep([IOCrash(index)
                               for index in sorted(indices)], schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]


@pytest.mark.slow
def test_exhaustive_crash_schedule_sweep(explorer, schedule):
    """Every stage boundary AND every IO index of one full
    checkpoint/commit — the complete schedule, with exhaustiveness
    asserted — restores to the last durable checkpoint."""
    points = explorer.all_points(schedule)
    # Exhaustiveness: all N+1 stage boundaries...
    stage_points = [p for p in points if isinstance(p, StageCrash)]
    assert {(p.stage, p.edge) for p in stage_points} == \
        set([(s, BEFORE) for s in STAGE_ORDER] + [(STAGE_ORDER[-1], AFTER)])
    # ...and every IO index of the commit, gap-free.
    io_points = [p for p in points if isinstance(p, IOCrash)]
    assert [p.index for p in io_points] == list(range(schedule.io_count))
    assert schedule.io_count > 0

    outcomes = explorer.sweep(points, schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    # Both durable states were actually exercised by the sweep.
    restored = {outcome.restored for outcome in outcomes}
    assert restored == {CounterAppWorkload.V1, CounterAppWorkload.V2}


@pytest.fixture(scope="module")
def incr_explorer():
    """Explorer whose durable and probed checkpoints are incremental."""
    return CrashScheduleExplorer(IncrementalCounterWorkload())


@pytest.fixture(scope="module")
def incr_schedule(incr_explorer):
    return incr_explorer.probe()


def test_incremental_crash_at_stage_boundaries_restores_durable(
        incr_explorer, incr_schedule):
    """Crashing between two *incremental* checkpoints (at every stage
    boundary of the probed one) restores exactly the last durable
    incremental checkpoint — whose records partly live in the parent
    full delta and resolve through the chain."""
    points = [StageCrash(stage, edge)
              for stage, edge in incr_schedule.boundaries]
    outcomes = incr_explorer.sweep(points, incr_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert outcomes[0].restored == IncrementalCounterWorkload.V1
    assert outcomes[-1].restored == IncrementalCounterWorkload.V2


def test_incremental_crash_around_commit_point_restores_durable(
        incr_explorer, incr_schedule):
    """The incremental delta's commit point behaves like the full
    one's: the superblock flip alone makes V2 durable."""
    indices = [incr_schedule.flip_index, incr_schedule.flip_index + 1]
    indices = [i for i in indices if i < incr_schedule.io_count]
    outcomes = incr_explorer.sweep([IOCrash(i) for i in indices],
                                   incr_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]


@pytest.fixture(scope="module")
def gc_explorer():
    """Explorer whose probed checkpoint deletes its parent."""
    return CrashScheduleExplorer(GCCounterWorkload())


@pytest.fixture(scope="module")
def gc_schedule(gc_explorer):
    return gc_explorer.probe()


def test_gc_flip_follows_the_commit_flip(gc_schedule):
    """The schedule space of a history-limited checkpoint includes the
    delete's own IOs: child metadata, catalog, a second flip."""
    assert gc_schedule.gc_flip_index is not None
    assert gc_schedule.flip_index < gc_schedule.gc_flip_index \
        == gc_schedule.io_count - 1


def test_crash_during_gc_restores_the_committed_checkpoint(
        gc_explorer, gc_schedule):
    """Tier-1 slice: every IO from the commit flip through the GC flip
    plus the stage boundaries after it.  Nothing the durable superblock
    reaches may be gone before the flip that unreferences it lands —
    each of these used to leave the store unmountable."""
    points = [IOCrash(index)
              for index in range(gc_schedule.flip_index,
                                 gc_schedule.io_count)]
    points += [StageCrash(stage, edge)
               for stage, edge in gc_schedule.boundaries[-2:]]
    outcomes = gc_explorer.sweep(points, gc_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert outcomes[0].restored == GCCounterWorkload.V1
    assert {outcome.restored for outcome in outcomes[1:]} == \
        {GCCounterWorkload.V2}


@pytest.mark.slow
def test_exhaustive_gc_crash_schedule_sweep(gc_explorer, gc_schedule):
    """Every stage boundary and every IO index of a checkpoint whose
    commit garbage-collects its parent."""
    points = gc_explorer.all_points(gc_schedule)
    assert [p.index for p in points if isinstance(p, IOCrash)] == \
        list(range(gc_schedule.io_count))
    outcomes = gc_explorer.sweep(points, gc_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert {outcome.restored for outcome in outcomes} == \
        {GCCounterWorkload.V1, GCCounterWorkload.V2}


def test_torn_superblock_write_falls_back_to_previous_checkpoint(
        explorer, schedule):
    """Tearing the commit's superblock flip (half the record lands,
    then power fails) must leave the previous generation live."""
    workload = explorer.workload
    run = workload.boot()
    plan = FaultPlan(name="torn-flip").torn_at_io(schedule.flip_index)
    run.machine.set_fault_plan(plan)
    with pytest.raises(InjectedCrash):
        workload.checkpoint(run)
    run.machine.crash()
    run.machine.boot()
    sls = load_aurora(run.machine)
    result = sls.restore(run.gid, periodic=False)
    assert workload.read_state(result.root, run.addr) == workload.V1


def test_injected_nospace_fails_checkpoint_not_history(explorer, schedule):
    """ENOSPC mid-flush fails the checkpoint cleanly; after a crash
    the prior checkpoint still restores."""
    workload = explorer.workload
    run = workload.boot()
    plan = FaultPlan(name="enospc").nospace_at_io(1)
    run.machine.set_fault_plan(plan)
    with pytest.raises(NoSpace):
        workload.checkpoint(run)
    assert plan.events[0].kind == NOSPACE
    run.machine.crash()
    run.machine.boot()
    sls = load_aurora(run.machine)
    result = sls.restore(run.gid, periodic=False)
    assert workload.read_state(result.root, run.addr) == workload.V1


def test_bitflip_corrupts_record_detectably():
    """A silent bit flip in an object record write is caught by the
    record checksum on read-back."""
    machine = Machine()
    store = ObjectStore(machine)
    store.format()
    machine.set_fault_plan(FaultPlan(name="flip").bitflip_at_io(0))
    txn = store.begin_checkpoint(group_id=7)
    txn.put_object(make_oid(CLASS_MEMORY, 1), "vmobject",
                   {"size_pages": 1})
    info = store.commit(txn, sync=True)
    oid = next(iter(info.object_records))
    with pytest.raises(CorruptRecord):
        store.read_object_records({oid: info.object_records[oid]})


def test_seeded_random_plans_are_reproducible(schedule):
    """FaultPlan.random is a pure function of its seed — the CI smoke
    subset depends on replayable fault schedules."""
    for seed in (1, 2, 0xBEEF):
        first = FaultPlan.random(seed, schedule.io_count,
                                 schedule.boundaries)
        second = FaultPlan.random(seed, schedule.io_count,
                                  schedule.boundaries)
        assert first.describe() == second.describe()


@pytest.mark.slow
def test_seeded_random_fault_campaign(explorer, schedule):
    """A fixed-seed campaign of randomized single-fault plans: crashes
    restore durable state; ENOSPC surfaces cleanly; bit flips and torn
    non-commit writes never corrupt what a restore returns silently
    into a *wrong* durable state (restores yield V1 or V2 exactly, or
    fail loudly)."""
    workload = explorer.workload
    for seed in range(12):
        run = workload.boot()
        plan = FaultPlan.random(seed, schedule.io_count,
                                schedule.boundaries)
        run.machine.set_fault_plan(plan)
        try:
            workload.checkpoint(run)
        except (InjectedCrash, NoSpace):
            pass
        run.machine.crash()
        run.machine.boot()
        sls = load_aurora(run.machine)
        try:
            result = sls.restore(run.gid, periodic=False)
        except CorruptRecord:
            continue  # loud failure is acceptable for silent bit flips
        state = workload.read_state(result.root, run.addr)
        assert state in (workload.V1, workload.V2), \
            f"seed {seed} ({plan.describe()}): restored garbage {state!r}"


def test_crash_mid_pipeline_leaves_prior_checkpoint_for_multiproc():
    """A richer workload (forked child + shared pages) crashed between
    shadow and serialize still restores its durable checkpoint."""
    machine = Machine()
    sls = load_aurora(machine)
    kernel = machine.kernel
    parent = kernel.spawn("parent")
    addr = parent.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    parent.vmspace.write(addr, b"durable")
    group = sls.attach(parent, periodic=False)
    kernel.fork(parent, name="child")
    sls.checkpoint(group, sync=True)
    gid = group.group_id
    parent.vmspace.write(addr, b"doomed!")
    machine.set_fault_plan(
        FaultPlan(name="mid").crash_at_stage("serialize", BEFORE))
    with pytest.raises(InjectedCrash):
        sls.checkpoint(group, sync=True)
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    result = sls2.restore(gid, periodic=False)
    assert result.root.vmspace.read(addr, 7) == b"durable"
    assert {p.name for p in result.processes} == {"parent", "child"}


# -- fault injection meets the observability layer ---------------------------------


def _crash_at_seal_scenario():
    """One durable checkpoint, then a crash injected before seal.

    Returns the fault events, the failure events and the finished
    checkpoint traces of the run (telemetry freshly reset)."""
    from repro.core import events, telemetry, tracing

    telemetry.reset()
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 8, seed=1)
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True)
    proc.vmspace.fill(addr, 8, seed=2)
    machine.set_fault_plan(
        FaultPlan(name="seal").crash_at_stage("seal", BEFORE))
    with pytest.raises(InjectedCrash):
        sls.checkpoint(group, sync=True)
    faults = [(e.time_ns, dict(e.fields)) for e in
              events.log().matching(events.FAULT_INJECTED)]
    fails = [(e.time_ns, dict(e.fields)) for e in
             events.log().matching(events.CKPT_FAIL)]
    traces = tracing.tracer().traces(tracing.CHECKPOINT,
                                     group=group.group_id)
    return faults, fails, traces


def test_injected_fault_lands_in_event_log_at_deterministic_time():
    """The fault's event-log entry carries the sim-instant it fired —
    and two identical runs produce the identical entry."""
    from repro.core import telemetry

    faults1, fails1, _ = _crash_at_seal_scenario()
    faults2, fails2, _ = _crash_at_seal_scenario()
    telemetry.reset()
    assert len(faults1) == 1
    time_ns, fields = faults1[0]
    assert fields["fault"] == "crash"
    assert fields["stage"] == "seal" and fields["edge"] == BEFORE
    assert faults1 == faults2
    # The orchestrator logged the checkpoint failure at the same
    # deterministic instant, naming the injected crash.
    assert len(fails1) == 1
    assert fails1 == fails2
    assert "InjectedCrash" in fails1[0][1]["error"]


# -- cluster crash scheduling: every replication/quorum boundary -------------------


@pytest.fixture(scope="module")
def cluster_explorer():
    return ClusterScheduleExplorer()


@pytest.fixture(scope="module")
def cluster_schedule(cluster_explorer):
    """Probed (determinism-checked) replication boundary schedule."""
    return cluster_explorer.probe()


def _sampled_indices(schedule, extra_samples=4):
    """Fixed-seed sample always covering the decisive boundaries:
    the first, the last pre-flip, the flip itself, its successor, the
    first repair boundary and the final one."""
    first_repair = next(i for i, (_, b) in enumerate(schedule.repl_log)
                        if b == "repair")
    indices = {0, schedule.flip_index - 1, schedule.flip_index,
               schedule.flip_index + 1, first_repair, schedule.count - 1}
    rng = random.Random(SMOKE_SEED)
    indices.update(rng.sample(range(schedule.count), extra_samples))
    return sorted(index for index in indices
                  if 0 <= index < schedule.count)


def test_cluster_probe_covers_the_whole_protocol(cluster_schedule):
    """The schedule crosses ship/deliver/apply/ack for every reachable
    node and repair for every rebuilt segment — and the durability
    flip sits at the write-quorum-th apply, strictly inside."""
    boundaries = {b for _, b in cluster_schedule.repl_log}
    assert boundaries == {"ship", "deliver", "apply", "ack", "repair"}
    pump_nodes = {n for n, b in cluster_schedule.repl_log if b == "ack"}
    assert pump_nodes == set(range(ClusterWorkload.NODES - 1))
    applies = [i for i, (_, b) in enumerate(cluster_schedule.repl_log)
               if b == "apply"]
    assert cluster_schedule.flip_index == \
        applies[ClusterWorkload.WRITE_QUORUM - 1]
    assert 0 < cluster_schedule.flip_index < cluster_schedule.count - 1


def test_cluster_primary_crash_at_sampled_boundaries(cluster_explorer,
                                                     cluster_schedule):
    """Tier-1 slice: the primary power-fails at the decisive
    boundaries (plus a fixed-seed sample); recovery from replica media
    yields exactly the last quorum-acked checkpoint — V2 at and after
    the write-quorum apply, V1 before it, never a mixture."""
    outcomes = cluster_explorer.sweep(_sampled_indices(cluster_schedule),
                                      cluster_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    restored = {outcome.restored for outcome in outcomes}
    assert restored == {ClusterWorkload.V1, ClusterWorkload.V2}


def test_cluster_node_crash_at_sampled_boundaries(cluster_explorer,
                                                  cluster_schedule):
    """Tier-1 slice: the node *named by the boundary* power-fails
    there instead.  The pump and repair absorb the loss, the write
    quorum still forms, and recovery yields V2 every time."""
    indices = _sampled_indices(cluster_schedule, extra_samples=2)[:5]
    outcomes = cluster_explorer.sweep(indices, cluster_schedule,
                                      mode="node")
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert all(outcome.restored == ClusterWorkload.V2
               for outcome in outcomes)


@pytest.mark.slow
def test_cluster_exhaustive_primary_crash_sweep(cluster_explorer,
                                                cluster_schedule):
    """Every replication/quorum boundary, gap-free: a primary crash at
    each one recovers exactly the last quorum-acked checkpoint.  A
    quorum-acked V2 is always recovered; a non-acked V2 is never even
    partially visible."""
    indices = list(range(cluster_schedule.count))
    outcomes = cluster_explorer.sweep(indices, cluster_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    # Both durable states were actually exercised, and they flip
    # exactly once, at the write-quorum apply.
    flips = [outcome.restored == ClusterWorkload.V2
             for outcome in outcomes]
    assert flips == [index >= cluster_schedule.flip_index
                     for index in indices]


@pytest.mark.slow
def test_cluster_exhaustive_node_crash_sweep(cluster_explorer,
                                             cluster_schedule):
    """Any single node crashing at any boundary never loses the
    quorum: the action completes and recovery yields V2 everywhere."""
    indices = list(range(cluster_schedule.count))
    outcomes = cluster_explorer.sweep(indices, cluster_schedule,
                                      mode="node")
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert all(outcome.restored == ClusterWorkload.V2
               for outcome in outcomes)


def test_crashed_checkpoint_trace_is_marked_incomplete():
    """The durable checkpoint's trace completes; the crashed one stays
    incomplete with the error recorded — the post-mortem marker."""
    from repro.core import telemetry

    _faults, _fails, traces = _crash_at_seal_scenario()
    telemetry.reset()
    assert len(traces) == 2
    durable, crashed = traces
    assert durable.complete and durable.error is None
    assert not crashed.complete
    assert "InjectedCrash" in crashed.error
    # The crashed trace still holds the stages that did run: quiesce
    # through serialize, but nothing at or past the seal boundary.
    names = {s.name for s in crashed.spans}
    assert "ckpt.serialize" in names
    assert "ckpt.flush" not in names


# -- fenced-failover boundaries: epoch bump, lease expiry, reconcile ---------


from repro.core.cluster import B_EPOCH, B_LEASE, B_RECONCILE  # noqa: E402
from repro.core.faults import PRIMARY  # noqa: E402
from tests.crashsched import FencedScheduleExplorer  # noqa: E402


@pytest.fixture(scope="module")
def fenced_explorer():
    return FencedScheduleExplorer()


@pytest.fixture(scope="module")
def fenced_schedule(fenced_explorer):
    """Probed (determinism-checked) fenced-failover schedule."""
    return fenced_explorer.probe()


def _fencing_indices(schedule):
    return [index for index, (_, boundary)
            in enumerate(schedule.repl_log)
            if boundary in (B_EPOCH, B_LEASE, B_RECONCILE)]


def test_fenced_probe_covers_the_failover_protocol(fenced_schedule):
    """The schedule crosses the lease expiry once, an epoch promise
    on every voter, a reconcile on every node — in protocol order —
    and the fenced V2 never reaches a write-quorum apply."""
    log = fenced_schedule.repl_log
    nodes = list(range(ClusterWorkload.NODES))
    assert [n for n, b in log if b == B_EPOCH] == nodes
    assert [n for n, b in log if b == B_RECONCILE] == nodes
    assert [n for n, b in log if b == B_LEASE] == [PRIMARY]
    kinds = [b for _, b in log]
    assert kinds.index(B_LEASE) < kinds.index(B_EPOCH) \
        < kinds.index(B_RECONCILE)
    assert fenced_schedule.flip_index is None


def test_fenced_failover_crash_at_fencing_boundaries(fenced_explorer,
                                                     fenced_schedule):
    """Tier-1 slice: the lease boundary plus the first and last epoch
    and reconcile boundaries.  A primary crash at any of them
    recovers exactly V1 — the partitioned V2 is never readable, no
    matter how far the epoch bump or the reconciliation got."""
    fencing = _fencing_indices(fenced_schedule)
    by_kind = {}
    for index in fencing:
        by_kind.setdefault(fenced_schedule.repl_log[index][1],
                           []).append(index)
    indices = sorted({ixs[0] for ixs in by_kind.values()}
                     | {ixs[-1] for ixs in by_kind.values()})
    outcomes = fenced_explorer.sweep(indices, fenced_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert all(outcome.restored == ClusterWorkload.V1
               for outcome in outcomes)


@pytest.mark.slow
def test_fenced_failover_exhaustive_crash_sweep(fenced_explorer,
                                                fenced_schedule):
    """Every boundary of the partitioned failover, gap-free — the
    stalled ships, the lease expiry, every epoch promise, every
    reconcile — restores V1 and only V1."""
    indices = list(range(fenced_schedule.count))
    outcomes = fenced_explorer.sweep(indices, fenced_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert {outcome.restored for outcome in outcomes} == \
        {ClusterWorkload.V1}


# -- fleet-scheduler boundaries ----------------------------------------------


from tests.crashsched import FleetScheduleExplorer  # noqa: E402


@pytest.fixture(scope="module")
def fleet_explorer():
    return FleetScheduleExplorer()


@pytest.fixture(scope="module")
def fleet_schedule(fleet_explorer):
    """Probed (determinism-checked) fleet boundary schedule."""
    return fleet_explorer.probe()


def test_fleet_probe_crosses_every_boundary_kind(fleet_schedule):
    """The probed action admits, dispatches and widens at least once,
    and the admit of the late tenant precedes its dispatches."""
    kinds = [boundary for _, boundary in fleet_schedule]
    assert {"admit", "dispatch", "widen"} <= set(kinds)
    late_gid = next(gid for gid, boundary in fleet_schedule
                    if boundary == "admit")
    first_admit = kinds.index("admit")
    first_late_dispatch = next(
        (index for index, (gid, boundary) in enumerate(fleet_schedule)
         if boundary == "dispatch" and gid == late_gid),
        len(fleet_schedule))
    assert first_admit < first_late_dispatch


def test_crash_at_fleet_control_boundaries_restores_durable_state(
        fleet_explorer, fleet_schedule):
    """Tier-1 slice: the admit and every widen boundary, plus the
    first and last dispatch — each tenant restores exactly its newest
    durable checkpoint, never a torn or lost one."""
    dispatch_indices = [index for index, (_, boundary)
                        in enumerate(fleet_schedule)
                        if boundary == "dispatch"]
    indices = sorted(
        {index for index, (_, boundary) in enumerate(fleet_schedule)
         if boundary in ("admit", "widen")}
        | {dispatch_indices[0], dispatch_indices[-1]})
    outcomes = fleet_explorer.sweep(indices, fleet_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    # Later crashes never restore an older state than earlier ones.
    assert outcomes, "sweep produced no restorable tenants"


@pytest.mark.slow
def test_fleet_exhaustive_boundary_sweep(fleet_explorer, fleet_schedule):
    """Every fleet boundary of the probed action, exhaustively."""
    outcomes = fleet_explorer.sweep(list(range(len(fleet_schedule))),
                                    fleet_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
