"""Crash-schedule exploration: a crash at *any* instant restores the
last durable checkpoint (§5, §7).

Each of the thirteen workloads of ``tests/crashsched.py`` is probed once
per module.  The smoke tests (tier-1) cover every pipeline stage
boundary plus fixed-seed samples of the IO, replication and fleet
boundaries; the exhaustive sweeps over every entry run under
``-m slow`` (CI's crash-schedule job).  The remaining tests exercise
the other fault kinds: torn superblock writes, injected ENOSPC, silent
bit flips.
"""

import random

import pytest

from repro import Machine, load_aurora
from repro.core.cluster import B_EPOCH, B_LEASE, B_RECONCILE
from repro.core.faults import (AFTER, BEFORE, FLEET, IO, NOSPACE, PRIMARY,
                               REPL, STAGE, FaultPlan, InjectedCrash)
from repro.core.pipeline import STAGE_ORDER
from repro.errors import CorruptRecord, NoSpace
from repro.objstore.oid import CLASS_MEMORY, make_oid
from repro.objstore.store import SUPERBLOCK_SLOTS, ObjectStore
from repro.units import PAGE_SIZE

from tests.crashsched import (NODES, V1, V2, WORKLOADS, WRITE_QUORUM,
                              Explorer, read_head, superblock_flips,
                              superseded)

SMOKE_SEED = 0xA0DA
SMOKE_IO_SAMPLES = 3


@pytest.fixture(scope="module")
def explorer():
    return Explorer(WORKLOADS["counter"])


@pytest.fixture(scope="module")
def schedule(explorer):
    """Probed (and determinism-checked) schedule, shared per module."""
    return explorer.probe()


def test_probe_covers_every_stage_boundary(schedule):
    """The schedule space includes all N+1 boundaries of the §4.1
    pipeline, in order."""
    expected = [(stage, BEFORE) for stage in STAGE_ORDER]
    expected.append((STAGE_ORDER[-1], AFTER))
    assert schedule.entries(STAGE) == expected


def test_probe_finds_commit_point(schedule):
    """The superblock flip is inside the IO schedule, not at its very
    start (data and records precede it)."""
    assert 0 < schedule.flip < len(schedule.entries(IO))


def test_crash_at_every_stage_boundary_restores_durable_state(
        explorer, schedule):
    """Tier-1 slice of the sweep: all stage boundaries."""
    outcomes = explorer.sweep(schedule.points(STAGE), schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    # Boundaries before the flush see V1; the final boundary sees V2.
    assert outcomes[0].restored == V1
    assert outcomes[-1].restored == V2


def test_crash_at_sampled_io_indices_restores_durable_state(
        explorer, schedule):
    """Tier-1 slice: a fixed-seed sample of IO indices, always
    including the commit point itself and its immediate successor."""
    io_count = len(schedule.entries(IO))
    rng = random.Random(SMOKE_SEED)
    indices = {schedule.flip, schedule.flip + 1}
    indices.update(rng.sample(range(io_count), SMOKE_IO_SAMPLES))
    outcomes = explorer.sweep([(IO, index) for index in sorted(indices)
                               if index < io_count], schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]


@pytest.mark.slow
def test_exhaustive_crash_schedule_sweep(explorer, schedule):
    """Every stage boundary AND every IO index of one full
    checkpoint/commit — the complete schedule, with exhaustiveness
    asserted — restores to the last durable checkpoint."""
    points = schedule.points(STAGE) + schedule.points(IO)
    # Exhaustiveness: all N+1 stage boundaries...
    assert [i for d, i in points if d == STAGE] == \
        list(range(len(STAGE_ORDER) + 1))
    assert set(schedule.entries(STAGE)) == \
        set([(s, BEFORE) for s in STAGE_ORDER] + [(STAGE_ORDER[-1], AFTER)])
    # ...and every IO index of the commit, gap-free.
    io_count = len(schedule.entries(IO))
    assert [i for d, i in points if d == IO] == list(range(io_count))
    assert io_count > 0

    outcomes = explorer.sweep(points, schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    # Both durable states were actually exercised by the sweep.
    assert {outcome.restored for outcome in outcomes} == {V1, V2}


@pytest.fixture(scope="module")
def incr_explorer():
    """Explorer whose durable and probed checkpoints are incremental."""
    return Explorer(WORKLOADS["incremental"])


@pytest.fixture(scope="module")
def incr_schedule(incr_explorer):
    return incr_explorer.probe()


def test_incremental_crash_at_every_stage_boundary_restores_durable(
        incr_explorer, incr_schedule):
    """Crashing between two *incremental* checkpoints (at every stage
    boundary of the probed one) restores exactly the last durable
    incremental checkpoint — whose records partly live in the parent
    full delta and resolve through the chain."""
    outcomes = incr_explorer.sweep(incr_schedule.points(STAGE),
                                   incr_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert outcomes[0].restored == V1
    assert outcomes[-1].restored == V2


def test_incremental_crash_around_commit_point_restores_durable(
        incr_explorer, incr_schedule):
    """The incremental delta's commit point behaves like the full
    one's: the superblock flip alone makes V2 durable."""
    indices = [incr_schedule.flip, incr_schedule.flip + 1]
    outcomes = incr_explorer.sweep(
        [(IO, i) for i in indices if i < len(incr_schedule.entries(IO))],
        incr_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]


@pytest.fixture(scope="module")
def gc_explorer():
    """Explorer whose probed checkpoint deletes its parent."""
    return Explorer(WORKLOADS["gc"])


@pytest.fixture(scope="module")
def gc_schedule(gc_explorer):
    return gc_explorer.probe()


@pytest.fixture(scope="module")
def gc2_explorer():
    """Explorer whose probed checkpoint deletes its grandparent: the
    child that adopts is the parent, not the checkpoint committed."""
    return Explorer(WORKLOADS["gc2"])


@pytest.fixture(scope="module")
def gc2_schedule(gc2_explorer):
    return gc2_explorer.probe()


@pytest.fixture(scope="module")
def gc3_explorer():
    """Explorer whose probed checkpoint deletes three ancestors in one
    flip: two adopters are victims of the same flip."""
    return Explorer(WORKLOADS["gc3"])


@pytest.fixture(scope="module")
def gc3_schedule(gc3_explorer):
    return gc3_explorer.probe()


#: The last IOs of a trimming commit: the surviving adopter's metadata
#: (the commit's own in ``gc`` and ``gc3``), the catalog and the
#: superblock.
TRIM_TAIL = 3


def test_a_trimming_commit_flips_once(gc_schedule, gc2_schedule,
                                      gc3_schedule):
    """A history-limited checkpoint's commit is one transaction: the
    surviving adopter's metadata is written before the one flip, which
    is the schedule's last IO."""
    for schedule in (gc_schedule, gc2_schedule, gc3_schedule):
        flips = superblock_flips(schedule.entries(IO))
        assert flips == [schedule.flip] == [len(schedule.entries(IO)) - 1]


def _sweep_trim_tail(explorer, schedule):
    """Every IO from the adopter's metadata write through the flip,
    plus the stage boundaries after it.  Nothing the durable superblock
    reaches may be gone before the flip that unreferences it lands."""
    points = schedule.points(IO)[-TRIM_TAIL:]
    points += schedule.points(STAGE)[-2:]
    outcomes = explorer.sweep(points, schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert [outcome.restored for outcome in outcomes] == \
        [V1] * TRIM_TAIL + [V2] * 2


def test_crash_during_gc_restores_the_committed_checkpoint(
        gc_explorer, gc_schedule):
    """Tier-1 slice of ``gc``: the committed checkpoint adopts."""
    _sweep_trim_tail(gc_explorer, gc_schedule)


def test_crash_during_a_grandparent_trim_restores_the_committed_checkpoint(
        gc2_explorer, gc2_schedule):
    """Tier-1 slice of ``gc2``: an older checkpoint adopts."""
    _sweep_trim_tail(gc2_explorer, gc2_schedule)


def test_crash_during_a_three_victim_trim_restores_the_committed_checkpoint(
        gc3_explorer, gc3_schedule):
    """Tier-1 slice of ``gc3``: three victims, one adopter written."""
    run = gc3_explorer.workload.boot()
    assert len(run.sls.store.checkpoints_for(run.gid)) == 3
    gc3_explorer.workload.action(run)
    assert len(run.sls.store.checkpoints_for(run.gid)) == 1
    _sweep_trim_tail(gc3_explorer, gc3_schedule)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["gc", "gc2", "gc3"])
def test_exhaustive_gc_crash_schedule_sweep(name, request):
    """Every stage boundary and every IO index of a checkpoint whose
    commit garbage-collects its parent (``gc``), its grandparent
    (``gc2``) or its three ancestors (``gc3``)."""
    explorer = request.getfixturevalue(f"{name}_explorer")
    schedule = request.getfixturevalue(f"{name}_schedule")
    points = schedule.points(STAGE) + schedule.points(IO)
    assert [i for d, i in points if d == IO] == \
        list(range(len(schedule.entries(IO))))
    outcomes = explorer.sweep(points, schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert {outcome.restored for outcome in outcomes} == {V1, V2}


@pytest.fixture(scope="module")
def remount_explorer():
    """Explorer whose probed checkpoint is the first after a mount."""
    return Explorer(WORKLOADS["remount"])


@pytest.fixture(scope="module")
def remount_schedule(remount_explorer):
    return remount_explorer.probe()


def test_a_commit_after_a_mount_reuses_the_superseded_metadata(
        remount_explorer, remount_schedule):
    """The mount freed the catalog and flight record the older
    superblock slot names, and the first commit after it writes over
    them before its flip overwrites that slot.  A crash at every IO of
    that commit, and after it, recovers the last durable checkpoint,
    and the judge's checkpoint and scrub find nothing unowned."""
    spans = superseded(remount_explorer.workload.boot())
    entries = remount_schedule.entries(IO)
    landed = [index for index, (offset, _name) in enumerate(entries)
              if any(start <= offset < start + length
                     for start, length in spans)]
    assert landed and landed[0] < remount_schedule.flip
    assert entries[remount_schedule.flip][0] == SUPERBLOCK_SLOTS[1]
    points = remount_schedule.points(IO) + remount_schedule.points(STAGE)[-1:]
    outcomes = remount_explorer.sweep(points, remount_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert [outcome.restored for outcome in outcomes] == \
        [V1] * len(entries) + [V2]


@pytest.mark.slow
def test_exhaustive_remount_crash_schedule_sweep(remount_explorer,
                                                 remount_schedule):
    """Every stage boundary and every IO index of the first checkpoint
    after a mount."""
    points = remount_schedule.points(STAGE) + remount_schedule.points(IO)
    outcomes = remount_explorer.sweep(points, remount_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert {outcome.restored for outcome in outcomes} == {V1, V2}


def test_torn_superblock_write_falls_back_to_previous_checkpoint(
        explorer, schedule):
    """Tearing the commit's superblock flip (half the record lands,
    then power fails) must leave the previous generation live."""
    workload = explorer.workload
    run = workload.boot()
    plan = FaultPlan(name="torn-flip").torn_at_io(schedule.flip)
    run.machine.set_fault_plan(plan)
    with pytest.raises(InjectedCrash):
        workload.action(run)
    run.machine.crash()
    run.machine.boot()
    sls = load_aurora(run.machine)
    result = sls.restore(run.gid, periodic=False)
    assert read_head(result.root, run.addr) == V1


def test_injected_nospace_fails_checkpoint_not_history(explorer, schedule):
    """ENOSPC mid-flush fails the checkpoint cleanly; after a crash
    the prior checkpoint still restores."""
    workload = explorer.workload
    run = workload.boot()
    plan = FaultPlan(name="enospc").nospace_at_io(1)
    run.machine.set_fault_plan(plan)
    with pytest.raises(NoSpace):
        workload.action(run)
    assert plan.events[0].kind == NOSPACE
    run.machine.crash()
    run.machine.boot()
    sls = load_aurora(run.machine)
    result = sls.restore(run.gid, periodic=False)
    assert read_head(result.root, run.addr) == V1


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
        first = FaultPlan.random(seed, len(schedule.entries(IO)),
                                 len(schedule.entries(STAGE)))
        second = FaultPlan.random(seed, len(schedule.entries(IO)),
                                  len(schedule.entries(STAGE)))
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
        plan = FaultPlan.random(seed, len(schedule.entries(IO)),
                                len(schedule.entries(STAGE)))
        run.machine.set_fault_plan(plan)
        try:
            workload.action(run)
        except (InjectedCrash, NoSpace):
            pass
        run.machine.crash()
        run.machine.boot()
        sls = load_aurora(run.machine)
        try:
            result = sls.restore(run.gid, periodic=False)
        except CorruptRecord:
            continue  # loud failure is acceptable for silent bit flips
        state = read_head(result.root, run.addr)
        assert state in (V1, V2), \
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
        FaultPlan(name="mid").crash_at(STAGE,
                                       STAGE_ORDER.index("serialize")))
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
        FaultPlan(name="seal").crash_at(STAGE, STAGE_ORDER.index("seal")))
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
    return Explorer(WORKLOADS["cluster"])


@pytest.fixture(scope="module")
def cluster_schedule(cluster_explorer):
    """Probed (determinism-checked) boundary schedule."""
    return cluster_explorer.probe()


def _sampled_indices(schedule, extra_samples=4):
    """Fixed-seed sample always covering the decisive boundaries:
    the first, the last pre-flip, the flip itself, its successor, the
    first repair boundary and the final one."""
    log = schedule.entries(REPL)
    first_repair = next(i for i, (_, b) in enumerate(log) if b == "repair")
    indices = {0, schedule.flip - 1, schedule.flip, schedule.flip + 1,
               first_repair, len(log) - 1}
    rng = random.Random(SMOKE_SEED)
    indices.update(rng.sample(range(len(log)), extra_samples))
    return sorted(index for index in indices if 0 <= index < len(log))


def _repl(indices):
    return [(REPL, index) for index in indices]


def test_cluster_probe_covers_the_whole_protocol(cluster_schedule):
    """The schedule crosses ship/deliver/apply/ack for every reachable
    node and repair for every rebuilt segment — and the durability
    flip sits at the write-quorum-th apply, strictly inside."""
    log = cluster_schedule.entries(REPL)
    assert {b for _, b in log} == {"ship", "deliver", "apply", "ack",
                                   "repair"}
    assert {n for n, b in log if b == "ack"} == set(range(NODES - 1))
    applies = [i for i, (_, b) in enumerate(log) if b == "apply"]
    assert cluster_schedule.flip == applies[WRITE_QUORUM - 1]
    assert 0 < cluster_schedule.flip < len(log) - 1


def test_cluster_primary_crash_at_sampled_boundaries(cluster_explorer,
                                                     cluster_schedule):
    """Tier-1 slice: the primary power-fails at the decisive
    boundaries (plus a fixed-seed sample); recovery from replica media
    yields exactly the last quorum-acked checkpoint — V2 at and after
    the write-quorum apply, V1 before it, never a mixture."""
    outcomes = cluster_explorer.sweep(
        _repl(_sampled_indices(cluster_schedule)), cluster_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert {outcome.restored for outcome in outcomes} == {V1, V2}


def test_cluster_node_crash_at_sampled_boundaries(cluster_explorer,
                                                  cluster_schedule):
    """Tier-1 slice: the node *named by the boundary* power-fails
    there instead.  The pump and repair absorb the loss, the write
    quorum still forms, and recovery yields V2 every time."""
    indices = _sampled_indices(cluster_schedule, extra_samples=2)[:5]
    outcomes = cluster_explorer.sweep(_repl(indices), cluster_schedule,
                                      node=True)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert all(outcome.restored == V2 for outcome in outcomes)


def _check_stage_sweep(explorer, schedule):
    """The primary power-fails at each stage boundary of the V2
    checkpoint, before any leg ships it: recovery yields V1."""
    outcomes = explorer.sweep(schedule.points(STAGE), schedule)
    assert len(outcomes) == len(STAGE_ORDER) + 1
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert {outcome.restored for outcome in outcomes} == {V1}


def test_cluster_primary_crash_at_every_stage_boundary(cluster_explorer,
                                                       cluster_schedule):
    """Tier-1: every stage boundary of the replicated checkpoint — even
    the one after its local commit — restores V1 from replica media."""
    _check_stage_sweep(cluster_explorer, cluster_schedule)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["cluster", "skewed", "fenced"])
def test_cluster_stage_crash_sweep(name):
    """Every stage boundary of each cluster workload's V2 checkpoint."""
    explorer = Explorer(WORKLOADS[name])
    _check_stage_sweep(explorer, explorer.probe())


@pytest.mark.slow
def test_cluster_exhaustive_primary_crash_sweep(cluster_explorer,
                                                cluster_schedule):
    """Every replication/quorum boundary, gap-free: a primary crash at
    each one recovers exactly the last quorum-acked checkpoint.  A
    quorum-acked V2 is always recovered; a non-acked V2 is never even
    partially visible."""
    points = cluster_schedule.points(REPL)
    outcomes = cluster_explorer.sweep(points, cluster_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    # Both durable states were actually exercised, and they flip
    # exactly once, at the write-quorum apply.
    assert [outcome.restored == V2 for outcome in outcomes] == \
        [index >= cluster_schedule.flip for _, index in points]


@pytest.mark.slow
def test_cluster_exhaustive_node_crash_sweep(cluster_explorer,
                                             cluster_schedule):
    """Any single node crashing at any boundary never loses the
    quorum: the action completes and recovery yields V2 everywhere."""
    outcomes = cluster_explorer.sweep(cluster_schedule.points(REPL),
                                      cluster_schedule, node=True)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert all(outcome.restored == V2 for outcome in outcomes)


# -- legs landing out of dispatch order ---------------------------------------------


@pytest.fixture(scope="module")
def skewed_explorer():
    return Explorer(WORKLOADS["skewed"])


@pytest.fixture(scope="module")
def skewed_schedule(skewed_explorer):
    return skewed_explorer.probe()


def _check_quorum_sweep(explorer, schedule, indices, mode):
    """Every outcome matches the oracle, and a primary crash restores
    V2 exactly at and after the write-quorum apply."""
    outcomes = explorer.sweep(_repl(indices), schedule,
                              node=mode == "node")
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    restored = [outcome.restored == V2 for outcome in outcomes]
    if mode == "primary":
        assert restored == [index >= schedule.flip for index in indices]
    else:
        assert all(restored)


def test_skewed_legs_flip_at_a_late_replicas_apply(skewed_schedule):
    """All five legs are dispatched at once, but the slow first two
    land last: the durability flip is node 0's apply, the fourth in
    the log, not node 3's."""
    log = skewed_schedule.entries(REPL)
    assert [node for node, b in log if b == "ship"] == \
        list(range(NODES - 1))
    assert [node for node, b in log if b == "apply"] == [2, 3, 4, 0, 1]
    assert log[skewed_schedule.flip] == (0, "apply")


@pytest.mark.parametrize("mode", ["primary", "node"])
def test_skewed_cluster_crash_at_sampled_boundaries(skewed_explorer,
                                                    skewed_schedule, mode):
    """Tier-1 slice of the out-of-order sweep, both crash modes."""
    _check_quorum_sweep(skewed_explorer, skewed_schedule,
                        _sampled_indices(skewed_schedule, extra_samples=2),
                        mode)


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["primary", "node"])
def test_skewed_cluster_exhaustive_crash_sweep(skewed_explorer,
                                               skewed_schedule, mode):
    _check_quorum_sweep(skewed_explorer, skewed_schedule,
                        list(range(len(skewed_schedule.entries(REPL)))),
                        mode)


# -- a replica trims in its own apply ------------------------------------------------


@pytest.fixture(scope="module")
def trim_explorer():
    return Explorer(WORKLOADS["cluster_trim"])


@pytest.fixture(scope="module")
def trim_schedule(trim_explorer):
    return trim_explorer.probe()


def test_a_replica_trims_in_the_flip_that_applies(trim_explorer):
    """Under history limit 1 each reachable replica's ``V2`` apply is
    one flip that also trims ``V0`` (``V1``, the watermark it applied
    under, stays); the rejoined node keeps only what repair brought."""
    run = WORKLOADS["cluster_trim"].boot()
    nodes = run.cluster.nodes
    v0, v1 = sorted(nodes[0].applied)
    flips = [node.sls.store.generation for node in nodes]
    WORKLOADS["cluster_trim"].action(run)
    v2 = run.cluster.durable
    assert v2 > v1
    assert [sorted(node.applied) for node in nodes] == \
        [[v1, v2]] * (NODES - 1) + [[v2]]
    assert [node.sls.store.generation - flip
            for node, flip in zip(nodes, flips)][:NODES - 1] == \
        [1] * (NODES - 1)
    assert all(len(node.shards) == len(node.applied) for node in nodes)


@pytest.mark.parametrize("mode", ["primary", "node"])
def test_cluster_trim_crash_at_sampled_boundaries(trim_explorer,
                                                  trim_schedule, mode):
    """Tier-1 slice: a crash at the decisive boundaries of a
    replication whose applies trim recovers exactly the last
    quorum-acked version."""
    _check_quorum_sweep(trim_explorer, trim_schedule,
                        _sampled_indices(trim_schedule, extra_samples=2),
                        mode)


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["primary", "node"])
def test_cluster_trim_exhaustive_crash_sweep(trim_explorer, trim_schedule,
                                             mode):
    _check_quorum_sweep(trim_explorer, trim_schedule,
                        list(range(len(trim_schedule.entries(REPL)))),
                        mode)


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


@pytest.fixture(scope="module")
def fenced_explorer():
    return Explorer(WORKLOADS["fenced"])


@pytest.fixture(scope="module")
def fenced_schedule(fenced_explorer):
    """Probed (determinism-checked) fenced-failover schedule."""
    return fenced_explorer.probe()


def test_fenced_probe_covers_the_failover_protocol(fenced_schedule):
    """The schedule crosses the lease expiry once, an epoch promise
    on every voter, a reconcile on every node — in protocol order —
    and the fenced V2 never reaches a write-quorum apply."""
    log = fenced_schedule.entries(REPL)
    nodes = list(range(NODES))
    assert [n for n, b in log if b == B_EPOCH] == nodes
    assert [n for n, b in log if b == B_RECONCILE] == nodes
    assert [n for n, b in log if b == B_LEASE] == [PRIMARY]
    kinds = [b for _, b in log]
    assert kinds.index(B_LEASE) < kinds.index(B_EPOCH) \
        < kinds.index(B_RECONCILE)
    assert fenced_schedule.flip is None


def test_fenced_failover_crash_at_fencing_boundaries(fenced_explorer,
                                                     fenced_schedule):
    """Tier-1 slice: the lease boundary plus the first and last epoch
    and reconcile boundaries.  A primary crash at any of them
    recovers exactly V1 — the partitioned V2 is never readable, no
    matter how far the epoch bump or the reconciliation got."""
    by_kind = {}
    for index, (_, boundary) in enumerate(fenced_schedule.entries(REPL)):
        if boundary in (B_EPOCH, B_LEASE, B_RECONCILE):
            by_kind.setdefault(boundary, []).append(index)
    indices = sorted({ixs[0] for ixs in by_kind.values()}
                     | {ixs[-1] for ixs in by_kind.values()})
    outcomes = fenced_explorer.sweep(_repl(indices), fenced_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert all(outcome.restored == V1 for outcome in outcomes)


@pytest.mark.slow
def test_fenced_failover_exhaustive_crash_sweep(fenced_explorer,
                                                fenced_schedule):
    """Every boundary of the partitioned failover, gap-free — the
    stalled ships, the lease expiry, every epoch promise, every
    reconcile — restores V1 and only V1."""
    outcomes = fenced_explorer.sweep(fenced_schedule.points(REPL),
                                     fenced_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert {outcome.restored for outcome in outcomes} == {V1}


# -- fleet-scheduler boundaries ----------------------------------------------


@pytest.fixture(scope="module")
def fleet_explorer():
    return Explorer(WORKLOADS["fleet"])


@pytest.fixture(scope="module")
def fleet_schedule(fleet_explorer):
    """Probed (determinism-checked) fleet boundary schedule."""
    return fleet_explorer.probe()


def _check_fleet_sweep(outcomes):
    """Every tenant restores its newest durable checkpoint, and later
    crashes never restore an older one than earlier crashes."""
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert outcomes, "sweep produced no restorable tenants"
    restored = {}
    for outcome in outcomes:
        restored.setdefault(outcome.tenant, []).append(outcome.restored)
    for tenant, ckpts in restored.items():
        assert ckpts == sorted(ckpts), (tenant, ckpts)


def test_fleet_probe_crosses_every_boundary_kind(fleet_schedule):
    """The probed action admits, dispatches and widens — nothing else
    — and the admit of the late tenant precedes its dispatches."""
    log = fleet_schedule.entries(FLEET)
    kinds = [boundary for _, boundary in log]
    assert set(kinds) == {"admit", "dispatch", "widen"}
    late_gid = next(gid for gid, boundary in log if boundary == "admit")
    first_late_dispatch = next(
        (index for index, (gid, boundary) in enumerate(log)
         if boundary == "dispatch" and gid == late_gid), len(log))
    assert kinds.index("admit") < first_late_dispatch


def test_crash_at_each_fleet_control_boundary_restores_durable_state(
        fleet_explorer, fleet_schedule):
    """Tier-1 slice: the admit and every widen boundary, plus the
    first and last dispatch — each tenant restores exactly its newest
    durable checkpoint, never a torn or lost one."""
    log = fleet_schedule.entries(FLEET)
    dispatches = [i for i, (_, b) in enumerate(log) if b == "dispatch"]
    indices = sorted({i for i, (_, b) in enumerate(log)
                      if b in ("admit", "widen")}
                     | {dispatches[0], dispatches[-1]})
    _check_fleet_sweep(fleet_explorer.sweep(
        [(FLEET, index) for index in indices], fleet_schedule))


@pytest.mark.slow
def test_fleet_exhaustive_boundary_sweep(fleet_explorer, fleet_schedule):
    """Every fleet boundary of the probed action, exhaustively."""
    _check_fleet_sweep(fleet_explorer.sweep(fleet_schedule.points(FLEET),
                                            fleet_schedule))


# -- memory pressure: pageout, a mem checkpoint and a fork ----------------------


@pytest.fixture(scope="module")
def pressure_explorer():
    """Explorer whose action evicts dirty pages, takes a mem checkpoint
    and forks between the two disk checkpoints."""
    return Explorer(WORKLOADS["pressure"])


@pytest.fixture(scope="module")
def pressure_schedule(pressure_explorer):
    return pressure_explorer.probe()


def test_pressure_crash_at_every_stage_boundary_and_around_the_flip(
        pressure_explorer, pressure_schedule):
    """Tier-1 slice: every stage boundary (the mem checkpoint's and the
    disk one's), the pageout pass's batch write and the commit flip.
    Every page a dirty eviction, the mem checkpoint or the fork left
    dirty is in the ``V2`` checkpoint."""
    stages = pressure_schedule.points(STAGE)
    points = stages + [(IO, index)
                       for index in (0, 1, pressure_schedule.flip)]
    outcomes = pressure_explorer.sweep(points, pressure_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert [outcome.restored for outcome in outcomes] == \
        [V1] * (len(stages) - 2) + [V2] * 2 + [V1] * 3


@pytest.mark.slow
def test_exhaustive_pressure_crash_schedule_sweep(pressure_explorer,
                                                  pressure_schedule):
    """Every stage boundary and every IO index of the pressure action."""
    points = pressure_schedule.points(STAGE) + pressure_schedule.points(IO)
    outcomes = pressure_explorer.sweep(points, pressure_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert {outcome.restored for outcome in outcomes} == {V1, V2}


# -- an atomic region checkpoint: an async and a sync sls_memckpt -------------


@pytest.fixture(scope="module")
def atomic_explorer():
    return Explorer(WORKLOADS["atomic"])


@pytest.fixture(scope="module")
def atomic_schedule(atomic_explorer):
    return atomic_explorer.probe()


def test_atomic_crash_at_every_stage_boundary_and_sampled_io(
        atomic_explorer, atomic_schedule):
    """Tier-1 slice: both atomic checkpoints cross all N+1 stage
    boundaries of the pipeline; a crash at each of them, and at a
    fixed-seed sample of IO indices with the flip and its successor,
    restores the last durable version — ``V1`` until the async
    checkpoint's flip lands, ``V2`` after it."""
    per_ckpt = [(stage, BEFORE) for stage in STAGE_ORDER]
    per_ckpt.append((STAGE_ORDER[-1], AFTER))
    assert atomic_schedule.entries(STAGE) == per_ckpt * 2
    stages = atomic_schedule.points(STAGE)
    rng = random.Random(SMOKE_SEED)
    io_count = len(atomic_schedule.entries(IO))
    indices = {atomic_schedule.flip, atomic_schedule.flip + 1}
    indices.update(rng.sample(range(io_count), SMOKE_IO_SAMPLES))
    outcomes = atomic_explorer.sweep(
        stages + [(IO, index) for index in sorted(indices)], atomic_schedule)
    assert all(outcome.ok for outcome in outcomes), \
        [outcome for outcome in outcomes if not outcome.ok]
    assert [outcome.restored for outcome in outcomes[:len(stages)]] == \
        [V1] * len(per_ckpt) + [V2] * len(per_ckpt)


@pytest.mark.slow
def test_atomic_exhaustive_crash_sweep(atomic_explorer, atomic_schedule):
    """Every stage boundary and every IO index of both atomic
    checkpoints."""
    points = atomic_schedule.points(STAGE) + atomic_schedule.points(IO)
    outcomes = atomic_explorer.sweep(points, atomic_schedule)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    assert not failures, failures
    assert {outcome.restored for outcome in outcomes} == {V1, V2}


# -- the schedule space itself -------------------------------------------------


#: Entries per domain (io, stage, repl, fleet) of each workload's
#: probed schedule, and its flip.  A flush queues its writes as one
#: batch, but the plan still sees every command on its own, so the
#: schedule space is the one a write per call gave.
PROBED = {
    "counter": ((6, 9, 0, 0), 5),
    "incremental": ((6, 9, 0, 0), 5),
    "gc": ((6, 9, 0, 0), 5),
    "gc2": ((7, 9, 0, 0), 6),
    "gc3": ((6, 9, 0, 0), 5),
    "remount": ((6, 9, 0, 0), 5),
    "cluster": ((6, 9, 177, 0), 12),
    "skewed": ((6, 9, 177, 0), 15),
    "cluster_trim": ((6, 9, 177, 0), 12),
    "fenced": ((8, 9, 73, 0), None),
    "pressure": ((64, 18, 0, 0), 63),
    "fleet": ((47, 90, 0, 17), None),
    "atomic": ((12, 18, 0, 0), 5),
}


def test_every_probed_schedule_keeps_its_size(
        schedule, incr_schedule, gc_schedule, gc2_schedule, gc3_schedule,
        remount_schedule, cluster_schedule, skewed_schedule, trim_schedule,
        fenced_schedule, pressure_schedule, fleet_schedule, atomic_schedule):
    probed = dict(zip(PROBED, (
        schedule, incr_schedule, gc_schedule, gc2_schedule, gc3_schedule,
        remount_schedule, cluster_schedule, skewed_schedule, trim_schedule,
        fenced_schedule, pressure_schedule, fleet_schedule,
        atomic_schedule)))
    assert {name: (tuple(len(probe.entries(domain))
                         for domain in (IO, STAGE, REPL, FLEET)), probe.flip)
            for name, probe in probed.items()} == PROBED
