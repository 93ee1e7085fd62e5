"""The crash-schedule explorer harness.

The property under test is the paper's core promise (§5, §7): a crash
at *any* instant of a checkpoint leaves the application restorable to
its last durable checkpoint.  "Any instant" is made enumerable by the
:class:`~repro.core.faults.FaultPlan` layer: every device write has an
IO index and the checkpoint pipeline reports every stage boundary, so
the schedule space of one checkpoint is a finite, deterministic list
of crash points.

The explorer runs a fixed workload to a known durable state ``V1``,
dirties it to ``V2``, then takes the probed checkpoint:

* :meth:`CrashScheduleExplorer.probe` runs it twice under an observing
  plan and asserts the IO trace and stage boundaries are identical —
  the determinism every crash point depends on.  The probe also finds
  the *commit point*: the IO index of the superblock flip that makes
  ``V2`` durable.
* :meth:`CrashScheduleExplorer.run_point` reruns the workload from
  scratch, crashes at one schedule point, reboots, remounts and
  restores — asserting the restored bytes are exactly ``V2`` when the
  crash came after the commit point and exactly ``V1`` otherwise.
* :meth:`CrashScheduleExplorer.all_points` enumerates the complete
  schedule: every stage boundary plus every IO index.

Used by ``tests/test_crashsched.py`` (smoke subset in tier-1, the
exhaustive sweep under ``-m slow``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import Machine, load_aurora
from repro.core.cluster import B_EPOCH, B_LEASE, B_RECONCILE, SLSCluster
from repro.core.faults import (AFTER, BEFORE, PRIMARY, FaultPlan,
                               InjectedCrash)
from repro.core.shipping import B_APPLY
from repro.objstore.store import SUPERBLOCK_SLOTS
from repro.units import PAGE_SIZE, USEC


class WorkloadRun:
    """One booted machine advanced to the pre-checkpoint state."""

    def __init__(self, machine, sls, group, proc, addr):
        self.machine = machine
        self.sls = sls
        self.group = group
        self.gid = group.group_id
        self.proc = proc
        self.addr = addr


class CounterAppWorkload:
    """Deterministic single-process app with two distinguishable states.

    ``V1`` is made durable by a sync checkpoint; the heap is then
    dirtied to ``V2`` and the *probed* checkpoint (the one the
    explorer crashes) tries to commit ``V2``.
    """

    V1 = b"aurora-crashsched-v1"
    V2 = b"aurora-crashsched-v2"
    NPAGES = 24
    #: Checkpoints the group retains (None: all of them).
    HISTORY_LIMIT = None

    def boot(self) -> WorkloadRun:
        machine = Machine()
        sls = load_aurora(machine)
        proc = machine.kernel.spawn("app")
        addr = proc.vmspace.mmap(self.NPAGES * PAGE_SIZE, name="heap")
        self._fill(proc, addr, self.V1)
        group = sls.attach(proc, periodic=False,
                           history_limit=self.HISTORY_LIMIT)
        sls.checkpoint(group, name="v1", sync=True)
        self._fill(proc, addr, self.V2)
        return WorkloadRun(machine, sls, group, proc, addr)

    def _fill(self, proc, addr: int, tag: bytes) -> None:
        """Dirty enough real pages that the flush packs more than one
        stripe-unit data extent (the IO schedule spans devices)."""
        proc.vmspace.write(addr, tag)
        for index in range(2, 20):
            proc.vmspace.write(addr + index * PAGE_SIZE,
                               tag + b":%d" % index)

    def checkpoint(self, run: WorkloadRun) -> None:
        run.sls.checkpoint(run.group, name="v2", sync=True)

    def read_state(self, proc, addr: int) -> bytes:
        return proc.vmspace.read(addr, len(self.V1))


class IncrementalCounterWorkload(CounterAppWorkload):
    """Crash scheduling across *incremental* kernel-state checkpoints.

    A base full checkpoint sets the group's epoch floor first, so the
    ``V1`` checkpoint and the probed ``V2`` checkpoint are both
    incremental deltas: most kernel-state records are skipped as
    clean and resolve through the parent chain at restore.  Crashing
    anywhere between (and inside) the two incremental checkpoints
    must restore exactly the last durable one — the delta commit
    path's version of the §5/§7 promise.
    """

    def boot(self) -> WorkloadRun:
        machine = Machine()
        sls = load_aurora(machine)
        kernel = machine.kernel
        proc = kernel.spawn("app")
        # Extra kernel state that stays clean across the probed
        # checkpoint, so the incremental walk has records to skip.
        kernel.pipe(proc)
        kernel.pipe(proc)
        addr = proc.vmspace.mmap(self.NPAGES * PAGE_SIZE, name="heap")
        self._fill(proc, addr, b"aurora-crashsched-v0")
        group = sls.attach(proc, periodic=False)
        sls.checkpoint(group, name="base", sync=True)
        self._fill(proc, addr, self.V1)
        result = sls.checkpoint(group, name="v1", sync=True)
        assert result.records_skipped > 0, \
            "v1 checkpoint was not incremental"
        self._fill(proc, addr, self.V2)
        return WorkloadRun(machine, sls, group, proc, addr)


class GCCounterWorkload(CounterAppWorkload):
    """Crash scheduling across a checkpoint that garbage-collects.

    With one retained checkpoint (``history_limit=1``) the probed
    ``V2`` checkpoint's completion callback deletes its parent ``V1``
    — a second metadata write, catalog write and superblock flip after
    the commit flip.  The
    delete unreferences ``V1``'s extents and metadata, the child's
    previous metadata and (through the commit flip before it) the
    previous catalog; a crash at any of its IOs must still mount and
    restore ``V2``, the last *committed* checkpoint.
    """

    HISTORY_LIMIT = 1


class CrashPoint:
    """One enumerable crash instant of the probed checkpoint."""

    def arm(self, plan: FaultPlan) -> None:
        raise NotImplementedError

    #: True when V2 must be durable after a crash here (filled in by
    #: the oracle from the fired event's IO position).
    def __repr__(self) -> str:
        return f"<{self}>"


class IOCrash(CrashPoint):
    """Power fails the instant IO ``index`` would be issued."""

    def __init__(self, index: int):
        self.index = index

    def arm(self, plan: FaultPlan) -> None:
        plan.crash_at_io(self.index)

    def __str__(self) -> str:
        return f"io:{self.index}"


class StageCrash(CrashPoint):
    """Power fails at a pipeline stage boundary."""

    def __init__(self, stage: str, edge: str = BEFORE):
        self.stage = stage
        self.edge = edge

    def arm(self, plan: FaultPlan) -> None:
        plan.crash_at_stage(self.stage, self.edge)

    def __str__(self) -> str:
        return f"stage:{self.edge}-{self.stage}"


class Schedule:
    """The probed checkpoint's complete, deterministic schedule."""

    def __init__(self, io_log: List[int],
                 boundaries: List[Tuple[str, str]]):
        self.io_log = io_log
        self.io_count = len(io_log)
        self.boundaries = boundaries
        #: IO index of the superblock flip that makes V2 durable: the
        #: first write to a superblock slot during the probed
        #: checkpoint.  A crash strictly after it restores V2.
        flips = [i for i, off in enumerate(io_log)
                 if off in SUPERBLOCK_SLOTS]
        self.flip_index = flips[0] if flips else None
        #: IO index of the flip that follows the commit flip when the
        #: probed checkpoint garbage-collects (None otherwise).
        self.gc_flip_index = flips[1] if len(flips) > 1 else None

    def __repr__(self) -> str:
        return (f"Schedule({self.io_count} IOs, "
                f"{len(self.boundaries)} boundaries, "
                f"flip@{self.flip_index})")


class Outcome:
    """What one crash-schedule run observed."""

    def __init__(self, point: CrashPoint, fired: bool, submitted: int,
                 restored: bytes, expected: bytes):
        self.point = point
        self.fired = fired
        #: IOs fully submitted when the crash fired.
        self.submitted = submitted
        self.restored = restored
        self.expected = expected

    @property
    def ok(self) -> bool:
        return self.fired and self.restored == self.expected

    def __repr__(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return f"Outcome({self.point}, {status})"


class CrashScheduleExplorer:
    """Enumerates and executes every crash point of one checkpoint."""

    def __init__(self, workload: Optional[CounterAppWorkload] = None):
        self.workload = workload or CounterAppWorkload()

    # -- schedule discovery -------------------------------------------------

    def _observe(self) -> FaultPlan:
        run = self.workload.boot()
        plan = FaultPlan(name="probe")
        run.machine.set_fault_plan(plan)
        self.workload.checkpoint(run)
        return plan

    def probe(self) -> Schedule:
        """Discover the schedule and assert it is deterministic."""
        first = self._observe()
        second = self._observe()
        assert first.io_log == second.io_log, \
            "probed checkpoint's IO trace is not deterministic"
        assert first.boundaries_seen == second.boundaries_seen, \
            "probed checkpoint's stage boundaries are not deterministic"
        schedule = Schedule(first.io_log, first.boundaries_seen)
        assert schedule.io_count > 0, "probed checkpoint issued no IO"
        assert schedule.flip_index is not None, \
            "probed checkpoint never flipped the superblock"
        return schedule

    def all_points(self, schedule: Schedule) -> List[CrashPoint]:
        """The complete schedule: every boundary, every IO index."""
        points: List[CrashPoint] = [StageCrash(stage, edge)
                                    for stage, edge in schedule.boundaries]
        points.extend(IOCrash(index)
                      for index in range(schedule.io_count))
        return points

    # -- executing one point ------------------------------------------------

    def run_point(self, point: CrashPoint, schedule: Schedule) -> Outcome:
        """Crash at ``point``, reboot, restore, check the oracle."""
        from repro.core import events

        workload = self.workload
        # Scope the (process-global) event ring to this run so the
        # snapshots it persists — and the recovered black box's
        # volatile tail — hold exactly this run's history.
        events.log().reset()
        run = workload.boot()
        plan = FaultPlan(name=str(point))
        point.arm(plan)
        run.machine.set_fault_plan(plan)
        fired = False
        try:
            workload.checkpoint(run)
        except InjectedCrash:
            fired = True
        assert plan.fired, f"{point}: scheduled crash never fired"
        fired = True
        submitted = plan.events[0].io_index
        # The oracle: V2 is durable iff the superblock flip write was
        # fully submitted before the power failed.
        expected = (workload.V2 if submitted > schedule.flip_index
                    else workload.V1)

        run.machine.crash()
        run.machine.boot()
        sls = load_aurora(run.machine)
        gc_flip = schedule.gc_flip_index
        self._verify_blackbox(sls, point, expected,
                              after_gc_flip=(gc_flip is not None
                                             and submitted > gc_flip))
        result = sls.restore(run.gid, periodic=False)
        restored = workload.read_state(result.root, run.addr)
        return Outcome(point, fired, submitted, restored, expected)

    def _verify_blackbox(self, sls, point: CrashPoint, expected: bytes,
                         after_gc_flip: bool = False) -> None:
        """The recovered flight recorder must agree with the oracle:
        the persisted timeline ends at the checkpoint the durability
        oracle says survived, and the injected fault shows up in the
        merged (volatile-tail) timeline.

        A GC flip follows the commit flip and re-anchors the black
        box.  It runs inside the commit's completion callback — before
        that commit's ``checkpoint.commit`` event is emitted — and has
        no pending commit of its own, so a timeline recovered from it
        still ends at the *previous* commit event, followed by the
        committed checkpoint's in-progress events."""
        from repro.core import events, flightrec

        box = flightrec.blackbox(sls.store, volatile=events.log())
        assert box is not None, \
            f"{point}: no flight recorder snapshot recovered"
        last = box.last_durable
        assert last is not None, \
            f"{point}: recovered timeline has no durable commit"
        if after_gc_flip:
            assert expected == self.workload.V2
            assert box.snapshot["pending"] is None, \
                f"{point}: the GC flip's snapshot carries a commit"
            assert last["kind"] == events.CKPT_COMMIT, \
                f"{point}: GC-flip timeline ends at {last['kind']!r}"
        else:
            expected_name = ("v2" if expected == self.workload.V2
                             else "v1")
            assert last["fields"].get("name") == expected_name, \
                (f"{point}: black box ends at "
                 f"{last['fields'].get('name')!r}, oracle says "
                 f"{expected_name!r} is the last durable commit")
            # Nothing persisted may postdate the durable commit the
            # timeline ends at.
            assert box.events[-1] is last, \
                f"{point}: persisted events continue past the durable commit"
        faults = [row for row in box.timeline()
                  if row["kind"] == events.FAULT_INJECTED]
        assert faults, f"{point}: injected fault missing from black box"
        assert all(row.get("post_snapshot") for row in faults), \
            f"{point}: a crash fault event was persisted as durable"

    def sweep(self, points: List[CrashPoint],
              schedule: Schedule) -> List[Outcome]:
        """Run every point; returns the outcomes (callers assert)."""
        return [self.run_point(point, schedule) for point in points]


# -- the cluster crash-schedule explorer ------------------------------------


class ClusterRun:
    """One primary plus its quorum cluster, advanced to the
    pre-probed-checkpoint state."""

    def __init__(self, machine, sls, group, proc, addr, cluster,
                 v1_ckpt: int):
        self.machine = machine
        self.sls = sls
        self.group = group
        self.gid = group.group_id
        self.proc = proc
        self.addr = addr
        self.cluster = cluster
        self.v1_ckpt = v1_ckpt


class ClusterWorkload(CounterAppWorkload):
    """The quorum-replication protocol made crash-enumerable.

    Boot: a 6-node / 3-AZ cluster replicates a durable ``V1``
    checkpoint everywhere (no plan installed — those boundaries are
    not part of the probed schedule), then node 5 is powered off and
    the heap is dirtied to ``V2``.

    The probed action then crosses every replication boundary once:
    the ``V2`` sync checkpoint is pumped to the five reachable nodes
    (``ship``/``deliver``/``apply``/``ack`` per node), node 5 rejoins
    holding only ``V1``, and segment repair rebuilds its missing
    ``V2`` copy (one ``repair`` boundary per segment).

    The durability flip is the **write-quorum** apply — the
    :data:`WRITE_QUORUM`-th node's media commit — not any single
    node's, and not the primary's own superblock.
    """

    NODES = 6
    AZS = 3
    WRITE_QUORUM = 4
    SEGMENT_BYTES = 512
    REJOIN_NODE = 5

    def boot(self) -> ClusterRun:  # type: ignore[override]
        machine = Machine()
        sls = load_aurora(machine)
        proc = machine.kernel.spawn("app")
        addr = proc.vmspace.mmap(self.NPAGES * PAGE_SIZE, name="heap")
        self._fill(proc, addr, self.V1)
        group = sls.attach(proc, periodic=False)
        v1 = sls.checkpoint(group, name="v1", sync=True).info.ckpt_id
        cluster = SLSCluster(sls, group, nodes=self.NODES,
                             azs=self.AZS,
                             segment_bytes=self.SEGMENT_BYTES)
        durable = cluster.pump()
        assert durable == v1, "V1 did not reach quorum before the probe"
        cluster.node_down(self.REJOIN_NODE)
        self._fill(proc, addr, self.V2)
        return ClusterRun(machine, sls, group, proc, addr, cluster, v1)

    def action(self, run: ClusterRun) -> None:
        """The probed sequence: replicate V2, rejoin node 5, repair."""
        run.sls.checkpoint(run.group, name="v2", sync=True)
        run.cluster.pump()
        run.cluster.node_up(self.REJOIN_NODE)
        run.cluster.repair()

    def read_page(self, proc, addr: int, index: int) -> bytes:
        tag = self.read_state(proc, addr)
        return proc.vmspace.read(addr + index * PAGE_SIZE,
                                 len(tag) + len(b":%d" % index))


class SkewedClusterWorkload(ClusterWorkload):
    """:class:`ClusterWorkload` with its first-dispatched replicas slow.

    Delivery to nodes 0 and 1 — the first two legs the pump dispatches
    — is delayed, so their copies land after nodes 2–4's: the applies
    come in node order 2, 3, 4, 0, 1, and the write-quorum apply (the
    durability flip) is node 0's, not the W-th node in dispatch order.
    """

    SLOW_NODES = (0, 1)
    SLOW_NS = 200 * USEC

    def action(self, run: ClusterRun) -> None:
        plan = run.machine.fault_plan
        assert plan is not None, "the explorer installs the plan"
        for node in self.SLOW_NODES:
            plan.delay_link(PRIMARY, node, self.SLOW_NS)
        super().action(run)


class ClusterSchedule:
    """The probed action's complete replication-boundary schedule."""

    def __init__(self, repl_log: List[Tuple[int, str]],
                 write_quorum: int):
        self.repl_log = repl_log
        self.count = len(repl_log)
        applies = [i for i, (_, boundary) in enumerate(repl_log)
                   if boundary == B_APPLY]
        #: Index of the write-quorum-th ``apply`` boundary: that
        #: boundary is logged *after* the W-th node's media commit, so
        #: a crash at it — or any later boundary — leaves V2 quorum-
        #: durable; a crash at any earlier boundary must recover V1.
        self.flip_index = (applies[write_quorum - 1]
                           if len(applies) >= write_quorum else None)

    def __repr__(self) -> str:
        return (f"ClusterSchedule({self.count} boundaries, "
                f"flip@{self.flip_index})")


class ClusterOutcome:
    """What one cluster crash-schedule run observed."""

    def __init__(self, index: int, boundary: Tuple[int, str], mode: str,
                 durable: int, restored: bytes, restored_page: bytes,
                 expected: bytes, expected_page: bytes):
        self.index = index
        self.boundary = boundary
        self.mode = mode
        self.durable = durable
        self.restored = restored
        self.restored_page = restored_page
        self.expected = expected
        self.expected_page = expected_page

    @property
    def ok(self) -> bool:
        return (self.restored == self.expected
                and self.restored_page == self.expected_page)

    def __repr__(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        node, boundary = self.boundary
        return (f"ClusterOutcome(#{self.index} {boundary}@n{node} "
                f"{self.mode}, {status})")


class ClusterScheduleExplorer:
    """Crashes the primary — or any single node — at every
    replication/quorum boundary and checks the quorum oracle.

    Two modes per boundary:

    * ``primary`` — the whole primary machine power-fails at the
      boundary; the cluster recovers from replica media alone.  The
      recovered state must be V2 iff the crash came at or after the
      write-quorum apply (``flip_index``), V1 otherwise — and never
      anything in between (a non-acked checkpoint is invisible, an
      acked one complete).
    * ``node`` — the *node named by the boundary* power-fails there
      instead.  The pump/repair absorb the loss (one node is not the
      availability unit), the action completes, and recovery after a
      subsequent primary crash must still produce V2: the quorum held.
    """

    def __init__(self, workload: Optional[ClusterWorkload] = None):
        self.workload = workload or ClusterWorkload()

    # -- schedule discovery -------------------------------------------------

    def _observe(self) -> FaultPlan:
        run = self.workload.boot()
        plan = FaultPlan(name="cluster-probe")
        run.machine.set_fault_plan(plan)
        self.workload.action(run)
        return plan

    def probe(self) -> ClusterSchedule:
        """Discover the boundary schedule; assert it is deterministic."""
        first = self._observe()
        second = self._observe()
        assert first.repl_log == second.repl_log, \
            "replication boundary schedule is not deterministic"
        schedule = ClusterSchedule(first.repl_log,
                                   self.workload.WRITE_QUORUM)
        assert schedule.count > 0, "action crossed no boundaries"
        assert schedule.flip_index is not None, \
            "V2 never reached a write quorum in the probe"
        assert any(boundary == "repair"
                   for _, boundary in schedule.repl_log), \
            "action scheduled no repair boundaries"
        return schedule

    # -- executing one point ------------------------------------------------

    def run_point(self, index: int, schedule: ClusterSchedule,
                  mode: str = "primary") -> ClusterOutcome:
        workload = self.workload
        run = workload.boot()
        plan = FaultPlan(name=f"repl{index}:{mode}")
        if mode == "primary":
            plan.crash_at_repl(index)
        else:
            plan.node_crash_at_repl(index)
        run.machine.set_fault_plan(plan)
        try:
            workload.action(run)
        except InjectedCrash:
            assert mode == "primary", \
                "a node crash must never escape the pump"
        assert plan.fired, f"boundary {index}: crash never fired"

        # Whatever already happened, the primary now dies; the cluster
        # must settle on its quorum-durable state from replica media.
        run.machine.crash()
        recovery = run.cluster.recover()
        if mode == "primary":
            expected = (workload.V2
                        if index >= (schedule.flip_index or 0)
                        else workload.V1)
        else:
            # One node died but the quorum survived: V2 must have
            # been acknowledged and must be what recovery yields.
            expected = workload.V2
        restored = workload.read_state(recovery.result.root, run.addr)
        restored_page = workload.read_page(recovery.result.root,
                                           run.addr, 7)
        expected_page = expected + b":7"
        return ClusterOutcome(index, schedule.repl_log[index], mode,
                              recovery.durable, restored,
                              restored_page, expected, expected_page)

    def sweep(self, indices: List[int], schedule: ClusterSchedule,
              mode: str = "primary") -> List[ClusterOutcome]:
        """Run the given boundaries; returns outcomes (callers assert)."""
        return [self.run_point(index, schedule, mode=mode)
                for index in indices]


# -- the fenced-failover crash-schedule explorer ------------------------------


class FencedClusterWorkload(ClusterWorkload):
    """The partition-failover protocol made crash-enumerable.

    Boot: all six nodes replicate a durable ``V1`` (no plan installed
    — pre-probe), then the heap is dirtied to ``V2``.

    The probed action walks the whole displaced-primary story: the
    primary is symmetrically partitioned from every node, the ``V2``
    checkpoint commits locally and its pump stalls behind the cut
    (``ship`` boundaries of the doomed attempts), the primary's lease
    expires (``lease``), a reachable node is promoted — every voter
    durably promising the bumped epoch (``epoch`` per voter) — the
    partition heals, the displaced primary fences itself on first
    contact, and anti-entropy reconciliation (``reconcile`` per node)
    drains the fenced tail.

    ``V2`` never reaches any replica's media — the cut, then the
    fence, kill it before apply — so the oracle is constant: recovery
    from replica media yields exactly ``V1`` at *every* crash point.
    """

    def boot(self) -> ClusterRun:  # type: ignore[override]
        machine = Machine()
        sls = load_aurora(machine)
        proc = machine.kernel.spawn("app")
        addr = proc.vmspace.mmap(self.NPAGES * PAGE_SIZE, name="heap")
        self._fill(proc, addr, self.V1)
        group = sls.attach(proc, periodic=False)
        v1 = sls.checkpoint(group, name="v1", sync=True).info.ckpt_id
        cluster = SLSCluster(sls, group, nodes=self.NODES,
                             azs=self.AZS,
                             segment_bytes=self.SEGMENT_BYTES)
        durable = cluster.pump()
        assert durable == v1, "V1 did not reach quorum before the probe"
        self._fill(proc, addr, self.V2)
        return ClusterRun(machine, sls, group, proc, addr, cluster, v1)

    def action(self, run: ClusterRun) -> None:
        """The probed sequence: partition, stall, lease expiry,
        quorum epoch bump, heal, self-fence, reconcile."""
        plan = run.machine.fault_plan
        assert plan is not None, "the explorer installs the plan"
        plan.partition([PRIMARY], list(range(self.NODES)))
        run.sls.checkpoint(run.group, name="v2", sync=True)
        run.cluster.pump()  # stalls: every ship dies at the cut
        run.machine.clock.advance(2 * run.cluster.lease_ns)
        run.cluster.pump()  # zero lease grants past expiry: B_LEASE
        run.cluster.failover()  # quorum epoch bump: B_EPOCH per voter
        plan.heal()
        run.cluster.pump()  # first contact reads the newer promise
        assert run.cluster.fenced, "displaced primary must self-fence"
        run.cluster.reconcile()  # B_RECONCILE per node


class FencedScheduleExplorer(ClusterScheduleExplorer):
    """Crashes the primary at every boundary of a partitioned
    failover — lease expiry, each voter's epoch promise, each node's
    reconciliation — and checks the constant oracle: the fenced
    ``V2`` is never recoverable, ``V1`` always is."""

    def __init__(self, workload: Optional[FencedClusterWorkload] = None):
        super().__init__(workload or FencedClusterWorkload())

    def probe(self) -> ClusterSchedule:
        """Discover the boundary schedule; assert it is deterministic
        and crosses the lease/epoch/reconcile boundary kinds."""
        first = self._observe()
        second = self._observe()
        assert first.repl_log == second.repl_log, \
            "fenced-failover boundary schedule is not deterministic"
        schedule = ClusterSchedule(first.repl_log,
                                   self.workload.WRITE_QUORUM)
        kinds = {boundary for _, boundary in schedule.repl_log}
        assert {B_EPOCH, B_LEASE, B_RECONCILE} <= kinds, \
            f"probe missed a fencing boundary kind: {kinds}"
        assert schedule.flip_index is None, \
            "a fenced V2 must never reach a write-quorum apply"
        return schedule

    def run_point(self, index: int, schedule: ClusterSchedule,
                  mode: str = "primary") -> ClusterOutcome:
        assert mode == "primary", \
            "the fenced sweep crashes the primary only"
        workload = self.workload
        run = workload.boot()
        plan = FaultPlan(name=f"fence{index}")
        plan.crash_at_repl(index)
        run.machine.set_fault_plan(plan)
        try:
            workload.action(run)
        except InjectedCrash:
            pass
        assert plan.fired, f"boundary {index}: crash never fired"

        # The primary dies at (or after) the boundary; the cluster
        # settles on replica media, where V2 never landed.
        run.machine.crash()
        recovery = run.cluster.recover()
        expected = workload.V1
        restored = workload.read_state(recovery.result.root, run.addr)
        restored_page = workload.read_page(recovery.result.root,
                                           run.addr, 7)
        return ClusterOutcome(index, schedule.repl_log[index], mode,
                              recovery.durable, restored,
                              restored_page, expected,
                              expected + b":7")


# -- the fleet crash-schedule explorer ---------------------------------------


class FleetTenant:
    """One periodic tenant of the fleet workload."""

    def __init__(self, proc, group, addr: int):
        self.proc = proc
        self.group = group
        self.gid = group.group_id if group is not None else None
        self.addr = addr


class FleetRun:
    """A booted machine with the pre-probe fleet attached."""

    def __init__(self, machine, sls, tenants: List[FleetTenant]):
        self.machine = machine
        self.sls = sls
        self.tenants = tenants


class FleetWorkload:
    """Fleet-scheduler boundaries made crash-enumerable.

    Boot: two periodic tenants attach (their admit boundaries are
    pre-probe — no plan is installed yet) and each is made durable at
    tag 0 by a sync checkpoint.  The probed action then crosses every
    fleet boundary kind at least once: a third tenant arrives
    (``admit``), the loop runs several periods of EDF dispatches
    (``dispatch``), and an inflated demand estimate forces the
    backpressure controller to stretch a period (``widen``).

    The oracle is per tenant: after a crash at any fleet boundary,
    reboot + restore must yield exactly the tenant's newest durable
    checkpoint — never older than any checkpoint whose commit was
    acked before the crash, and never a torn state (every heap page
    carries the same tag; each driver step rewrites the whole heap, so
    any mixed-tag heap would be a non-atomic capture).
    """

    PERIOD_MS = 10
    NPAGES = 6
    STEPS = 8
    STEP_MS = 5

    def boot(self) -> FleetRun:
        from repro.core import events
        events.log().reset()
        machine = Machine()
        sls = load_aurora(machine)
        tenants = [self._spawn(machine, sls, index) for index in range(2)]
        for tenant in tenants:
            sls.checkpoint(tenant.group, name="v1", sync=True)
        return FleetRun(machine, sls, tenants)

    def _spawn(self, machine, sls, index: int) -> FleetTenant:
        from repro.units import MSEC
        proc = machine.kernel.spawn(f"tenant{index}")
        addr = proc.vmspace.mmap(self.NPAGES * PAGE_SIZE, name="heap")
        tenant = FleetTenant(proc, None, addr)
        self.fill(tenant, tag=0)
        tenant.group = sls.attach(proc, name=f"tenant{index}",
                                  period_ns=self.PERIOD_MS * MSEC)
        tenant.gid = tenant.group.group_id
        return tenant

    def fill(self, tenant: FleetTenant, tag: int) -> None:
        """Rewrite every heap page with one tag — the atomicity probe.
        The tag prefix is identical on every page of one fill, so a
        restored heap mixing prefixes is a torn capture."""
        for page in range(self.NPAGES):
            tenant.proc.vmspace.write(
                tenant.addr + page * PAGE_SIZE,
                b"tag:%06d/page:%d" % (tag, page))

    def read_tags(self, proc, tenant: FleetTenant) -> List[bytes]:
        return [proc.vmspace.read(tenant.addr + page * PAGE_SIZE, 10)
                for page in range(self.NPAGES)]

    def action(self, run: FleetRun) -> None:
        """The probed sequence: admit, dispatch for a while, widen."""
        from repro.units import MSEC
        run.tenants.append(self._spawn(run.machine, run.sls, 2))
        # An absurd measured demand makes the periodic backpressure
        # check stretch this tenant until it hits the widen cap.
        run.tenants[0].group.demand_bytes_per_ckpt = 1 << 40
        for step in range(1, self.STEPS + 1):
            for tenant in run.tenants:
                self.fill(tenant, tag=step)
            run.machine.run_for(self.STEP_MS * MSEC)


class FleetOutcome:
    """What one fleet crash-schedule run observed for one tenant."""

    def __init__(self, index: int, boundary: Tuple[int, str], gid: int,
                 restored_ckpt: int, durable_ckpt: int, acked_ckpt: int,
                 tags: List[bytes]):
        self.index = index
        self.boundary = boundary
        self.gid = gid
        self.restored_ckpt = restored_ckpt
        self.durable_ckpt = durable_ckpt
        self.acked_ckpt = acked_ckpt
        self.tags = tags

    @property
    def ok(self) -> bool:
        return (self.restored_ckpt == self.durable_ckpt
                and self.restored_ckpt >= self.acked_ckpt
                and len(set(self.tags)) == 1)

    def __repr__(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        gid, boundary = self.boundary
        return (f"FleetOutcome(#{self.index} {boundary}@g{gid} "
                f"tenant={self.gid} restored={self.restored_ckpt} "
                f"durable={self.durable_ckpt} acked>={self.acked_ckpt}, "
                f"{status})")


class FleetScheduleExplorer:
    """Crashes the machine at every fleet-scheduler boundary and
    checks the per-tenant durability oracle."""

    def __init__(self, workload: Optional[FleetWorkload] = None):
        self.workload = workload or FleetWorkload()

    def _observe(self) -> FaultPlan:
        run = self.workload.boot()
        plan = FaultPlan(name="fleet-probe")
        run.machine.set_fault_plan(plan)
        self.workload.action(run)
        return plan

    def probe(self) -> List[Tuple[int, str]]:
        """Discover the boundary schedule; assert it is deterministic
        and crosses all three boundary kinds."""
        first = self._observe()
        second = self._observe()
        assert first.fleet_log == second.fleet_log, \
            "fleet boundary schedule is not deterministic"
        kinds = {boundary for _, boundary in first.fleet_log}
        assert kinds == {"admit", "dispatch", "widen"}, \
            f"probe missed a fleet boundary kind: {kinds}"
        return first.fleet_log

    def run_point(self, index: int,
                  schedule: List[Tuple[int, str]]) -> List[FleetOutcome]:
        from repro.core import events
        workload = self.workload
        run = workload.boot()
        plan = FaultPlan(name=f"fleet{index}")
        plan.crash_at_fleet(index)
        run.machine.set_fault_plan(plan)
        try:
            workload.action(run)
        except InjectedCrash:
            pass
        assert plan.fired, f"fleet boundary {index}: crash never fired"

        # Commits acked before the power failed: the durability floor.
        acked = {}
        for event in events.log().matching(kind=events.CKPT_COMMIT):
            acked[event.fields["group"]] = max(
                acked.get(event.fields["group"], 0),
                event.fields["ckpt"])

        run.machine.crash()
        run.machine.boot()
        sls = load_aurora(run.machine)
        outcomes = []
        for tenant in run.tenants:
            if tenant.gid not in sls.restorable_groups():
                # The third tenant's crash landed before its first
                # durable checkpoint: nothing to restore, nothing lost.
                assert tenant.gid not in acked
                continue
            durable = sls.store.find_latest_complete(tenant.gid).ckpt_id
            result = sls.restore(tenant.gid, periodic=False)
            tags = workload.read_tags(result.root, tenant)
            outcomes.append(FleetOutcome(
                index, schedule[index], tenant.gid, result.ckpt_id,
                durable, acked.get(tenant.gid, 0), tags))
        return outcomes

    def sweep(self, indices: List[int],
              schedule: List[Tuple[int, str]]) -> List[FleetOutcome]:
        return [outcome for index in indices
                for outcome in self.run_point(index, schedule)]
