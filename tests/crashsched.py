"""The crash-schedule explorer harness.

The property under test is the paper's core promise (§5, §7): a crash
at *any* instant leaves the application restorable to its last
durable checkpoint.  "Any instant" is made enumerable by the
:class:`~repro.core.faults.FaultPlan`: it logs every boundary the
system crosses — device writes (``io``), pipeline stage boundaries
(``stage``), replication/quorum steps (``repl``) and fleet-scheduler
decisions (``fleet``) — in one deterministic list, and a crash point
``(domain, index)`` names one entry of it.

A :class:`Workload` is data: how to ``boot`` a machine to a durable
state ``V1`` with ``V2`` pending, the ``action`` under test, the
``domain`` it sweeps (and the boundary names the probe must see
there), where in that domain ``V2`` becomes durable (``flip``), and
the ``oracle`` that recovers a crashed run and judges it.  One
:class:`Explorer` runs any of them:

* :meth:`Explorer.probe` runs the action twice under an observing plan
  and asserts the two logs are identical — the determinism every crash
  point depends on — then returns the :class:`Schedule`.
* :meth:`Explorer.run_point` boots from scratch, arms one point, runs
  the action, power-fails the machine and asks the workload's oracle,
  which recovers and returns one :class:`Outcome` per restored app.

The thirteen workloads are the rows of :data:`WORKLOADS`.  The oracles
that reboot the primary also take one more checkpoint of every
restored group and scrub with no carve-out: the mount left nothing
allocated that no owner holds, and no owned extent on the free list.
Used by ``tests/test_crashsched.py`` (samples in tier-1, the
exhaustive sweeps under ``-m slow``).
"""

from __future__ import annotations

import functools
from typing import (Any, Callable, Dict, FrozenSet, List, NamedTuple,
                    Optional, Tuple)

from repro import Machine, load_aurora
from repro.core import events, flightrec
from repro.core.api import AuroraAPI
from repro.core.cluster import (B_EPOCH, B_LEASE, B_RECONCILE, B_REPAIR,
                                SLSCluster)
from repro.core.faults import (DOMAINS, FLEET, IO, PRIMARY, REPL,
                               FaultPlan, InjectedCrash)
from repro.core.shipping import B_ACK, B_APPLY, B_DELIVER, B_SHIP
from repro.hw.memory import synthetic_bytes
from repro.objstore.recovery import _read_superblocks
from repro.objstore.scrub import scrub
from repro.objstore.store import SUPERBLOCK_SLOTS
from repro.units import MiB, MSEC, PAGE_SIZE, USEC

#: The durable state before the action, and the state it tries to make
#: durable; ``V0`` comes before ``V1`` where a row needs an older one.
V0 = b"aurora-crashsched-v0"
V1 = b"aurora-crashsched-v1"
V2 = b"aurora-crashsched-v2"
#: Heap pages of the counter and cluster apps.
NPAGES = 24

#: The cluster: 6 nodes in 3 AZs, a write quorum of 4, 512 B segments.
NODES = 6
AZS = 3
WRITE_QUORUM = 4
SEGMENT_BYTES = 512
#: The node powered off before the cluster action and rejoined in it.
REJOIN_NODE = 5
#: The skewed cluster's slow replicas — the first two legs dispatched.
SLOW_NODES = (0, 1)
SLOW_NS = 200 * USEC

#: The pressure app: RAM, heap pages, the seed of its synthetic pages
#: and the pages each side of its fork writes.
PRESSURE_RAM = 4 * MiB
PRESSURE_NPAGES = 960
PRESSURE_SEED = 7000
FORK_WRITES = {"parent": 21, "child": 22}

#: The fleet: tenants' period, heap pages, and the action's steps.
PERIOD_MS = 10
FLEET_NPAGES = 6
STEPS = 8
STEP_MS = 5

#: A crash point: a boundary domain and an index that counts only that
#: domain's entries.
Point = Tuple[str, int]
#: One log entry of a domain: ``(who, name)``.
Entry = Tuple[Any, str]


class Run:
    """One booted app: its machine, orchestrator, group, process and
    heap — plus the cluster replicating it, or a fleet's tenants (each
    a :class:`Run` on the same machine)."""

    def __init__(self, machine, sls, group=None, proc=None, addr: int = 0,
                 cluster=None, tenants: Optional[List["Run"]] = None):
        self.machine = machine
        self.sls = sls
        self.group = group
        self.gid = group.group_id if group is not None else None
        self.proc = proc
        self.addr = addr
        self.cluster = cluster
        self.tenants = tenants or []


def read_head(root, addr: int) -> bytes:
    """The version tag at the head of a restored heap."""
    return root.vmspace.read(addr, len(V1))


# -- boot and action ----------------------------------------------------------


def _fill(proc, addr: int, tag: bytes) -> None:
    """Dirty enough real pages that the flush packs more than one
    stripe-unit data extent (the IO schedule spans devices)."""
    proc.vmspace.write(addr, tag)
    for index in range(2, 20):
        proc.vmspace.write(addr + index * PAGE_SIZE, tag + b":%d" % index)


def _app(pipes: int = 0):
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    for _ in range(pipes):
        machine.kernel.pipe(proc)
    addr = proc.vmspace.mmap(NPAGES * PAGE_SIZE, name="heap")
    return machine, sls, proc, addr


def boot_counter(history_limit: Optional[int] = None) -> Run:
    """A single-process app: ``V1`` made durable by a sync checkpoint,
    then the heap dirtied to ``V2``.  With ``history_limit=1`` the
    ``V2`` checkpoint's commit deletes ``V1``: the ``V2`` checkpoint
    adopts ``V1``'s extents before its metadata is written, once, and
    one flip adds ``V2`` and drops ``V1``."""
    machine, sls, proc, addr = _app()
    _fill(proc, addr, V1)
    group = sls.attach(proc, periodic=False, history_limit=history_limit)
    sls.checkpoint(group, name="v1", sync=True)
    _fill(proc, addr, V2)
    return Run(machine, sls, group, proc, addr)


def boot_history() -> Run:
    """As :func:`boot_counter` with ``history_limit=2``, after a ``v0``
    checkpoint: the ``V2`` checkpoint's commit deletes ``v0``, whose
    child — the ``V1`` checkpoint, not the one being committed —
    adopts and has its metadata rewritten before the one flip
    (``posix_wide``'s shape)."""
    machine, sls, proc, addr = _app()
    _fill(proc, addr, b"aurora-crashsched-v0")
    group = sls.attach(proc, periodic=False, history_limit=2)
    sls.checkpoint(group, name="v0", sync=True)
    _fill(proc, addr, V1)
    sls.checkpoint(group, name="v1", sync=True)
    _fill(proc, addr, V2)
    return Run(machine, sls, group, proc, addr)


def boot_chain() -> Run:
    """Three checkpoints with no history limit, the last ``V1``, then
    ``history_limit`` 1: the ``V2`` checkpoint's commit deletes all
    three in one flip.  Each victim's child adopts in turn, and only
    the survivor's metadata — ``V2``'s own — is written."""
    machine, sls, proc, addr = _app()
    group = sls.attach(proc, periodic=False)
    for name in ("va", "vb", "v1"):
        _fill(proc, addr, b"aurora-crashsched-" + name.encode())
        sls.checkpoint(group, name=name, sync=True)
    group.history_limit = 1
    _fill(proc, addr, V2)
    return Run(machine, sls, group, proc, addr)


def boot_incremental() -> Run:
    """As :func:`boot_counter`, but a base full checkpoint sets the
    epoch floor first, so the ``V1`` and ``V2`` checkpoints are both
    incremental deltas whose clean records (two idle pipes) resolve
    through the parent chain at restore."""
    machine, sls, proc, addr = _app(pipes=2)
    _fill(proc, addr, b"aurora-crashsched-v0")
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, name="base", sync=True)
    _fill(proc, addr, V1)
    result = sls.checkpoint(group, name="v1", sync=True)
    assert result.records_skipped > 0, "v1 checkpoint was not incremental"
    _fill(proc, addr, V2)
    return Run(machine, sls, group, proc, addr)


def superseded(run: Run) -> List[Tuple[int, int]]:
    """The catalog and flight record the older superblock slot names:
    a mount frees them, as the running store did once the newer slot
    landed."""
    slots = [superblock for _slot, superblock, _present
             in _read_superblocks(run.machine.storage) if superblock]
    return [tuple(slots[1][key]) for key in ("catalog_extent", "flightrec")]


def boot_remount() -> Run:
    """:func:`boot_counter`, then a power failure, a mount and a
    restore of ``V1``, and the heap dirtied to ``V2``.  The mount freed
    the :func:`superseded` catalog and flight record, so the ``V2``
    commit's first allocations land on them before its flip overwrites
    the slot that names them."""
    run = boot_counter()
    run.machine.crash()
    run.machine.boot()
    sls = load_aurora(run.machine)
    result = sls.restore(run.gid, periodic=False)
    _fill(result.root, run.addr, V2)
    return Run(run.machine, sls, result.group, result.root, run.addr)


def checkpoint_v2(run: Run) -> None:
    run.sls.checkpoint(run.group, name="v2", sync=True)


def memckpt_v2(run: Run) -> None:
    """Two atomic checkpoints of the heap alone (``sls_memckpt``, each
    a partial checkpoint over ``V1``'s full one): an async one awaited
    by a barrier — its flip makes ``V2`` durable — then, with ``V2``
    rewritten, a sync one."""
    api = AuroraAPI(run.sls, run.proc)
    api.sls_memckpt(run.addr, NPAGES * PAGE_SIZE)
    api.sls_barrier()
    _fill(run.proc, run.addr, V2)
    api.sls_memckpt(run.addr, NPAGES * PAGE_SIZE, sync=True)


def boot_cluster(down: Optional[int] = REJOIN_NODE,
                 history_limit: Optional[int] = None) -> Run:
    """The app replicated by the 6-node / 3-AZ cluster: ``V1`` reaches
    every node (no plan installed, so those boundaries are not part of
    the schedule), node ``down`` is powered off, the heap is dirtied
    to ``V2``.  With ``history_limit`` (the group's), a ``V0`` reaches
    every node first."""
    machine, sls, proc, addr = _app()
    versions = [("v1", V1)] if history_limit is None \
        else [("v0", V0), ("v1", V1)]
    _fill(proc, addr, versions[0][1])
    group = sls.attach(proc, periodic=False)
    group.history_limit = history_limit
    cluster = None
    for index, (name, version) in enumerate(versions):
        if index:
            _fill(proc, addr, version)
        head = sls.checkpoint(group, name=name, sync=True).info.ckpt_id
        cluster = cluster or SLSCluster(sls, group, nodes=NODES, azs=AZS,
                                        segment_bytes=SEGMENT_BYTES)
        assert cluster.pump() == head, \
            f"{name} did not reach quorum before the probe"
    if down is not None:
        cluster.node_down(down)
    _fill(proc, addr, V2)
    return Run(machine, sls, group, proc, addr, cluster=cluster)


def replicate_v2(run: Run) -> None:
    """Replicate ``V2`` to the five reachable nodes (ship, deliver,
    apply, ack per node), rejoin the down node holding only ``V1``,
    and repair its missing ``V2`` copy (one ``repair`` per segment)."""
    checkpoint_v2(run)
    run.cluster.pump()
    run.cluster.node_up(REJOIN_NODE)
    run.cluster.repair()


def replicate_v2_skewed(run: Run) -> None:
    """:func:`replicate_v2` with delivery to the first two legs
    dispatched delayed: the applies come in node order 2, 3, 4, 0, 1,
    so the write-quorum apply is node 0's."""
    for node in SLOW_NODES:
        run.machine.fault_plan.delay_link(PRIMARY, node, SLOW_NS)
    replicate_v2(run)


def fence_v2(run: Run) -> None:
    """The displaced-primary story: the primary is partitioned from
    every node, ``V2`` commits locally and its pump stalls at the cut
    (``ship``), the lease expires (``lease``), a reachable node is
    promoted (an ``epoch`` promise per voter), the partition heals,
    the ex-primary fences itself on first contact, and reconciliation
    (``reconcile`` per node) drains the fenced tail.  ``V2`` never
    reaches a replica's media."""
    plan = run.machine.fault_plan
    plan.partition([PRIMARY], list(range(NODES)))
    checkpoint_v2(run)
    run.cluster.pump()  # stalls: every ship dies at the cut
    run.machine.clock.advance(2 * run.cluster.lease_ns)
    run.cluster.pump()  # zero lease grants past expiry: B_LEASE
    run.cluster.failover()  # quorum epoch bump: B_EPOCH per voter
    plan.heal()
    run.cluster.pump()  # first contact reads the newer promise
    assert run.cluster.fenced, "displaced primary must self-fence"
    run.cluster.reconcile()  # B_RECONCILE per node


def boot_pressure() -> Run:
    """``V1`` durable in 19 real pages of a 1024-frame machine; then
    ``V2`` written over them and 900 synthetic pages filled, which
    puts the machine over its pageout watermark."""
    machine = Machine(ram_bytes=PRESSURE_RAM)
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(PRESSURE_NPAGES * PAGE_SIZE, name="heap")
    _fill(proc, addr, V1)
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, name="v1", sync=True)
    _fill(proc, addr, V2)
    proc.vmspace.fill(addr + 20 * PAGE_SIZE, 900, seed=PRESSURE_SEED)
    return Run(machine, sls, group, proc, addr)


def pressure_v2(run: Run) -> None:
    """Between the two disk checkpoints: a pageout pass evicts the
    clean ``V1`` pages, then dirty ones — the ``V2`` real pages in one
    batch write, 31 synthetic ones with no IO — then a mem checkpoint,
    a fork and a write on each side of it."""
    kernel = run.machine.kernel
    objects = [obj for track in run.group.tracks.values()
               for obj in track.active.chain()]
    assert kernel.pageout.run_pageout(objects, store=run.sls.store) == 69
    assert kernel.pageout.evictions_dirty == 50
    run.sls.checkpoint(run.group, mode="mem")
    child = kernel.fork(run.proc, name="child")
    for proc, side in ((run.proc, "parent"), (child, "child")):
        proc.vmspace.write(run.addr + FORK_WRITES[side] * PAGE_SIZE,
                           V2 + b":" + side.encode())
    checkpoint_v2(run)


#: Bytes read per probed page of the pressure app.
PROBE = len(V2) + 8


def pressure_pages(space, addr: int) -> List[bytes]:
    """What one side of the pressure app reads: the head and a real
    page (both evicted dirty), a synthetic page evicted dirty, one
    never evicted, and the pages each side wrote after the fork."""
    return [space.read(addr + page * PAGE_SIZE, PROBE)
            for page in (0, 7, 30, 500, *FORK_WRITES.values())]


def pressure_expected(version: bytes, side: str) -> List[bytes]:
    """:func:`pressure_pages` of ``side`` at ``version``."""
    if version == V1:
        return [(V1 + tail).ljust(PROBE, b"\0") for tail in (b"", b":7")] \
            + [bytes(PROBE)] * 4
    pages = [synthetic_bytes(PRESSURE_SEED + page - 20)[:PROBE]
             for page in (30, 500, *FORK_WRITES.values())]
    written = V2 + b":" + side.encode()
    at = 2 if side == "parent" else 3
    pages[at] = written + pages[at][len(written):]
    return [V2.ljust(PROBE, b"\0"), (V2 + b":7").ljust(PROBE, b"\0"),
            *pages]


def restore_pressure(run: Run, plan: FaultPlan, point: Point,
                     schedule: Schedule, node: bool) -> List[Outcome]:
    """Reboot, check the black box, restore: every probed page of both
    processes is exactly the last durable version's."""
    expected = _durable(plan, point, schedule, node)
    run.machine.boot()
    sls = load_aurora(run.machine)
    _check_blackbox(sls, point, expected)
    result = sls.restore(run.gid, periodic=False)
    sides = [("parent", result.root)]
    if expected == V2:
        sides += [("child", proc) for proc in result.group.processes
                  if proc is not result.root]
    ok = len(sides) == (2 if expected == V2 else 1) and all(
        pressure_pages(proc.vmspace, run.addr)
        == pressure_expected(expected, side) for side, proc in sides)
    _checkpoint_and_scrub(sls, [result.group], point)
    return [Outcome(point, _entry(schedule, point),
                    read_head(result.root, run.addr), expected, ok=ok)]


def _stamp(proc, addr: int, tag: int) -> None:
    """Rewrite every heap page with one tag — the atomicity probe: a
    restored heap mixing tags is a torn capture."""
    for page in range(FLEET_NPAGES):
        proc.vmspace.write(addr + page * PAGE_SIZE,
                           b"tag:%06d/page:%d" % (tag, page))


def _tenant(machine, sls, index: int) -> Run:
    proc = machine.kernel.spawn(f"tenant{index}")
    addr = proc.vmspace.mmap(FLEET_NPAGES * PAGE_SIZE, name="heap")
    _stamp(proc, addr, 0)
    group = sls.attach(proc, name=f"tenant{index}",
                       period_ns=PERIOD_MS * MSEC)
    return Run(machine, sls, group, proc, addr)


def boot_fleet() -> Run:
    """Two periodic tenants, each made durable at tag 0."""
    machine = Machine()
    sls = load_aurora(machine)
    tenants = [_tenant(machine, sls, index) for index in range(2)]
    for tenant in tenants:
        sls.checkpoint(tenant.group, name="v1", sync=True)
    return Run(machine, sls, tenants=tenants)


def run_fleet(run: Run) -> None:
    """A third tenant arrives (``admit``), the loop runs several
    periods of EDF dispatches (``dispatch``), and an absurd measured
    demand makes the backpressure check stretch tenant 0 (``widen``)."""
    run.tenants.append(_tenant(run.machine, run.sls, 2))
    run.tenants[0].group.demand_bytes_per_ckpt = 1 << 40
    for step in range(1, STEPS + 1):
        for tenant in run.tenants:
            _stamp(tenant.proc, tenant.addr, step)
        run.machine.run_for(STEP_MS * MSEC)


# -- where V2 becomes durable ------------------------------------------------


def superblock_flips(entries: List[Entry]) -> List[int]:
    """The ``io`` indices that write a superblock slot.  A checkpoint
    has one, the commit flip, whether or not its commit also
    garbage-collects."""
    return [index for index, (offset, _) in enumerate(entries)
            if offset in SUPERBLOCK_SLOTS]


def commit_flip(entries: List[Entry]) -> Optional[int]:
    """A crash after the commit's superblock write restores ``V2``."""
    flips = superblock_flips(entries)
    return flips[0] if flips else None


def quorum_flip(entries: List[Entry]) -> Optional[int]:
    """The write-quorum-th ``apply``: it is logged after the W-th
    node's media commit, so a crash at it or later recovers ``V2``."""
    applies = [index for index, (_, name) in enumerate(entries)
               if name == B_APPLY]
    return applies[WRITE_QUORUM - 1] if len(applies) >= WRITE_QUORUM \
        else None


# -- the schedule and one point's outcome ------------------------------------


class Schedule:
    """The probed action's boundary log, split by domain, and the flip
    of the swept domain: the index of the boundary that makes ``V2``
    durable (None when ``V2`` never becomes durable)."""

    def __init__(self, log: List[Tuple[str, Any, str]],
                 workload: "Workload"):
        self.domain = workload.domain
        self.by_domain: Dict[str, List[Entry]] = {
            domain: [(who, name) for seen, who, name in log
                     if seen == domain] for domain in DOMAINS}
        self.flip = workload.flip(self.by_domain[workload.domain])

    def entries(self, domain: str) -> List[Entry]:
        return self.by_domain[domain]

    def points(self, domain: str) -> List[Point]:
        """Every crash point of ``domain``, in order."""
        return [(domain, index)
                for index in range(len(self.by_domain[domain]))]

    def __repr__(self) -> str:
        counts = ", ".join(f"{len(entries)} {domain}"
                           for domain, entries in self.by_domain.items())
        return f"Schedule({counts}, flip@{self.domain}{self.flip})"


class Outcome:
    """What one crash point recovered, against the oracle: ``ok`` is
    ``restored == expected`` unless the oracle checks more."""

    def __init__(self, point: Point, entry: Entry, restored: Any,
                 expected: Any, ok: Optional[bool] = None,
                 tenant: Optional[int] = None):
        self.point = point
        self.entry = entry
        self.restored = restored
        self.expected = expected
        self.ok = restored == expected if ok is None else ok
        #: The fleet tenant this outcome judges (None: the one app).
        self.tenant = tenant

    def __repr__(self) -> str:
        domain, index = self.point
        tenant = "" if self.tenant is None else f" tenant={self.tenant}"
        status = "ok" if self.ok else "MISMATCH"
        return (f"Outcome({domain}{index} {self.entry}{tenant} "
                f"restored={self.restored!r} expected={self.expected!r}, "
                f"{status})")


# -- the oracles --------------------------------------------------------------


def _durable(plan: FaultPlan, point: Point, schedule: Schedule,
             node: bool) -> bytes:
    """The last durable version at the instant the fault fired.  In an
    ``io`` sweep ``V2`` is durable iff the flip write was fully
    submitted by then, whatever domain the crash was armed in.  A
    ``repl`` crash fires once its boundary is logged, so at the flip
    or later; a ``stage`` crash in a ``repl`` sweep fires before any
    leg ships ``V2``.  After a node crash the action completed and
    the quorum held, so ``V2`` is always durable."""
    if node:
        return V2
    if schedule.flip is None:
        return V1
    if schedule.domain == IO:
        flipped = plan.events[0].io_index > schedule.flip
    else:
        domain, index = point
        flipped = domain == schedule.domain and index >= schedule.flip
    return V2 if flipped else V1


def _entry(schedule: Schedule, point: Point) -> Entry:
    domain, index = point
    return schedule.entries(domain)[index]


def restore_counter(run: Run, plan: FaultPlan, point: Point,
                    schedule: Schedule, node: bool,
                    v2_name: str = "v2") -> List[Outcome]:
    """Reboot, check the black box (``V2`` commits as ``v2_name``),
    restore: exactly the last durable version."""
    expected = _durable(plan, point, schedule, node)
    run.machine.boot()
    sls = load_aurora(run.machine)
    _check_blackbox(sls, point, expected, v2_name)
    result = sls.restore(run.gid, periodic=False)
    head = read_head(result.root, run.addr)
    _checkpoint_and_scrub(sls, [result.group], point)
    return [Outcome(point, _entry(schedule, point), head, expected)]


def _checkpoint_and_scrub(sls, groups, point: Point) -> None:
    """One more checkpoint of each restored group, then a scrub that
    must be clean: every allocated extent has an owner and no owned
    one is free — what the mount derived is what the owners leave."""
    for group in groups:
        sls.checkpoint(group, sync=True)
    store = sls.store
    assert store.alloc.unowned(store.owned_extents()) == [], point
    report = scrub(store, sls=sls)
    assert report.ok, f"{point}: {report.findings}"


def _check_blackbox(sls, point: Point, expected: bytes,
                    v2_name: str = "v2") -> None:
    """The recovered flight recorder must agree with the oracle:
    the persisted timeline ends at the checkpoint the durability
    oracle says survived, and the injected fault shows up in the
    merged (volatile-tail) timeline.  A trimming commit has one flip,
    so its black box is anchored as any commit's is."""
    box = flightrec.blackbox(sls.store, volatile=events.log())
    assert box is not None, \
        f"{point}: no flight recorder snapshot recovered"
    last = box.last_durable
    assert last is not None, \
        f"{point}: recovered timeline has no durable commit"
    expected_name = v2_name if expected == V2 else "v1"
    assert last["fields"].get("name") == expected_name, \
        (f"{point}: black box ends at "
         f"{last['fields'].get('name')!r}, oracle says "
         f"{expected_name!r} is the last durable commit")
    # Nothing persisted may postdate the durable commit the timeline
    # ends at.
    assert box.events[-1] is last, \
        f"{point}: persisted events continue past the durable commit"
    faults = [row for row in box.timeline()
              if row["kind"] == events.FAULT_INJECTED]
    assert faults, f"{point}: injected fault missing from black box"
    assert all(row.get("post_snapshot") for row in faults), \
        f"{point}: a crash fault event was persisted as durable"


def recover_cluster(run: Run, plan: FaultPlan, point: Point,
                    schedule: Schedule, node: bool) -> List[Outcome]:
    """Settle the cluster from replica media alone: exactly the last
    quorum-acked version, head and page 7 alike — a non-acked
    checkpoint is invisible, an acked one complete."""
    expected = _durable(plan, point, schedule, node)
    root = run.cluster.recover().result.root
    head = read_head(root, run.addr)
    page = root.vmspace.read(run.addr + 7 * PAGE_SIZE, len(V1) + 2)
    return [Outcome(point, _entry(schedule, point), head, expected,
                    ok=head == expected and page == expected + b":7")]


def restore_fleet(run: Run, plan: FaultPlan, point: Point,
                  schedule: Schedule, node: bool) -> List[Outcome]:
    """Per tenant: reboot + restore yields exactly its newest durable
    checkpoint, never older than a commit acked before the crash, and
    never a torn heap (every page carries one tag)."""
    acked: Dict[int, int] = {}
    for event in events.log().matching(kind=events.CKPT_COMMIT):
        group = event.fields["group"]
        acked[group] = max(acked.get(group, 0), event.fields["ckpt"])
    run.machine.boot()
    sls = load_aurora(run.machine)
    outcomes, restored = [], []
    for tenant in run.tenants:
        if tenant.gid not in sls.restorable_groups():
            # The third tenant's crash landed before its first durable
            # checkpoint: nothing to restore, nothing lost.
            assert tenant.gid not in acked
            continue
        durable = sls.store.find_latest_complete(tenant.gid).ckpt_id
        result = sls.restore(tenant.gid, periodic=False)
        restored.append(result.group)
        tags = {result.root.vmspace.read(tenant.addr + page * PAGE_SIZE, 10)
                for page in range(FLEET_NPAGES)}
        outcomes.append(Outcome(
            point, _entry(schedule, point), result.ckpt_id, durable,
            ok=(result.ckpt_id == durable
                and result.ckpt_id >= acked.get(tenant.gid, 0)
                and len(tags) == 1),
            tenant=tenant.gid))
    _checkpoint_and_scrub(sls, restored, point)
    return outcomes


# -- the workloads, as data ---------------------------------------------------


class Workload(NamedTuple):
    """One crash-schedule workload."""

    name: str
    #: A fresh machine at the pre-action state.
    boot: Callable[[], Run]
    #: The action whose boundaries are crash points.
    action: Callable[[Run], None]
    #: The domain it sweeps, and the boundary names the probe must
    #: find there.
    domain: str
    crosses: FrozenSet[str]
    #: Where in ``domain`` the action makes ``V2`` durable.
    flip: Callable[[List[Entry]], Optional[int]]
    #: ``(run, plan, point, schedule, node)`` of a crashed run: recover
    #: and judge, one :class:`Outcome` per restored app.
    oracle: Callable[..., List[Outcome]]


_WRITE = frozenset({"write"})
_QUORUM = frozenset({B_SHIP, B_DELIVER, B_APPLY, B_ACK, B_REPAIR})

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("counter", boot_counter, checkpoint_v2, IO, _WRITE,
             commit_flip, restore_counter),
    Workload("incremental", boot_incremental, checkpoint_v2, IO, _WRITE,
             commit_flip, restore_counter),
    Workload("gc", functools.partial(boot_counter, history_limit=1),
             checkpoint_v2, IO, _WRITE, commit_flip, restore_counter),
    Workload("gc2", boot_history, checkpoint_v2, IO, _WRITE, commit_flip,
             restore_counter),
    Workload("gc3", boot_chain, checkpoint_v2, IO, _WRITE, commit_flip,
             restore_counter),
    Workload("remount", boot_remount, checkpoint_v2, IO, _WRITE,
             commit_flip, restore_counter),
    Workload("cluster", boot_cluster, replicate_v2, REPL, _QUORUM,
             quorum_flip, recover_cluster),
    Workload("skewed", boot_cluster, replicate_v2_skewed, REPL, _QUORUM,
             quorum_flip, recover_cluster),
    Workload("cluster_trim", functools.partial(boot_cluster, history_limit=1),
             replicate_v2, REPL, _QUORUM, quorum_flip, recover_cluster),
    Workload("fenced", functools.partial(boot_cluster, down=None),
             fence_v2, REPL, frozenset({B_EPOCH, B_LEASE, B_RECONCILE}),
             quorum_flip, recover_cluster),
    Workload("pressure", boot_pressure, pressure_v2, IO, _WRITE,
             commit_flip, restore_pressure),
    Workload("fleet", boot_fleet, run_fleet, FLEET,
             frozenset({"admit", "dispatch", "widen"}),
             lambda entries: None, restore_fleet),
    Workload("atomic", boot_counter, memckpt_v2, IO, _WRITE, commit_flip,
             functools.partial(restore_counter, v2_name="memckpt")),
)}


# -- the explorer -------------------------------------------------------------


class Explorer:
    """Probes one workload's schedule and crashes it at any point."""

    def __init__(self, workload: Workload):
        self.workload = workload

    def _boot(self) -> Run:
        # Scope the (process-global) event ring to this run so the
        # snapshots it persists — and the recovered black box's
        # volatile tail — hold exactly this run's history.
        events.log().reset()
        return self.workload.boot()

    def _observe(self) -> List[Tuple[str, Any, str]]:
        run = self._boot()
        plan = FaultPlan(name=f"{self.workload.name}-probe")
        run.machine.set_fault_plan(plan)
        self.workload.action(run)
        return plan.log

    def probe(self) -> Schedule:
        """Discover the schedule and assert it is deterministic."""
        first = self._observe()
        assert first == self._observe(), \
            f"{self.workload.name}: the boundary log is not deterministic"
        schedule = Schedule(first, self.workload)
        names = {name for _, name in schedule.entries(self.workload.domain)}
        assert self.workload.crosses <= names, \
            f"{self.workload.name}: probe crossed only {sorted(names)}"
        return schedule

    def run_point(self, point: Point, schedule: Schedule,
                  node: bool = False) -> List[Outcome]:
        """Crash at ``point`` — with ``node``, the node at that ``repl``
        boundary instead of the primary — then recover and judge."""
        run = self._boot()
        plan = FaultPlan(name=f"{point[0]}{point[1]}")
        plan.crash_at(*point, node=node)
        run.machine.set_fault_plan(plan)
        try:
            self.workload.action(run)
        except InjectedCrash:
            assert not node, "a node crash must never escape the pump"
        assert plan.fired, f"{point}: scheduled crash never fired"
        domain, index = point
        # A primary power failure stops the action: an io crash fires
        # before its write is logged, a boundary crash once its
        # boundary is, and nothing of that domain is logged after it.
        assert node or plan.counts[domain] == index + (domain != IO), \
            f"{point}: the action ran on past the power failure"
        # Whatever already happened, the primary now loses power.
        run.machine.crash()
        return self.workload.oracle(run, plan, point, schedule, node)

    def sweep(self, points: List[Point], schedule: Schedule,
              node: bool = False) -> List[Outcome]:
        """Run every point; returns the outcomes (callers assert)."""
        return [outcome for point in points
                for outcome in self.run_point(point, schedule, node)]
