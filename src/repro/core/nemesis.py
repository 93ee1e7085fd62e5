"""Nemesis consistency harness: seeded partition campaigns against
the quorum cluster.

Each campaign builds a fresh 6-node/3-AZ cluster, drives a scripted
network-partition schedule (symmetric cuts, one-way drops, armed
mid-quorum installs, delay skew) through the cluster's delivery hooks,
heals, reconciles, and then checks two hard invariants against an
oracle of what was quorum-acknowledged:

* **No quorum-acked checkpoint is ever lost** — after the heal,
  recovery settles on exactly the oracle's last acknowledged
  checkpoint and restores byte-identical application state.
* **No fenced checkpoint is ever readable** — a checkpoint that only
  ever reached the minority side of a cut (or was written under a
  superseded epoch) appears on no node and can never be what recovery
  restores.

Campaigns are pure functions of their seed: the same seed replays the
same payloads, the same cut schedule, and the same verdict — which is
what lets CI pin three seeds and assert hard.  The ``sls nemesis`` CLI
fronts :func:`run_all`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import LeaseValid, QuorumLost
from ..machine import Machine
from ..units import MSEC, PAGE_SIZE
from .cluster import SLSCluster
from .faults import PRIMARY, REPL, FaultPlan
from .orchestrator import Orchestrator, load_aurora

#: Campaign fixture geometry (a real quorum: W=4, R=3 of 6).
NODES = 6
AZS = 3
SEGMENT_BYTES = 512


class CampaignResult:
    """One campaign's verdict: violations are invariant breaches."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.violations: List[str] = []
        self.details: Dict[str, Any] = {}

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "violations": list(self.violations),
            "details": dict(self.details),
        }

    def __repr__(self) -> str:
        verdict = "ok" if self.passed else "FAILED"
        return f"CampaignResult({self.name}@{self.seed}: {verdict})"


def reopen_fds(proc: Any, old_fds: List[int], payload: bytes) -> List[int]:
    """One round of object churn: open a pipe and — once ``old_fds``
    (the previous round's) are closed, freeing the port — a bound UDP
    socket, each holding ``payload``.  Returns the new fds."""
    kernel = proc.kernel
    rfd, wfd = kernel.pipe(proc)
    kernel.write(proc, wfd, payload)
    for fd in old_fds:
        kernel.close(proc, fd)
    sock_fd = kernel.udp_socket(proc)
    sock = kernel.sock_of(proc, sock_fd)
    sock.bind("10.0.0.1", 5353)
    sock.enqueue(("10.9.9.9", 1000), payload)
    return [rfd, wfd, sock_fd]


def fd_table_state(root: Any) -> bytes:
    """A process's fd table as the oracle compares it: each open fd,
    its object's type and what that object buffers."""
    fds = []
    for fd in root.fdtable.fds():
        fobj = root.fdtable.get(fd).fobj
        held = (bytes(fobj.buffer) if fobj.obj_type == "pipe" else
                [dgram.payload for dgram in fobj.rcvqueue])
        fds.append((fd, fobj.obj_type, held))
    return repr(fds).encode()


class NemesisFixture:
    """One primary with an attached service, its cluster, and an
    installed fault plan to carry the partition schedule."""

    def __init__(self, seed: int, churn: bool = False) -> None:
        self.seed = seed
        #: Object churn: every commit closes the bound UDP socket and
        #: the pipe the previous one opened and opens new ones, so the
        #: acknowledged state includes which objects are *gone*.
        self.churn = churn
        self.churn_fds: List[int] = []
        self.machine = Machine()
        self.sls: Orchestrator = load_aurora(self.machine)
        self.proc = self.machine.kernel.spawn("svc")
        self.addr = self.proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
        self.group = self.sls.attach(self.proc, name="svc",
                                     periodic=False)
        self.cluster = SLSCluster(self.sls, self.group, nodes=NODES,
                                  azs=AZS, segment_bytes=SEGMENT_BYTES)
        self.plan = FaultPlan(name=f"nemesis-{seed}", seed=seed)
        self.machine.set_fault_plan(self.plan)

    def commit(self, tag: str) -> Tuple[int, bytes]:
        """Write a seed-derived payload and sync-checkpoint it;
        returns ``(primary ckpt id, expected state bytes)``."""
        payload = (f"{tag}:{self.seed}".encode() * 7)[:96]
        if self.churn:
            self.churn_fds = reopen_fds(self.proc, self.churn_fds, payload)
        self.proc.vmspace.write(self.addr, payload)
        self.proc.vmspace.write(self.addr + 3 * PAGE_SIZE,
                                tag.encode() + b":" + payload)
        result = self.sls.checkpoint(self.group, name=tag, sync=True)
        return int(result.info.ckpt_id), self.read(self.proc)

    def read(self, root: Any) -> bytes:
        return (root.vmspace.read(self.addr, 96) + b"|"
                + root.vmspace.read(self.addr + 3 * PAGE_SIZE, 100)
                + b"|" + fd_table_state(root))

    def reinstall_plan(self) -> None:
        """A machine crash clears the fault plan; campaigns that keep
        partitioning after the primary dies re-install it."""
        self.machine.set_fault_plan(self.plan)


def _check_recovery(fx: NemesisFixture, result: CampaignResult,
                    expect_durable: int, expect_state: bytes,
                    fenced: List[int]) -> None:
    """The two hard invariants, checked by full recovery."""
    for node in fx.cluster.nodes:
        for ckpt in fenced:
            if ckpt in node.applied:
                result.violations.append(
                    f"fenced checkpoint {ckpt} readable on node "
                    f"{node.node_id}")
    if fx.machine.kernel is not None:
        fx.machine.crash()
    try:
        recovery = fx.cluster.recover()
    except Exception as exc:  # noqa: BLE001 - verdict, not control flow
        result.violations.append(
            f"recovery failed after heal: {type(exc).__name__}: {exc}")
        return
    result.details["recovered_durable"] = recovery.durable
    if recovery.durable != expect_durable:
        result.violations.append(
            f"recovery settled on checkpoint {recovery.durable}, "
            f"oracle's last quorum-acked is {expect_durable}")
    if recovery.durable in fenced:
        result.violations.append(
            f"recovery restored fenced checkpoint {recovery.durable}")
    got = fx.read(recovery.result.root)
    if got != expect_state:
        result.violations.append(
            "recovered state diverges from the oracle's last "
            "quorum-acked state")


def _campaign_majority_away(seed: int, name: str = "majority-away",
                            churn: bool = False) -> CampaignResult:
    """Partition the write-quorum majority away from the primary: the
    watermark must stall, and the heal must deliver everything."""
    result = CampaignResult(name, seed)
    fx = NemesisFixture(seed, churn=churn)
    v1, _ = fx.commit("v1")
    assert fx.cluster.pump() == v1
    fx.plan.partition([PRIMARY], [2, 3, 4, 5])
    v2, state2 = fx.commit("v2")
    durable = fx.cluster.pump()
    result.details["stalled_at"] = durable
    if durable != v1:
        result.violations.append(
            f"watermark advanced to {durable} with only a minority "
            f"reachable")
    stall = fx.cluster.stall_reason()
    result.details["stall_reason"] = stall
    if stall is None:
        result.violations.append("no stall reason while quorum-stalled")
    fx.plan.heal()
    if fx.cluster.pump() != v2:
        result.violations.append(
            "heal did not let the stalled checkpoint reach quorum")
    _check_recovery(fx, result, v2, state2, fenced=[])
    return result


def _campaign_primary_isolated(seed: int) -> CampaignResult:
    """One-way isolate the primary (nothing returns to it): lease
    expires, failover fences the old epoch, the ex-primary's divergent
    tail is fenced and reconciled away."""
    result = CampaignResult("primary-isolated", seed)
    fx = NemesisFixture(seed)
    v1, state1 = fx.commit("v1")
    assert fx.cluster.pump() == v1
    # Every node→primary direction drops: deltas still land on node
    # media, but no ack (and no lease grant) ever returns.
    fx.plan.asym_partition(list(range(NODES)), [PRIMARY])
    v2, _ = fx.commit("v2")
    if fx.cluster.pump() != v1:
        result.violations.append(
            "watermark advanced although no acknowledgement could "
            "return to the primary")
    # The incumbent is alive and (briefly) holds a valid lease:
    # failover must refuse until the lease runs out.
    premature: Optional[str] = None
    if fx.machine.clock.now() < fx.cluster.lease_until:
        try:
            fx.cluster.failover()
            premature = "failover succeeded under a live lease"
        except LeaseValid:
            pass
        if premature:
            result.violations.append(premature)
    fx.machine.clock.advance(2 * fx.cluster.lease_ns)
    fx.cluster.pump()  # lease expiry fires here (B_LEASE boundary)
    fx.cluster.failover()
    result.details["epoch_bumps"] = fx.cluster.stats["epoch_bumps"]
    # The still-isolated ex-primary keeps committing; on heal its next
    # ship must be fenced, not applied.
    v3, _ = fx.commit("v3")
    fx.cluster.pump()
    fenced_writes = fx.cluster.stats["fenced_writes"]
    result.details["fenced_writes"] = fenced_writes
    if fenced_writes == 0:
        result.violations.append(
            "displaced primary's writes were never fenced")
    if not fx.cluster.fenced:
        result.violations.append(
            "displaced primary did not drain into stale-primary mode")
    fx.plan.heal()
    report = fx.cluster.reconcile()
    result.details["reconcile"] = {
        "fenced": report["fenced"],
        "reconcile_bytes": report["reconcile_bytes"],
    }
    _check_recovery(fx, result, v1, state1, fenced=[v2, v3])
    return result


def _campaign_ack_path_cut(seed: int) -> CampaignResult:
    """Arm a partial cut of the ack directions mid-quorum: copies land
    on media but earn no credit until the heal re-registers them."""
    result = CampaignResult("ack-path-cut", seed)
    fx = NemesisFixture(seed)
    v1, _ = fx.commit("v1")
    assert fx.cluster.pump() == v1
    # Install once the second node of the next pump has applied (its
    # six ships come first, then each leg's deliver and apply): acks
    # from nodes 2..5 then drop, leaving 2 < W credits.
    arm_at = fx.plan.counts[REPL] + NODES + 3
    fx.plan.partial_partition([(n, PRIMARY) for n in (2, 3, 4, 5)],
                              at_repl=arm_at)
    v2, state2 = fx.commit("v2")
    durable = fx.cluster.pump()
    result.details["stalled_at"] = durable
    if durable != v1:
        result.violations.append(
            "watermark advanced on acks that never crossed the cut")
    on_media = sum(1 for node in fx.cluster.nodes
                   if v2 in node.applied)
    result.details["copies_on_media"] = on_media
    if on_media < fx.cluster.write_quorum:
        result.violations.append(
            f"only {on_media} copies landed; the ship direction was "
            f"never cut")
    fx.plan.heal()
    if fx.cluster.pump() != v2:
        result.violations.append(
            "heal did not re-register the on-media copies")
    _check_recovery(fx, result, v2, state2, fenced=[])
    return result


def _campaign_partition_during_failover(seed: int) -> CampaignResult:
    """Partition the candidate's side below W during failover: the
    epoch bump must refuse, and nothing may change until the heal."""
    result = CampaignResult("partition-during-failover", seed)
    fx = NemesisFixture(seed)
    v1, state1 = fx.commit("v1")
    assert fx.cluster.pump() == v1
    fx.machine.crash()  # the primary dies outright
    fx.reinstall_plan()
    fx.plan.partition([0, 1], [2, 3, 4, 5])
    try:
        fx.cluster.failover()
        result.violations.append(
            "failover won an epoch bump without a write quorum")
    except QuorumLost:
        pass
    promised = max(node.promised_epoch for node in fx.cluster.nodes)
    if promised > 1:
        result.violations.append(
            f"a failed epoch bump left a durable promise ({promised})")
    fx.plan.heal()
    fx.cluster.failover()
    result.details["epoch_bumps"] = fx.cluster.stats["epoch_bumps"]
    if max(node.promised_epoch for node in fx.cluster.nodes) < 2:
        result.violations.append(
            "post-heal failover did not durably bump the epoch")
    _check_recovery(fx, result, v1, state1, fenced=[])
    return result


def _campaign_asym_flap_repair(seed: int) -> CampaignResult:
    """Flap one-way cuts and delay skew across repair: donor fallback
    must route around unreachable holders and still converge."""
    result = CampaignResult("asym-flap-repair", seed)
    fx = NemesisFixture(seed)
    v1, _ = fx.commit("v1")
    v2, state2 = fx.commit("v2")
    assert fx.cluster.pump() == v2
    # A blank replacement node takes over slot 5.
    wiped = fx.cluster.nodes[5]
    wiped.wipe()
    for acks in fx.cluster.acks.values():
        acks.discard(5)
    # Donors 0 and 1 cannot reach the target; donor 2 is slow.
    fx.plan.asym_partition([0, 1], [5])
    fx.plan.delay_link(2, 5, 2 * MSEC)
    report = fx.cluster.repair()
    result.details["repair"] = {
        "checkpoints": report["checkpoints"],
        "segments": report["segments"],
        "skipped": report["skipped"],
    }
    if report["checkpoints"] != 2:
        result.violations.append(
            f"repair rebuilt {report['checkpoints']} checkpoints "
            f"through the flap, expected 2")
    fx.plan.heal()
    audit = fx.cluster.verify()
    if not audit["fully_replicated"]:
        result.violations.append(
            "cluster not fully replicated after repair + heal")
    _check_recovery(fx, result, v2, state2, fenced=[])
    return result


def _campaign_fd_churn(seed: int) -> CampaignResult:
    """The majority-away script under object churn: what recovery
    restores must equal the last acknowledged state *including the fd
    table* — a closed socket stays closed, its port free to rebind."""
    return _campaign_majority_away(seed, name="fd-churn", churn=True)


#: Campaign registry, in documentation order.
CAMPAIGNS: Dict[str, Callable[[int], CampaignResult]] = {
    "majority-away": _campaign_majority_away,
    "primary-isolated": _campaign_primary_isolated,
    "ack-path-cut": _campaign_ack_path_cut,
    "partition-during-failover": _campaign_partition_during_failover,
    "asym-flap-repair": _campaign_asym_flap_repair,
    "fd-churn": _campaign_fd_churn,
}


def run_campaign(name: str, seed: int) -> CampaignResult:
    """Run one named campaign at one seed."""
    try:
        campaign = CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign {name!r} (have: "
            f"{', '.join(sorted(CAMPAIGNS))})") from None
    return campaign(seed)


def run_all(seed: int,
            names: Optional[List[str]] = None) -> List[CampaignResult]:
    """Run every campaign (or the named subset) at one seed."""
    return [run_campaign(name, seed)
            for name in (names or list(CAMPAIGNS))]
