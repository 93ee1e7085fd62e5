"""Quorum-replicated SLS cluster: N segment copies across simulated
availability zones.

The one replication engine (Table 2: ``sls send`` "can ... continually
feed incremental checkpoints to a remote host, ... or provide high
availability"), in the cloud-Aurora shape (SNIPPETS.md snippets 2–3):
every committed checkpoint delta is sharded into segments
(:mod:`repro.core.segments`) and shipped to ``N`` replica nodes spread
round-robin over ``azs`` availability zones.  It is *durable* once a
**write quorum** (``W = ⌊N/2⌋ + 1``, 4 of 6) holds it on media.
Recovery needs only a **read quorum** (``R = N − W + 1``, 3 of 6):
``W + R > N`` makes every read quorum meet every write quorum.  The
single standby is the ``N = W = R = 1`` cluster.

Shipping (:mod:`repro.core.shipping`) sends a delta to every node at
once, each leg on its own link queue, so a checkpoint is durable at the
W-th of N concurrent leg completions: fault-free, one serialization
plus one leg (``S + NET_RTT/2 + transfer_time(B)``), whatever N is.
This module keeps membership, recovery, repair and reconcile, and
their ``repl`` boundaries of
:meth:`~repro.core.faults.FaultPlan.on_boundary` (beside
shipping's ``ship``/``deliver``/``apply``/``ack``):

* ``repair``  — one segment was rebuilt onto a repair target.
* ``epoch``   — one voter durably promised a bumped membership epoch.
* ``lease``   — the primary's lease expired unrenewed.
* ``reconcile`` — the anti-entropy exchange settled one node.

Partition tolerance rests on three pieces.  **Epoch fencing**: every
shipped manifest is stamped with the primary's membership epoch;
:meth:`SLSCluster.promote` first wins a quorum epoch bump
(:meth:`SLSCluster.bump_epoch`) recorded durably in each voter's
store superblock, after which replicas fence (``FENCED_WRITE``) any
delta from the displaced epoch.  **Leased primaryship**: the pump
renews a sim-clock lease whenever a write quorum answers its pings;
:meth:`SLSCluster.failover` refuses while the incumbent is alive and
the lease unexpired, and a fenced ex-primary drains into the
``STALE_PRIMARY`` degraded mode instead of diverging.  **Anti-entropy
reconciliation** (:meth:`SLSCluster.reconcile`): on heal, a
merkle-style digest exchange (:class:`~repro.core.segments.DigestTree`)
fence-truncates superseded minority tails and feeds repair exactly
the segments that differ.

Durability is defined by *media*, not bookkeeping.  Recovery
(:meth:`SLSCluster.recover`) counts complete copies, picks the newest
checkpoint whose copy count proves a write quorum, truncates every
replica's non-quorum tail (the Aurora-style discard of writes that
never reached quorum) and restores from any holder; failover refuses
a node that trails the watermark (:class:`~repro.errors.StaleReplica`).
Repair (:meth:`SLSCluster.repair`) rebuilds targets concurrently, each
target's segments streaming from the holders in turn, and per-segment
MTTR — what actually bounds durability — feeds the SLO tracker.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..errors import ClusterError, LeaseValid, LinkDown, QuorumLost, \
    SLSError, StaleEpoch, StaleReplica
from ..machine import Machine
from ..units import MSEC, USEC, fmt_size
from . import events, faults, migration, telemetry, tracing
from .faults import InjectedNodeCrash
from .group import ConsistencyGroup
from .orchestrator import Orchestrator, load_aurora
from .resilience import REASON_STALE_PRIMARY, PeerHealth, RetryPolicy
from .restore import RestoreResult
from .segments import (DEFAULT_SEGMENT_BYTES, DigestTree, ShardManifest,
                       assemble)
from .shipping import Shards, Shipping, leg_labels

#: What a node holds (:meth:`ClusterNode.held`).
Held = Tuple[Dict[int, int], Dict[int, int], Dict[int, Shards]]

#: This module's ``repl`` boundary names (see above).
B_REPAIR = "repair"
B_EPOCH = "epoch"
B_LEASE = "lease"
B_RECONCILE = "reconcile"

#: Replica-checkpoint name: ``repl-<primary ckpt id>``, plus
#: ``@e<epoch>`` when accepted under an epoch — checkpoint names are the
#: one piece of metadata that survives a node reboot.
REPL_NAME = re.compile(r"repl-(\d+)(?:@e(\d+))?")

#: Fixed per-segment rebuild overhead (scheduling + media write) on
#: top of the wire time.
SEGMENT_REBUILD_COST_NS = 50 * USEC

#: Primaryship lease: renewed only while a write quorum answers the
#: pump's pings; once it expires, failover needs no forcing.
LEASE_NS = 50 * MSEC

#: Size of one epoch-bump control message (request or grant).
EPOCH_MSG_BYTES = 128


class ClusterNode:
    """One replica node: its own machine and store, plus the primary's
    book on the leg to it (retry policy, peer health, outage and ship
    counts), which outlives crashes and wipes.  What the node holds is
    its store's catalog alone (:meth:`held`)."""

    def __init__(self, node_id: int, az: int, group_id: int, clock: Any):
        self.node_id = node_id
        self.az = az
        self.group_id = group_id
        self.machine = Machine()
        self.sls: Orchestrator = load_aurora(self.machine)
        self.down = False
        # A per-node seed keeps backoff jitter independent across legs;
        # the policy is never rebuilt, so its jitter stream carries on.
        self.retry = RetryPolicy(clock,
                                 seed=0x11A6 ^ group_id ^ (node_id << 8),
                                 op=f"cluster.ship.n{node_id}")
        #: The pump's view of the leg (only ``node_up`` resets it).
        self.health = PeerHealth()
        #: Sim-instant the leg's current outage began (None = healthy).
        self.down_since: Optional[int] = None
        self.stats = {"streams": 0, "bytes": 0, "outages": 0}
        self._held_at: Tuple[Any, int] = (None, -1)
        self._held: Held = ({}, {}, {})

    def held(self) -> Held:
        """Per primary checkpoint the node holds: its local id and the
        epoch it was accepted under, parsed from the store's ``repl-``
        names once per flip, and its volatile shards (a new store starts
        them empty; repair re-serializes what is missing).  All empty
        while the node is down."""
        if self.down:
            return {}, {}, {}
        store = self.sls.store
        if self._held_at != (store, store.generation):
            old = self._held if self._held_at[0] is store else ({}, {}, {})
            # A name is parsed once per store: the last view has the rest.
            seen = {local: ckpt for ckpt, local in old[0].items()}
            applied: Dict[int, int] = {}
            epochs: Dict[int, int] = {}
            for info in store.checkpoints_for(self.group_id):
                if (ckpt := seen.get(info.ckpt_id)) is not None:
                    applied[ckpt], epochs[ckpt] = info.ckpt_id, old[1][ckpt]
                elif (match := REPL_NAME.fullmatch(info.name)) is not None:
                    applied[int(match[1])] = info.ckpt_id
                    epochs[int(match[1])] = int(match[2] or 0)
            # A cached delta whose base was trimmed is not the node's own.
            shards = {c: s for c, s in old[2].items() if c in applied
                      and (s[0].base is None or s[0].base in applied)}
            self._held = (applied, epochs, shards)
            self._held_at = (store, store.generation)
        return self._held

    # Read-only views of :meth:`held`.
    applied = property(lambda self: self.held()[0])
    applied_epoch = property(lambda self: self.held()[1])
    shards = property(lambda self: self.held()[2])

    @property
    def applied_max(self) -> Optional[int]:
        """Newest primary checkpoint this node holds (None = none)."""
        return max(self.applied, default=None)

    @property
    def promised_epoch(self) -> int:
        """The membership epoch this node's store durably promised."""
        return int(self.sls.store.cluster_epoch)

    def apply(self, primary_ckpt: int, stream: bytes, epoch: int = 0,
              keep: Optional[int] = None) -> int:
        """Commit one delta stream to this node's media, named for the
        primary checkpoint and the epoch it was accepted under; with
        ``keep``, the same flip trims the node to its ``keep`` newest."""
        name = f"repl-{primary_ckpt}" + (f"@e{epoch}" if epoch else "")
        return migration.recv_checkpoint(self.sls, stream, name=name,
                                         keep=keep)

    def crash(self) -> None:
        """Power failure: volatile caches die, media survives."""
        if not self.down:
            self.machine.crash()
            self.down = True

    def reboot(self) -> None:
        """Bring the node back with what its store recovers."""
        if self.down:
            self.machine.boot()
            self.sls = load_aurora(self.machine)
            self.down = False

    def wipe(self) -> None:
        """Total loss of the node's media: a blank replacement node
        takes over the slot (repair must rebuild everything)."""
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        self.down = False

    def truncate_from(self, floor: int) -> List[int]:
        """Discard every local checkpoint at or above ``floor``, newest
        first (only childless ones truncate); returns their ids."""
        doomed = sorted((c for c in self.applied if c >= floor), reverse=True)
        for primary_ckpt in doomed:
            self.sls.store.truncate_checkpoint(self.applied[primary_ckpt])
        return doomed

    def __repr__(self) -> str:
        state = "down" if self.down else f"applied<={self.applied_max}"
        return f"ClusterNode(#{self.node_id} az{self.az} {state})"


class ClusterRecovery(NamedTuple):
    """What :meth:`SLSCluster.recover` established."""

    #: The quorum-durable primary checkpoint recovery settled on.
    durable: int
    donor: ClusterNode
    result: RestoreResult
    #: ``(node_id, primary_ckpt)`` pairs discarded as non-quorum tail.
    truncated: List[Tuple[int, int]]
    available: int


class ReconcilePlan:
    """What :meth:`SLSCluster.reconcile` feeds repair: per ``(node_id,
    primary_ckpt)`` the digest-matched segments already local, plus the
    accounting of what the heal moved."""

    def __init__(self) -> None:
        self.local: Dict[Tuple[int, int], Dict[int, bytes]] = {}
        self.wire_bytes = 0
        self.wire_segments = 0
        self.local_segments = 0


class SLSCluster(Shipping):
    """The cluster control plane: quorum replication, recovery,
    failover and segment repair for one consistency group."""

    def __init__(self, primary: Orchestrator, group: ConsistencyGroup,
                 nodes: int = 6, azs: int = 3,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        if nodes < 1:
            raise ClusterError(f"a cluster needs nodes, got {nodes}")
        if azs < 1 or azs > nodes:
            raise ClusterError(f"bad AZ count {azs} for {nodes} nodes")
        self.primary = primary
        self.group = group
        self.gid = group.group_id
        self.n = nodes
        self.azs = azs
        #: W + R = N + 1: every read quorum meets every write quorum.
        self.write_quorum = nodes // 2 + 1
        self.read_quorum = nodes - self.write_quorum + 1
        self.segment_bytes = segment_bytes
        self.nodes: List[ClusterNode] = [
            ClusterNode(i, az=i % azs, group_id=self.gid,
                        clock=primary.machine.clock)
            for i in range(nodes)]
        Shipping.__init__(self)
        self.stats: Dict[str, int] = {
            "pumps": 0, "acks": 0, "failovers": 0,
            "segments_repaired": 0, "ckpts_replicated": 0,
            "fenced_writes": 0, "epoch_bumps": 0, "reconciles": 0,
            "forced_promotes": 0}
        #: Membership epoch this handle ships under.  A successful
        #: :meth:`promote` bumps the *nodes'* promised epochs past it, so
        #: a partitioned ex-primary fences itself on its next contact.
        self.epoch = 1
        self.lease_ns = LEASE_NS
        self.lease_until = primary.machine.clock.now() + LEASE_NS
        self._lease_lost = False
        #: A fenced primary drains: it stops pumping and acking
        #: (``STALE_PRIMARY`` degraded mode) instead of diverging.
        self.fenced = False
        self._installed = False
        self._pumping = False
        self._timer: Any = None

    # -- plumbing ----------------------------------------------------------

    def _node_shards(self, node: ClusterNode, ckpt: int) -> Shards:
        """One node's shard set for a checkpoint it holds: its volatile
        cache, refilled from its store when that died with the node."""
        cached = node.shards.get(ckpt)
        if cached is None:
            cached = node.shards[ckpt] = self._shard_delta(
                node.sls, node.applied[ckpt], ckpt,
                max((c for c in node.applied if c < ckpt), default=None))
        return cached

    def up_nodes(self) -> List[ClusterNode]:
        return [node for node in self.nodes if not node.down]

    # -- the quorum pump ---------------------------------------------------

    def pump(self) -> Optional[int]:
        """Renew the lease, then replicate every committed checkpoint
        to every reachable node that lacks it, all legs at once
        (:mod:`repro.core.shipping`).  Returns the durable watermark
        once every leg has landed or failed.  A node crash injected at
        a boundary downs that node and the other legs carry on; an
        injected *primary* crash propagates to the harness."""
        if self._pumping or self.fenced:
            return self.durable
        self._pumping = True
        try:
            self.stats["pumps"] += 1
            self._renew_lease()
            if not self.fenced:
                self._replicate()
        except StaleEpoch as exc:
            # The membership moved on without us: drain, don't diverge.
            self._fence(exc.epoch)
        finally:
            self._pumping = False
        return self.durable

    def _renew_lease(self) -> None:
        """One lease round: ping every up node both ways; a write
        quorum of grants renews the lease, and any node promising a
        newer epoch fences this handle on the spot.  Pings charge no
        wire time and cross no replication boundaries."""
        plan = self._plan()
        clock = self._clock()
        grants = 0
        highest = self.epoch
        for node in self.up_nodes():
            if plan is not None:
                try:
                    plan.on_deliver(faults.PRIMARY, node.node_id)
                    plan.on_deliver(node.node_id, faults.PRIMARY)
                except LinkDown:
                    continue
            promised = node.promised_epoch
            if promised > self.epoch:
                highest = max(highest, promised)
                continue
            grants += 1
        if highest > self.epoch:
            self._fence(highest)
            return
        now = clock.now()
        if grants >= self.write_quorum:
            if self._lease_lost:
                self._lease_lost = False
                events.emit(now, events.LEASE_RENEW, group=self.gid,
                            epoch=self.epoch, grants=grants)
            self.lease_until = now + self.lease_ns
        elif now > self.lease_until and not self._lease_lost:
            self._lease_lost = True
            events.emit(now, events.LEASE_EXPIRE, group=self.gid,
                        epoch=self.epoch, grants=grants,
                        needed=self.write_quorum)
            if plan is not None:
                plan.on_boundary(faults.REPL, faults.PRIMARY, B_LEASE)

    def _fence(self, promised: int) -> None:
        """This handle's epoch has been superseded: drain into the
        ``STALE_PRIMARY`` degraded mode — stop pumping and acking,
        enter group-health degradation — rather than diverge."""
        if self.fenced:
            return
        self.fenced = True
        now = self._clock().now()
        events.emit(now, events.STALE_PRIMARY, group=self.gid,
                    epoch=self.epoch, promised=promised,
                    durable=self.durable)
        self.group.health.enter(REASON_STALE_PRIMARY, now)
        self.primary.slo.on_degraded_enter(self.gid, now)
        self.stop()

    # -- continuous operation ---------------------------------------------

    def install(self) -> None:
        """Pump automatically: after every sync commit (commit hook)
        and on the checkpoint cadence for async ones (timer)."""
        if self._installed:
            return
        self._installed = True
        self.primary.commit_hooks.append(self._on_commit)
        loop = self.primary.machine.loop

        def pump_tick() -> None:
            if not self._installed or not self.group.attached:
                return
            self.pump()
            self._timer = loop.call_after(self.group.period_ns,
                                          pump_tick)

        self._timer = loop.call_after(
            self.group.period_ns + self.group.period_ns // 2, pump_tick)

    def _on_commit(self, group: ConsistencyGroup, info: Any) -> None:
        if group.group_id == self.gid:
            self.pump()

    def stop(self) -> None:
        """Cease pumping (nodes keep what they have)."""
        self._installed = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._on_commit in self.primary.commit_hooks:
            self.primary.commit_hooks.remove(self._on_commit)

    # -- membership / outages ----------------------------------------------

    def node_down(self, node_id: int, reason: str = "operator") -> None:
        """Power-fail one node (its media survives for a reboot)."""
        node = self.nodes[node_id]
        if node.down:
            return
        node.crash()
        events.emit(self._clock().now(), events.NODE_DOWN,
                    group=self.gid, node=node_id, az=node.az,
                    reason=reason)

    def node_up(self, node_id: int) -> None:
        """Reboot one node with what its media held and a clean
        peer-health record (:meth:`recover`'s reboots keep theirs)."""
        node = self.nodes[node_id]
        if not node.down:
            return
        node.reboot()
        node.health = PeerHealth()
        events.emit(self._clock().now(), events.NODE_UP,
                    group=self.gid, node=node_id, az=node.az,
                    applied=node.applied_max)

    def az_down(self, az: int, reason: str = "az-outage") -> List[int]:
        """Power-fail every node in one availability zone."""
        downed = [node.node_id for node in self.nodes
                  if node.az == az and not node.down]
        for node_id in downed:
            self.node_down(node_id, reason=reason)
        return downed

    def az_up(self, az: int) -> List[int]:
        """Reboot every node in one availability zone."""
        raised = [node.node_id for node in self.nodes
                  if node.az == az and node.down]
        for node_id in raised:
            self.node_up(node_id)
        return raised

    # -- recovery ----------------------------------------------------------

    def recover(self, node_ids: Optional[List[int]] = None
                ) -> ClusterRecovery:
        """The primary is gone: settle the cluster on its
        quorum-durable state and restore the application from replica
        media.  ``node_ids`` limits recovery to a subset (any read
        quorum suffices); reachable down nodes reboot first.  Every
        replica's tail beyond the watermark is truncated — a checkpoint
        that never reached quorum is never partially visible."""
        available = (list(self.nodes) if node_ids is None
                     else [self.nodes[i] for i in node_ids])
        for node in available:
            node.reboot()
        if len(available) < self.read_quorum:
            raise QuorumLost(
                f"{len(available)} nodes reachable, read quorum is "
                f"{self.read_quorum}")
        # Copies are counted per (checkpoint, accepting epoch): the
        # same id under two epochs is two histories, and only the
        # variant that proves a quorum is authoritative.
        counts = Counter(held for node in available
                         for held in node.applied_epoch.items())
        # With k members unreachable a quorum-durable checkpoint shows
        # at least W - k copies (at least 1 for any read quorum); with
        # all visible this is "W copies on media", the crash oracle.
        missing = self.n - len(available)
        threshold = max(1, self.write_quorum - missing)
        auth: Dict[int, int] = {}
        for (ckpt, epoch), have in counts.items():
            if have >= threshold and epoch > auth.get(ckpt, -1):
                auth[ckpt] = epoch
        durable = max(auth, default=None)
        if durable is None:
            raise QuorumLost(
                f"no checkpoint reaches the quorum threshold "
                f"({threshold} of {len(available)} reachable copies)")
        truncated: List[Tuple[int, int]] = []
        for node in available:
            # Fence floor: the oldest local checkpoint beyond the
            # watermark or a divergent epoch variant of an authoritative
            # one (uncontested sub-threshold copies are kept).
            bad = [c for c, epoch in node.applied_epoch.items()
                   if c > durable or epoch != auth.get(c, epoch)]
            if bad:
                truncated += [(node.node_id, ckpt)
                              for ckpt in node.truncate_from(min(bad))]
        if truncated:
            events.emit(self._clock().now(), events.TAIL_TRUNCATE,
                        group=self.gid, ckpt=durable,
                        discarded=len(truncated))
        self.durable = durable
        donor = next(node for node in available
                     if durable in node.applied)
        result = donor.sls.restore(self.gid,
                                   ckpt_id=donor.applied[durable],
                                   periodic=False)
        return ClusterRecovery(durable, donor, result, truncated,
                               len(available))

    # -- epoch fencing / failover ------------------------------------------

    def bump_epoch(self, candidate: Optional[ClusterNode] = None
                   ) -> int:
        """Win a quorum epoch bump: every voter reachable from
        ``candidate`` (the node driving the bump) durably promises an
        epoch newer than any it has seen, so fencing survives crash +
        remount; :class:`~repro.errors.QuorumLost` below ``W`` voters.
        ``self.epoch`` stays: the handle keeps shipping under its old
        epoch, which is what makes a partitioned ex-primary fenceable.
        """
        clock = self._clock()
        plan = self._plan()
        started = clock.now()
        origin = (candidate.node_id if candidate is not None
                  else faults.PRIMARY)
        voters: List[ClusterNode] = []
        proposal = self.epoch
        for node in self.up_nodes():
            if plan is not None and node is not candidate:
                if plan.is_cut(origin, node.node_id) \
                        or plan.is_cut(node.node_id, origin):
                    continue
            proposal = max(proposal, node.promised_epoch)
            voters.append(node)
        proposal += 1
        if len(voters) < self.write_quorum:
            raise QuorumLost(
                f"epoch bump needs a write quorum of "
                f"{self.write_quorum} reachable voters, only "
                f"{len(voters)} reachable")
        for node in voters:
            # A message each way, then the voter's superblock flip.
            clock.advance(2 * node.machine.nic.transfer_time(
                EPOCH_MSG_BYTES))
            node.sls.store.promise_cluster_epoch(proposal)
            if plan is not None:
                plan.on_boundary(faults.REPL, node.node_id, B_EPOCH)
        self.stats["epoch_bumps"] += 1
        bump_ns = clock.now() - started
        events.emit(clock.now(), events.EPOCH_BUMP, group=self.gid,
                    epoch=proposal, grants=len(voters),
                    bump_ns=bump_ns)
        self.primary.slo.observe(self.gid, "epoch_bump", bump_ns)
        return proposal

    def failover(self, force: bool = False,
                 force_data_loss: bool = False) -> RestoreResult:
        """Promote the best-caught-up reachable node to primary.
        Needs a read quorum and a durable watermark, and refuses
        (:class:`~repro.errors.LeaseValid`) while the incumbent is
        alive and its lease unexpired: a partitioned-but-alive primary
        may still be acknowledging on its side of the cut."""
        up = self.up_nodes()
        if len(up) < self.read_quorum:
            raise QuorumLost(
                f"{len(up)} nodes up, read quorum is "
                f"{self.read_quorum}")
        if self.durable is None:
            raise SLSError("nothing was ever quorum-acknowledged")
        now = self._clock().now()
        incumbent_dead = self.primary.machine.kernel is None
        if (not force and not self.fenced and not incumbent_dead
                and now < self.lease_until):
            raise LeaseValid(
                f"primary lease valid for another "
                f"{self.lease_until - now}ns: a partitioned-but-alive "
                f"primary may still be acknowledging — wait for "
                f"expiry or force")
        candidate = max(
            up, key=lambda node: (node.applied_max is not None,
                                  node.applied_max or -1,
                                  -node.node_id))
        return self.promote(candidate.node_id, force=force,
                            force_data_loss=force_data_loss)

    def promote(self, node_id: int, force: bool = False,
                force_data_loss: bool = False) -> RestoreResult:
        """Promote one node after :meth:`bump_epoch` fences the old
        epoch.  A node without the watermark would roll back
        acknowledged state: :class:`~repro.errors.StaleReplica` unless
        *both* ``force`` and ``force_data_loss`` sign off on the loss
        (logged as ``FORCED_PROMOTE``).  The node's own non-quorum tail
        is truncated so the new history never forks from it."""
        node = self.nodes[node_id]
        if node.down:
            raise ClusterError(f"node {node_id} is down")
        durable = self.durable
        if durable is None:
            raise SLSError("nothing was ever quorum-acknowledged")
        forced_gap = 0
        if durable not in node.applied:
            if not force:
                raise StaleReplica(
                    f"node {node_id} applied up to {node.applied_max}, "
                    f"quorum watermark is {durable}: promoting it "
                    f"would roll back acknowledged state")
            target = node.applied_max
            if target is None:
                raise StaleReplica(
                    f"node {node_id} holds nothing to promote")
            if not force_data_loss:
                raise StaleReplica(
                    f"node {node_id} applied up to {target}, quorum "
                    f"watermark is {durable}: force alone will not "
                    f"discard {durable - target} acknowledged "
                    f"checkpoint(s) — pass force_data_loss to accept "
                    f"the loss")
            forced_gap = durable - target
            durable = target
        # No quorum of durable promises (QuorumLost): nothing changes.
        self.bump_epoch(candidate=node)
        if forced_gap:
            self.stats["forced_promotes"] += 1
            events.emit(self._clock().now(), events.FORCED_PROMOTE,
                        group=self.gid, node=node_id, ckpt=durable,
                        watermark=self.durable, gap=forced_gap)
            self.durable = durable
        started = node.machine.clock.now()
        node.truncate_from(durable + 1)
        result = node.sls.restore(self.gid,
                                  ckpt_id=node.applied[durable],
                                  periodic=False)
        failover_ns = node.machine.clock.now() - started
        self.stats["failovers"] += 1
        events.emit(self._clock().now(), events.PROMOTE, group=self.gid,
                    node=node_id, ckpt=durable,
                    failover_ns=failover_ns)
        self.primary.slo.observe(self.gid, "failover", failover_ns)
        return result

    # -- repair ------------------------------------------------------------

    def repair(self, recon: Optional[ReconcilePlan] = None
               ) -> Dict[str, Any]:
        """Segment-parallel re-replication of every missing copy.
        Targets rebuild concurrently, each from the holders round-robin
        (a donor behind a cut is skipped; a segment no donor can serve
        defers the target to after a heal), so wall time is the slowest
        target's queue; per-segment MTTR feeds the
        ``repair.segment_mttr`` histogram and SLO budget.  ``recon``
        (from :meth:`reconcile`) supplies segments already local.
        Returns the repair report."""
        clock = self._clock()
        hist = telemetry.registry().histogram(
            "sls.cluster.repair.segment_mttr", group=self.gid)
        per_target_ns: Dict[int, int] = {}
        segments_done = 0
        ckpts_done = 0
        skipped = 0
        ckpts = sorted({ckpt for node in self.up_nodes()
                        for ckpt in node.applied})
        for ckpt in ckpts:
            holders = [node for node in self.up_nodes()
                       if ckpt in node.applied]
            if not holders:
                continue
            for target in list(self.up_nodes()):
                # What a target is past was trimmed there: not wanted.
                if ckpt in target.applied \
                        or ckpt < max(target.applied, default=-1):
                    continue
                shards = self._source(target, ckpt, holders)
                if shards is None:
                    continue
                local = (recon.local.get((target.node_id, ckpt))
                         if recon is not None else None)
                try:
                    elapsed, nsegs = self._repair_one(
                        target, ckpt, holders, shards,
                        per_target_ns.get(target.node_id, 0), hist,
                        local=local, recon=recon)
                except InjectedNodeCrash as exc:
                    self.node_down(exc.node, reason="fault")
                    continue
                except LinkDown:
                    skipped += 1
                    continue
                per_target_ns[target.node_id] = elapsed
                segments_done += nsegs
                ckpts_done += 1
                self._credit(target.node_id, ckpt)
        wall_ns = max(per_target_ns.values(), default=0)
        clock.advance(wall_ns)
        report = {
            "checkpoints": ckpts_done,
            "segments": segments_done,
            "targets": len(per_target_ns),
            "skipped": skipped,
            "wall_ns": wall_ns,
            "mttr_p50_ns": hist.percentile(50),
            "mttr_max_ns": hist.max,
        }
        self.stats["segments_repaired"] += segments_done
        events.emit(clock.now(), events.REPAIR_DONE, group=self.gid,
                    **report)
        return report

    def _source(self, target: ClusterNode, ckpt: int,
                holders: List[ClusterNode]) -> Optional[Shards]:
        """What rebuilds ``ckpt`` on ``target``: its delta (any holder's
        cache, else re-serialized) once ``target`` holds its base
        (repair walks oldest first), else the full stream of a holder
        that trimmed below it; None: not yet."""
        shards = next((h.shards[ckpt] for h in holders if ckpt in h.shards),
                      None) or self._node_shards(holders[0], ckpt)
        if shards[0].base is None or shards[0].base in target.applied:
            return shards
        roots = [h for h in holders
                 if h.sls.store.checkpoints[h.applied[ckpt]].parent is None]
        return self._node_shards(roots[0], ckpt) if roots else None

    def _repair_one(self, target: ClusterNode, ckpt: int,
                    holders: List[ClusterNode], shards: Shards,
                    queue_ns: int, hist: Any,
                    local: Optional[Dict[int, bytes]] = None,
                    recon: Optional[ReconcilePlan] = None
                    ) -> Tuple[int, int]:
        """Rebuild one checkpoint's segments onto one target (``local``:
        digest-matched segments already there); returns the target's
        queue time and the segment count."""
        plan = self._plan()
        manifest, payloads = shards
        labels = leg_labels(self.group, target.node_id, ckpt,
                             manifest.trace)
        registry = telemetry.registry()
        repair_start = self._clock().now()
        gathered: Dict[int, bytes] = {}
        elapsed = queue_ns
        with tracing.use(manifest.trace):
            for meta in manifest.segments:
                if plan is not None:
                    plan.on_boundary(faults.REPL, target.node_id, B_REPAIR)
                payload = (local or {}).get(meta.index)
                if payload is not None and len(payload) == meta.length:
                    # Digest-matched local copy: media write only.
                    wire_ns = 0
                    if recon is not None:
                        recon.local_segments += 1
                else:
                    donor, delay = self._donor(holders, target, meta.index)
                    payload = payloads[meta.index]
                    wire_ns = delay + target.machine.nic.transfer_time(
                        max(meta.length, 1))
                    self.account_transfer(donor.az, target.az, meta.length)
                    if recon is not None:
                        recon.wire_segments += 1
                        recon.wire_bytes += meta.length
                meta.verify(payload)
                gathered[meta.index] = payload
                elapsed += wire_ns + SEGMENT_REBUILD_COST_NS
                hist.observe(elapsed)
                self.primary.slo.observe(self.gid, "repair", elapsed)
            stream = assemble(manifest, gathered)
            epoch = max((h.applied_epoch[ckpt] for h in holders
                         if ckpt in h.applied), default=self.epoch)
            target.apply(ckpt, stream, epoch=epoch,
                         keep=self.keep_for(target, ckpt))
            registry.record_span("repl.repair", repair_start,
                                 self._clock().now(),
                                 segments=len(manifest.segments),
                                 **labels)
        target.shards[ckpt] = (manifest, payloads)
        events.emit(self._clock().now(), events.SEGMENT_REPAIRED,
                    group=self.gid, node=target.node_id, ckpt=ckpt,
                    segments=len(manifest.segments))
        return elapsed, len(manifest.segments)

    def _donor(self, holders: List[ClusterNode], target: ClusterNode,
               index: int) -> Tuple[ClusterNode, int]:
        """The first holder, round-robin from segment ``index``, that can
        reach ``target``, and its delivery skew; raises
        :class:`~repro.errors.LinkDown` when none can."""
        plan = self._plan()
        for shift in range(len(holders)):
            donor = holders[(index + shift) % len(holders)]
            try:
                return donor, (0 if plan is None else
                               plan.on_deliver(donor.node_id,
                                               target.node_id))
            except LinkDown:
                continue
        raise LinkDown(f"no donor for segment {index} reachable from "
                       f"node {target.node_id}")

    # -- anti-entropy reconciliation ---------------------------------------

    def _node_manifests(self, node: ClusterNode
                        ) -> Dict[int, ShardManifest]:
        """One node's manifests for all it holds (cached or derived)."""
        return {c: self._node_shards(node, c)[0] for c in node.applied}

    def reconcile(self) -> Dict[str, Any]:
        """Heal-time anti-entropy, three passes over the up nodes:
        fence-truncate superseded minority tails (a checkpoint accepted
        under an older epoch than another holder's, or than the
        cluster's beyond the watermark); diff each node's
        :class:`~repro.core.segments.DigestTree` against the canonical
        one, stashing intact segments of divergent checkpoints; then
        :meth:`repair` with the stash, so only differing bytes cross
        the wire.  Closes a ``STALE_PRIMARY`` degraded spell (the fenced
        flag stays).  Returns the repair report plus the reconciliation
        accounting."""
        clock = self._clock()
        plan = self._plan()
        up = self.up_nodes()
        if not up:
            raise QuorumLost("no nodes reachable to reconcile")
        started = clock.now()
        current = max(self.epoch, *(node.promised_epoch for node in up))
        durable = self.durable
        # Pass 1: fence-truncate superseded tails.  Authority per
        # checkpoint is the newest accepting epoch any up holder records.
        auth_epoch: Dict[int, int] = {}
        for node in up:
            for ckpt, epoch in node.applied_epoch.items():
                auth_epoch[ckpt] = max(auth_epoch.get(ckpt, 0), epoch)
        fenced: List[Tuple[int, int]] = []
        for node in up:
            bad = [c for c, epoch in node.applied_epoch.items()
                   if epoch < auth_epoch[c] or (epoch < current and (
                       durable is None or c > durable))]
            for ckpt in node.truncate_from(min(bad)) if bad else ():
                fenced.append((node.node_id, ckpt))
                self.acks.get(ckpt, set()).discard(node.node_id)
        # The fenced ex-primary's own store carries the same doomed
        # tail: drain it too.
        if self.fenced and durable is not None:
            chain = self.primary.store.checkpoints_for(self.gid)
            for info in reversed(chain):
                if info.ckpt_id <= durable:
                    break
                self.primary.store.truncate_checkpoint(info.ckpt_id)
                self._streams.pop(info.ckpt_id, None)
                fenced.append((faults.PRIMARY, info.ckpt_id))
        if fenced:
            events.emit(clock.now(), events.TAIL_TRUNCATE,
                        group=self.gid, ckpt=durable,
                        discarded=len(fenced), fenced=True)
        # Pass 2: digest exchange against the canonical history, each
        # checkpoint's manifest elected by majority root-digest vote
        # (a single corrupted holder must never become truth).
        surviving = sorted({c for node in up for c in node.applied})
        by_node: Dict[int, Dict[int, ShardManifest]] = {
            node.node_id: self._node_manifests(node) for node in up}
        trees = {node_id: DigestTree(manifests)
                 for node_id, manifests in by_node.items()}
        canonical_manifests: Dict[int, ShardManifest] = {}
        for ckpt in surviving:
            held = [(trees[node_id].roots[ckpt], manifests[ckpt])
                    for node_id, manifests in by_node.items()
                    if ckpt in manifests]
            votes = Counter(root for root, _ in held)
            best = max(sorted(votes), key=votes.__getitem__)
            canonical_manifests[ckpt] = next(
                manifest for root, manifest in held if root == best)
        canonical = DigestTree(canonical_manifests)
        recon = ReconcilePlan()
        divergent_truncated = 0
        for node in up:
            needed = trees[node.node_id].diff(canonical)
            divergent = [c for c in needed if c in node.applied]
            if divergent:
                # Bytes differ in place (e.g. media corruption): rebuild
                # from the divergent checkpoint up, stashing the
                # digest-matched segments first.
                floor = min(divergent)
                for ckpt in sorted(c for c in node.applied if c >= floor):
                    payloads = node.shards[ckpt][1]
                    differing = set(needed.get(ckpt, ()))
                    recon.local[(node.node_id, ckpt)] = {
                        index: payloads[index]
                        for index in canonical.leaves[ckpt]
                        if index not in differing}
                for ckpt in node.truncate_from(floor):
                    divergent_truncated += 1
                    self.acks.get(ckpt, set()).discard(node.node_id)
            if plan is not None:
                plan.on_boundary(faults.REPL, node.node_id, B_RECONCILE)
        # Pass 3: differential repair fills every gap the diff found.
        report = self.repair(recon=recon)
        self.stats["reconciles"] += 1
        reconcile_ns = clock.now() - started
        trace = (canonical_manifests[max(canonical_manifests)].trace
                 if canonical_manifests else None)
        with tracing.use(trace):
            labels: Dict[str, Any] = {"group": self.gid,
                                      "fenced": len(fenced),
                                      "bytes": recon.wire_bytes}
            if trace is not None:
                labels["tenant"] = self.group.name
            telemetry.registry().record_span(
                "repl.reconcile", started, clock.now(), **labels)
        events.emit(clock.now(), events.RECONCILE_DONE, group=self.gid,
                    epoch=current, fenced=len(fenced),
                    divergent=divergent_truncated,
                    wire_segments=recon.wire_segments,
                    local_segments=recon.local_segments,
                    bytes=recon.wire_bytes,
                    reconcile_ns=reconcile_ns)
        self.primary.slo.observe(self.gid, "reconcile", recon.wire_bytes)
        if self.fenced and self.group.health.degraded \
                and self.group.health.reason == REASON_STALE_PRIMARY:
            spell = self.group.health.exit(clock.now())
            self.primary.slo.on_degraded_exit(self.gid, clock.now())
            self.primary.slo.observe(self.gid, "stale_primary", spell)
        report.update({
            "fenced": len(fenced),
            "divergent": divergent_truncated,
            "wire_segments": recon.wire_segments,
            "local_segments": recon.local_segments,
            "reconcile_bytes": recon.wire_bytes,
            "reconcile_ns": reconcile_ns,
            "epoch": current,
        })
        return report

    # -- audit / reporting -------------------------------------------------

    def verify(self) -> Dict[str, Any]:
        """Full-replication and checksum audit over the up nodes."""
        up = self.up_nodes()
        copies = Counter(ckpt for node in up for ckpt in node.applied)
        fully = all(have == len(up) for have in copies.values())
        verified = 0
        for node in up:
            for ckpt, (manifest, payloads) in node.shards.items():
                assemble(manifest, {meta.index: payloads[meta.index]
                                    for meta in manifest.segments})
                verified += len(manifest.segments)
        return {
            "checkpoints": len(copies),
            "copies": dict(sorted(copies.items())),
            "nodes_up": len(up),
            "fully_replicated": fully,
            "segments_verified": verified,
            "durable": self.durable,
        }

    def stall_reason(self) -> Optional[str]:
        """Why the durable watermark trails the committed chain, or
        None when replication is caught up (the ``sls cluster``
        nonzero-exit diagnostic)."""
        chain = self.primary.store.checkpoints_for(self.gid)
        if not chain:
            return None
        newest = chain[-1].ckpt_id
        if self.durable is not None and self.durable >= newest:
            return None
        have = len(self.acks.get(newest, ()))
        reason = (f"checkpoint {newest} has {have}/{self.write_quorum} "
                  f"acknowledgements (durable watermark: "
                  f"{self.durable})")
        if self.fenced:
            reason += "; primary is fenced (stale epoch)"
        elif self._lease_lost:
            reason += "; primary lease expired"
        down = [node.node_id for node in self.nodes if node.down]
        if down:
            reason += f"; nodes down: {down}"
        plan = self._plan()
        cuts = plan.cut_schedule() if plan is not None else None
        if cuts:
            reason += f"; network cuts: {len(cuts)}"
        return reason

    def status(self) -> Dict[str, Any]:
        """The ``sls cluster`` payload."""
        durable = -1 if self.durable is None else self.durable
        rows = [{
            "node": node.node_id,
            "az": node.az,
            "state": ("down" if node.down
                      else "degraded" if node.health.degraded else "up"),
            "applied": node.applied_max,
            "epoch": None if node.down else node.promised_epoch,
            # Tracked acknowledged checkpoints this node lacks.
            "lag": None if node.down else sum(
                1 for ckpt in self.acks
                if ckpt <= durable and ckpt not in node.applied),
            "streams": node.stats["streams"],
            "bytes": node.stats["bytes"],
        } for node in self.nodes]
        return {
            "group": self.gid,
            "nodes": rows,
            "azs": self.azs,
            "write_quorum": self.write_quorum,
            "read_quorum": self.read_quorum,
            "durable": self.durable,
            "epoch": self.epoch,
            "lease_valid": (not self.fenced
                            and self._clock().now() < self.lease_until),
            "fenced": self.fenced,
            "stall": self.stall_reason(),
            "inter_az_bytes": self.inter_az_bytes,
            "inter_az_pretty": fmt_size(self.inter_az_bytes),
            "segment_bytes": self.segment_bytes,
            "quorum_lag_p50_ns": self.primary.slo.series(
                self.gid, "quorum").percentile(50),
            "repair_mttr_p50_ns": telemetry.registry().histogram(
                "sls.cluster.repair.segment_mttr",
                group=self.gid).percentile(50),
            "stats": dict(self.stats),
        }

    def __repr__(self) -> str:
        up = len(self.up_nodes())
        return (f"SLSCluster(group={self.gid}, {up}/{self.n} up, "
                f"W={self.write_quorum}/R={self.read_quorum}, "
                f"durable={self.durable})")
