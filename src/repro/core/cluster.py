"""Quorum-replicated SLS cluster: N segment copies across simulated
availability zones.

The one replication engine (Table 2: ``sls send`` "can ... continually
feed incremental checkpoints to a remote host, ... or provide high
availability"), in the cloud-Aurora shape (SNIPPETS.md snippets 2–3):
every committed checkpoint delta is sharded into segments
(:mod:`repro.core.segments`), shipped to ``N`` replica nodes spread
round-robin over ``azs`` availability zones, and acknowledged as
*durable* only once a **write quorum** (``W = ⌊N/2⌋ + 1``, 4 of 6)
holds the complete delta on media.  Recovery and reads need only a
**read quorum** (``R = N − W + 1``, 3 of 6): ``W + R > N`` guarantees
every read quorum intersects every write quorum, so any R survivors
contain at least one complete copy of everything ever acknowledged.
The single standby is the ``N = W = R = 1`` cluster.

The protocol, made enumerable for the crash-schedule explorer by
:meth:`~repro.core.faults.FaultPlan.on_repl` boundaries:

* ``ship``    — the delta is about to leave the primary for a node.
* ``deliver`` — the stream reached the node, not yet on its media.
* ``apply``   — the node committed the delta (its superblock flipped);
  the copy now survives that node's power loss.
* ``ack``     — the primary registered the node's acknowledgement;
  quorum accounting advances here.
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

Durability is defined by *media*, not bookkeeping: a checkpoint is
quorum-durable the instant the W-th node's apply commits.  Recovery
(:meth:`SLSCluster.recover`) reboots reachable nodes, counts complete
copies, picks the newest checkpoint whose copy count proves a write
quorum, truncates every replica's non-quorum tail
(:meth:`~repro.objstore.store.ObjectStore.truncate_checkpoint` — the
Aurora-style discard of writes that never reached quorum), and
restores from any holder.  Failover (:meth:`SLSCluster.failover`)
refuses to promote a node whose applied history trails the
quorum-durable watermark (:class:`~repro.errors.StaleReplica`).

Repair (:meth:`SLSCluster.repair`) is segment-parallel: targets
rebuild concurrently, each target's segments stream sequentially from
surviving holders (round-robin across donors), and per-segment MTTR —
the quantity that actually bounds durability — lands in the
``sls.cluster.repair.segment_mttr`` histogram and the SLO tracker.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import ClusterError, LeaseValid, LinkDown, QuorumLost, \
    RetriesExhausted, SLSError, StaleEpoch, StaleReplica
from ..machine import Machine
from ..units import MSEC, USEC, fmt_size
from . import events, faults, migration, telemetry, tracing
from .faults import FaultPlan, InjectedNodeCrash
from .group import ConsistencyGroup
from .orchestrator import Orchestrator, load_aurora
from .resilience import REASON_STALE_PRIMARY, PeerHealth, RetryPolicy
from .restore import RestoreResult
from .segments import (DEFAULT_SEGMENT_BYTES, DigestTree, ShardManifest,
                       assemble, shard_stream)

#: Replication/quorum boundary names (``FaultPlan.on_repl``).
B_SHIP = "ship"
B_DELIVER = "deliver"
B_APPLY = "apply"
B_ACK = "ack"
B_REPAIR = "repair"
#: Control-plane boundaries: one ``epoch`` per voter's durable promise
#: during a quorum epoch bump, one ``lease`` when the primary's lease
#: expires unrenewed, one ``reconcile`` per node the heal-time
#: anti-entropy exchange settles.
B_EPOCH = "epoch"
B_LEASE = "lease"
B_RECONCILE = "reconcile"

#: Replica-checkpoint name prefix: ``repl-<primary ckpt id>`` (plus an
#: ``@e<epoch>`` suffix since epochs exist).  The mapping from primary
#: to node-local checkpoint ids — and the epoch each delta was
#: accepted under — must survive a node reboot, and checkpoint names
#: are the one piece of metadata that already does.
REPL_NAME_PREFIX = "repl-"
REPL_EPOCH_SEP = "@e"

#: Fixed per-segment rebuild overhead (scheduling + media write) on
#: top of the wire time — keeps segment MTTR nonzero even for tiny
#: simulated segments.
SEGMENT_REBUILD_COST_NS = 50 * USEC

#: Primaryship lease: while fewer than a write quorum of nodes are
#: answering lease pings, the primary may not renew; once the lease
#: expires, failover is allowed without forcing.
LEASE_NS = 50 * MSEC

#: Size of one epoch-bump control message (request or grant).
EPOCH_MSG_BYTES = 128

#: The availability zone the primary sits in.
PRIMARY_AZ = 0


def _leg_labels(group_id: int, node_id: int, ckpt: int,
                ctx: Optional["tracing.TraceContext"]) -> Dict[str, Any]:
    """Span labels of one replication leg; the tenant comes from the
    shipped trace context when it names one."""
    labels: Dict[str, Any] = {"group": group_id, "node": node_id,
                              "ckpt": ckpt}
    if ctx is not None and ctx.tenant is not None:
        labels["tenant"] = ctx.tenant
    return labels


class ClusterNode:
    """One replica node: its own machine, store, and volatile caches."""

    def __init__(self, node_id: int, az: int, group_id: int):
        self.node_id = node_id
        self.az = az
        self.group_id = group_id
        self.machine = Machine()
        self.sls: Orchestrator = load_aurora(self.machine)
        self.down = False
        #: Primary checkpoint id -> node-local checkpoint id, for
        #: every delta this node holds complete on media.
        self.applied: Dict[int, int] = {}
        #: Primary checkpoint id -> membership epoch the delta was
        #: accepted under (0 for pre-epoch histories).  Survives
        #: reboots via the ``@e<epoch>`` checkpoint-name suffix.
        self.applied_epoch: Dict[int, int] = {}
        #: Volatile segment cache: primary ckpt -> (manifest,
        #: payloads).  Dies with the node's power; repair falls back
        #: to re-serializing from the node's store.
        self.shards: Dict[int, Tuple[ShardManifest, List[bytes]]] = {}

    @property
    def applied_max(self) -> Optional[int]:
        """Newest primary checkpoint this node holds (None = none)."""
        return max(self.applied) if self.applied else None

    @property
    def promised_epoch(self) -> int:
        """The membership epoch this node's store durably promised."""
        return int(self.sls.store.cluster_epoch)

    def apply(self, primary_ckpt: int, stream: bytes,
              epoch: int = 0) -> int:
        """Commit one delta stream to this node's media, recording the
        epoch it was accepted under in the checkpoint name so the
        attribution survives a reboot."""
        name = f"{REPL_NAME_PREFIX}{primary_ckpt}"
        if epoch:
            name += f"{REPL_EPOCH_SEP}{epoch}"
        local = migration.recv_checkpoint(self.sls, stream, name=name)
        self.applied[primary_ckpt] = local
        self.applied_epoch[primary_ckpt] = epoch
        return local

    def crash(self) -> None:
        """Power failure: volatile caches die, media survives."""
        if self.down:
            return
        self.machine.crash()
        self.down = True
        self.applied = {}
        self.applied_epoch = {}
        self.shards = {}

    def reboot(self) -> None:
        """Bring the node back; recover its store and rediscover
        which primary checkpoints its media holds."""
        if not self.down:
            return
        self.machine.boot()
        self.sls = load_aurora(self.machine)
        self.down = False
        self.rescan()

    def wipe(self) -> None:
        """Total loss of the node's media: a blank replacement node
        takes over the slot (repair must rebuild everything)."""
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        self.down = False
        self.applied = {}
        self.applied_epoch = {}
        self.shards = {}

    def rescan(self) -> None:
        """Rebuild the primary→local checkpoint map (and the per-delta
        epoch attribution) from the store — checkpoint names encode
        both the primary id and the accepting epoch."""
        self.applied = {}
        self.applied_epoch = {}
        for info in self.sls.store.checkpoints_for(self.group_id):
            if not info.name.startswith(REPL_NAME_PREFIX):
                continue
            tail = info.name[len(REPL_NAME_PREFIX):]
            epoch = 0
            if REPL_EPOCH_SEP in tail:
                tail, _, suffix = tail.partition(REPL_EPOCH_SEP)
                try:
                    epoch = int(suffix)
                except ValueError:
                    continue
            try:
                primary_ckpt = int(tail)
            except ValueError:
                continue
            self.applied[primary_ckpt] = info.ckpt_id
            self.applied_epoch[primary_ckpt] = epoch

    def truncate_above(self, durable: int) -> List[int]:
        """Discard every local checkpoint newer than the quorum
        watermark.  Returns the primary ids discarded."""
        return self.truncate_from(durable + 1)

    def truncate_from(self, floor: int) -> List[int]:
        """Discard every local checkpoint at or above ``floor``
        (newest first — only childless checkpoints may be truncated).
        Returns the primary ids discarded."""
        doomed = sorted((c for c in self.applied if c >= floor),
                        reverse=True)
        for primary_ckpt in doomed:
            local = self.applied.pop(primary_ckpt)
            self.applied_epoch.pop(primary_ckpt, None)
            self.sls.store.truncate_checkpoint(local)
            self.shards.pop(primary_ckpt, None)
        return doomed

    def __repr__(self) -> str:
        state = "down" if self.down else f"applied<={self.applied_max}"
        return f"ClusterNode(#{self.node_id} az{self.az} {state})"


class SegmentedLink:
    """One primary→node leg of the cluster: its retry policy, stats
    and outage book.

    Shipping goes checkpoint-by-checkpoint through the cluster's
    canonical shard manifests, crossing the ``on_repl`` quorum
    boundaries.  Each attempt consults the primary's fault plan and
    retries :class:`~repro.errors.LinkDown` with the standard backoff;
    an outage that outlasts the retries marks the leg *down* and
    shipping quietly resumes on a later pump.
    """

    def __init__(self, cluster: "SLSCluster", node: ClusterNode) -> None:
        self.cluster = cluster
        self.node = node
        self.stats = {"streams": 0, "bytes": 0, "outages": 0}
        #: Sim-instant the current outage began (None = link healthy).
        self.down_since: Optional[int] = None
        # A per-node seed keeps backoff jitter independent across legs.
        self.retry = RetryPolicy(
            cluster.primary.machine.clock,
            seed=0x11A6 ^ cluster.gid ^ (node.node_id << 8),
            op=f"cluster.ship.n{node.node_id}")

    def _ship_ckpt(self, ckpt_id: int) -> None:
        """One connect + send + apply attempt for one checkpoint."""
        cluster = self.cluster
        node = self.node
        plan = cluster._plan()
        if plan is not None:
            plan.on_repl(node.node_id, B_SHIP)
            plan.on_link()
            # The ship direction can be partitioned independently of
            # the ack path: delivery, not just shipping, fails
            # per-direction (and may be skewed late).
            delay = plan.on_deliver(faults.PRIMARY, node.node_id)
            if delay:
                cluster._clock().advance(delay)
        manifest, payloads = cluster.shards_for(ckpt_id)
        ctx = manifest.trace_ctx
        registry = telemetry.registry()
        clock = cluster._clock()
        labels = _leg_labels(cluster.gid, node.node_id, ckpt_id, ctx)
        # Replica-side legs record into the originating checkpoint
        # trace (resolved from the shipped context) so one trace spans
        # primary → replicas; spans never advance the clock or touch
        # the fault plan, keeping crash schedules identical.
        with tracing.use(ctx.resolve() if ctx is not None else None):
            with registry.span(clock, "repl.ship", **labels):
                # The whole delta crosses the fabric to this node;
                # wire time is charged on the primary's clock like any
                # ``sls send``.
                wire = cluster.primary.machine.nic.send(
                    manifest.total_bytes)
                clock.advance(wire)
            self.stats["streams"] += 1
            self.stats["bytes"] += manifest.total_bytes
            cluster.account_transfer(PRIMARY_AZ, node.az,
                                     manifest.total_bytes)
            if plan is not None:
                plan.on_repl(node.node_id, B_DELIVER)
            # Epoch fencing: a replica refuses any delta stamped with
            # an epoch older than the one its store durably promised —
            # a partitioned ex-primary's writes die here, before they
            # can reach the node's media.
            promised = node.promised_epoch
            if manifest.epoch < promised:
                events.emit(clock.now(), events.FENCED_WRITE,
                            group=cluster.gid,
                            node=node.node_id, ckpt=ckpt_id,
                            epoch=manifest.epoch, promised=promised)
                telemetry.registry().counter(
                    "sls.cluster.fenced_writes",
                    group=cluster.gid).add(1)
                cluster.stats["fenced_writes"] += 1
                raise StaleEpoch(
                    f"node {node.node_id} promised epoch {promised}, "
                    f"delta carries epoch {manifest.epoch}: write "
                    f"fenced", epoch=promised)
            with registry.span(clock, "repl.deliver", **labels):
                stream = assemble(manifest,
                                  {meta.index: payloads[meta.index]
                                   for meta in manifest.segments})
            with registry.span(clock, "repl.apply", **labels):
                node.apply(ckpt_id, stream, epoch=manifest.epoch)
            node.shards[ckpt_id] = (manifest, payloads)
            if plan is not None:
                plan.on_repl(node.node_id, B_APPLY)

    def ship_checkpoint(self, ckpt_id: int) -> bool:
        """Ship one checkpoint to this node under the retry policy and
        keep the outage book: True once it is on the node's media
        (which closes any open outage), False when the retries did not
        outlast the flap (the first such failure opens the outage and
        says so; a later pump round tries again)."""
        clock = self.cluster._clock()
        gid = self.cluster.gid
        now = clock.now()
        try:
            self.retry.run(lambda: self._ship_ckpt(ckpt_id))
        except RetriesExhausted as exc:
            if self.down_since is None:
                self.down_since = now
                self.stats["outages"] += 1
                events.emit(clock.now(), events.LINK_DOWN, group=gid,
                            node=self.node.node_id,
                            error=f"{type(exc).__name__}: {exc}")
                telemetry.registry().counter(
                    "sls.replication.outages", group=gid).add(1)
            return False
        if self.down_since is not None:
            events.emit(clock.now(), events.LINK_UP, group=gid,
                        outage_ns=clock.now() - self.down_since)
            self.down_since = None
        return True


class ClusterRecovery:
    """What :meth:`SLSCluster.recover` established."""

    def __init__(self, durable: int, donor: ClusterNode,
                 result: RestoreResult, truncated: List[Tuple[int, int]],
                 available: int):
        #: The quorum-durable primary checkpoint recovery settled on.
        self.durable = durable
        self.donor = donor
        self.result = result
        #: ``(node_id, primary_ckpt)`` pairs discarded as non-quorum
        #: tail.
        self.truncated = truncated
        self.available = available

    def __repr__(self) -> str:
        return (f"ClusterRecovery(ckpt={self.durable} "
                f"donor=#{self.donor.node_id} "
                f"truncated={len(self.truncated)})")


class ReconcilePlan:
    """Differential-repair feed built by :meth:`SLSCluster.reconcile`.

    Maps ``(node_id, primary_ckpt)`` to the locally retained segment
    payloads whose digests matched the canonical tree — those need not
    cross the wire again; only the segments that actually differ do.
    Also the accounting sink for how much the heal moved."""

    def __init__(self) -> None:
        self.local: Dict[Tuple[int, int], Dict[int, bytes]] = {}
        self.wire_bytes = 0
        self.wire_segments = 0
        self.local_segments = 0


class SLSCluster:
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
            ClusterNode(i, az=i % azs, group_id=self.gid)
            for i in range(nodes)]
        self.links: List[SegmentedLink] = [
            SegmentedLink(self, node) for node in self.nodes]
        self.health: List[PeerHealth] = [PeerHealth()
                                         for _ in range(nodes)]
        #: Quorum-durable watermark: newest primary checkpoint with a
        #: registered write quorum of acknowledgements.
        self.durable: Optional[int] = None
        self.acks: Dict[int, Set[int]] = {}
        self.inter_az_bytes = 0
        self.stats: Dict[str, int] = {
            "pumps": 0, "acks": 0, "failovers": 0,
            "segments_repaired": 0, "ckpts_replicated": 0,
            "fenced_writes": 0, "epoch_bumps": 0, "reconciles": 0,
            "forced_promotes": 0}
        #: Membership epoch this control-plane handle ships under.  A
        #: successful :meth:`promote` bumps the *nodes'* promised
        #: epochs past it, so a partitioned ex-primary handle fences
        #: itself on its next contact with the majority.
        self.epoch = 1
        #: Sim-clock primaryship lease: renewed whenever a write
        #: quorum of nodes answers the pump's lease ping; failover is
        #: refused (:class:`~repro.errors.LeaseValid`) while the
        #: incumbent is alive and the lease unexpired.
        self.lease_ns = LEASE_NS
        self.lease_until = primary.machine.clock.now() + LEASE_NS
        self._lease_lost = False
        #: A fenced primary drains: it stops pumping and acking
        #: (``STALE_PRIMARY`` degraded mode) instead of diverging.
        self.fenced = False
        #: Canonical shard cache of the checkpoints still to be shipped.
        self._streams: Dict[int, Tuple[ShardManifest, List[bytes]]] = {}
        self._commit_seen: Dict[int, int] = {}
        self._installed = False
        self._pumping = False
        self._timer: Any = None

    # -- plumbing ----------------------------------------------------------

    def _clock(self) -> Any:
        """The reference clock (the primary machine's — it keeps
        counting across crashes)."""
        return self.primary.machine.clock

    def _plan(self) -> Optional[FaultPlan]:
        return getattr(self.primary.machine, "fault_plan", None)

    def account_transfer(self, src_az: int, dst_az: int,
                         nbytes: int) -> None:
        """Byte accounting for one replication/repair transfer."""
        telemetry.registry().counter("sls.cluster.repl_bytes",
                                     group=self.gid).add(nbytes)
        if src_az != dst_az:
            self.inter_az_bytes += nbytes
            telemetry.registry().counter("sls.cluster.inter_az_bytes",
                                         group=self.gid).add(nbytes)

    def shards_for(self, ckpt_id: int
                   ) -> Tuple[ShardManifest, List[bytes]]:
        """The canonical sharded delta of one primary checkpoint
        (serialized once, memoized)."""
        cached = self._streams.get(ckpt_id)
        if cached is None:
            cached = self._streams[ckpt_id] = self._shard_delta(
                self.primary, ckpt_id, ckpt_id)
        if cached[0].trace_ctx is None:
            cached[0].trace_ctx = tracing.capture_for_group(
                self.gid, tenant=self.group.name)
        # Stamped at ship time, not shard time: the wire always
        # carries the epoch this handle *currently* holds.
        cached[0].epoch = self.epoch
        return cached

    def _shard_delta(self, sls: Orchestrator, local: int, ckpt: int
                     ) -> Tuple[ShardManifest, List[bytes]]:
        """Re-serialize one checkpoint's delta from ``sls``'s store,
        where it is checkpoint ``local``, and shard it as primary
        checkpoint ``ckpt``."""
        info = sls.store.get_checkpoint(local)
        stream = migration.serialize_checkpoint(sls, self.gid,
                                                ckpt_id=local,
                                                since=info.parent)
        return shard_stream(self.gid, ckpt, stream, self.segment_bytes)

    def _node_shards(self, node: ClusterNode, ckpt: int
                     ) -> Tuple[ShardManifest, List[bytes]]:
        """One node's shard set for a checkpoint it holds: its volatile
        cache, refilled from its store when that died with the node."""
        cached = node.shards.get(ckpt)
        if cached is None:
            cached = node.shards[ckpt] = self._shard_delta(
                node.sls, node.applied[ckpt], ckpt)
        return cached

    def up_nodes(self) -> List[ClusterNode]:
        return [node for node in self.nodes if not node.down]

    # -- the quorum pump ---------------------------------------------------

    def pump(self) -> Optional[int]:
        """Replicate every committed-but-unreplicated checkpoint to
        every reachable node, in order, advancing the durable
        watermark the moment a write quorum holds each one.  Returns
        the watermark.

        A node crash injected at a replication boundary
        (:class:`~repro.core.faults.InjectedNodeCrash`) downs that
        node and the pump carries on — the quorum, not any single
        node, is the availability unit.  An injected *primary* crash
        propagates to the harness.
        """
        if self._pumping or self.fenced:
            return self.durable
        self._pumping = True
        try:
            return self._pump()
        finally:
            self._pumping = False

    def _pump(self) -> Optional[int]:
        self.stats["pumps"] += 1
        self._renew_lease()
        if self.fenced:
            return self.durable
        chain = self.primary.store.checkpoints_for(self.gid)
        clock = self._clock()
        for info in chain:
            ckpt = info.ckpt_id
            self._commit_seen.setdefault(ckpt, clock.now())
            acks = self.acks.setdefault(ckpt, set())
            for node, link, health in zip(self.nodes, self.links,
                                          self.health):
                if node.down:
                    continue
                if ckpt in node.applied:
                    # Already on this node's media (possibly
                    # rediscovered after a reboot): (re-)register —
                    # but only once the ack direction is deliverable;
                    # a copy behind a one-way cut counts at recovery
                    # (media defines durability) yet earns no quorum
                    # credit until the partition heals.
                    if node.node_id not in acks \
                            and self._ack_delivered(node):
                        acks.add(node.node_id)
                        self._maybe_advance(ckpt)
                    continue
                if info.parent is not None \
                        and info.parent in self.acks \
                        and info.parent not in node.applied:
                    # The node is missing this delta's baseline;
                    # earlier chain entries (or repair) must land
                    # first so its local chain stays well-parented.
                    continue
                if not health.should_attempt():
                    continue
                plan = self._plan()
                try:
                    shipped = link.ship_checkpoint(ckpt)
                    acked = shipped and self._ack_delivered(node)
                    if acked and plan is not None:
                        plan.on_repl(node.node_id, B_ACK)
                except InjectedNodeCrash as exc:
                    self.node_down(exc.node, reason="fault")
                    continue
                except StaleEpoch as exc:
                    # A replica fenced this write: the membership
                    # moved on without us.  Drain instead of
                    # diverging further.
                    self._fence(exc.epoch)
                    return self.durable
                if acked:
                    health.record_success()
                    acks.add(node.node_id)
                    self.stats["acks"] += 1
                    self._ack_span(ckpt, node)
                    self._maybe_advance(ckpt)
                elif shipped:
                    # Applied on the node's media but the
                    # acknowledgement never made it back: the
                    # re-register branch above credits it after the
                    # heal.
                    health.record_success()
                else:
                    health.record_failure(clock.now())
            if len(acks) == len(self.nodes):
                # On every node's media: a wipe alone re-derives it.
                self._streams.pop(ckpt, None)
        if chain and self.durable is not None:
            # What has left the primary's chain is never shipped again,
            # and below the watermark its quorum is settled.
            gone = min(chain[0].ckpt_id, self.durable)
            for old in [c for c in self.acks if c < gone]:
                del self.acks[old]
                self._commit_seen.pop(old, None)
                self._streams.pop(old, None)
        if chain and (self.durable is None
                      or self.durable < chain[-1].ckpt_id):
            newest = chain[-1].ckpt_id
            events.emit(clock.now(), events.QUORUM_STALL,
                        group=self.gid, ckpt=newest,
                        acks=len(self.acks.get(newest, ())),
                        needed=self.write_quorum)
            telemetry.registry().counter("sls.cluster.quorum_stalls",
                                         group=self.gid).add(1)
        return self.durable

    def _ack_delivered(self, node: ClusterNode) -> bool:
        """Whether the node→primary ack direction is deliverable right
        now (charges any configured delay skew on the reference
        clock)."""
        plan = self._plan()
        if plan is None:
            return True
        try:
            delay = plan.on_deliver(node.node_id, faults.PRIMARY)
        except LinkDown:
            return False
        if delay:
            self._clock().advance(delay)
        return True

    def _renew_lease(self) -> None:
        """One lease round: ping every up node both ways; a write
        quorum of grants renews the lease, and any node promising a
        newer epoch fences this handle on the spot.  Pings are
        control-plane chatter — they charge no wire time and cross no
        replication boundaries, so existing crash schedules are
        untouched."""
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
            telemetry.registry().counter("sls.cluster.lease_expiries",
                                         group=self.gid).add(1)
            if plan is not None:
                plan.on_repl(faults.PRIMARY, B_LEASE)

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
        telemetry.registry().counter("sls.cluster.stale_primaries",
                                     group=self.gid).add(1)
        self.group.health.enter(REASON_STALE_PRIMARY, now)
        self.primary.slo.on_degraded_enter(self.gid, now)
        self.stop()

    def _ack_span(self, ckpt: int, node: ClusterNode) -> None:
        """A zero-duration span marking the primary registering one
        node's acknowledgement, in the originating checkpoint trace."""
        cached = self._streams.get(ckpt)
        ctx = cached[0].trace_ctx if cached is not None else None
        labels = _leg_labels(self.gid, node.node_id, ckpt, ctx)
        with tracing.use(ctx.resolve() if ctx is not None else None):
            now = self._clock().now()
            telemetry.registry().record_span("repl.ack", now, now,
                                             **labels)

    def _maybe_advance(self, ckpt: int) -> None:
        if self.fenced:
            # A fenced ex-primary must not acknowledge anything: the
            # new epoch's primary owns the watermark now.
            return
        if len(self.acks.get(ckpt, ())) < self.write_quorum:
            return
        if self.durable is not None and ckpt <= self.durable:
            return
        clock = self._clock()
        self.durable = ckpt
        self.stats["ckpts_replicated"] += 1
        lag = clock.now() - self._commit_seen.get(ckpt, clock.now())
        events.emit(clock.now(), events.QUORUM_ACK, group=self.gid,
                    ckpt=ckpt, acks=len(self.acks[ckpt]),
                    lag_ns=lag, tenant=self.group.name)
        telemetry.registry().histogram("sls.cluster.quorum_lag",
                                       group=self.gid).observe(lag)
        self.primary.slo.on_quorum_ack(self.gid, lag, now_ns=clock.now())

    # -- continuous operation ---------------------------------------------

    def install(self) -> None:
        """Pump automatically: synchronously after every sync commit
        (orchestrator commit hook) and on the checkpoint cadence for
        async commits (timer)."""
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
        try:
            self.primary.commit_hooks.remove(self._on_commit)
        except ValueError:
            pass

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
        telemetry.registry().counter("sls.cluster.node_down",
                                     group=self.gid).add(1)

    def node_up(self, node_id: int) -> None:
        """Reboot one node; it rejoins with whatever its media held."""
        node = self.nodes[node_id]
        if not node.down:
            return
        node.reboot()
        self.health[node_id] = PeerHealth()
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

    def recover(self, node_ids: Optional[List[int]] = None,
                reboot: bool = True) -> ClusterRecovery:
        """The primary is gone: settle the cluster on its
        quorum-durable state and restore the application from replica
        media.

        ``node_ids`` limits recovery to a subset of nodes (the rest
        count as unreachable); any read quorum suffices.  Reachable
        down nodes are rebooted first (their media survived).  The
        newest checkpoint whose visible copy count proves a write
        quorum becomes the watermark; every replica's tail beyond it
        is truncated — a checkpoint that never reached quorum is
        discarded everywhere, never partially visible.
        """
        selected = (self.nodes if node_ids is None
                    else [self.nodes[i] for i in node_ids])
        available: List[ClusterNode] = []
        for node in selected:
            if node.down:
                if not reboot:
                    continue
                node.reboot()
            available.append(node)
        if len(available) < self.read_quorum:
            raise QuorumLost(
                f"{len(available)} nodes reachable, read quorum is "
                f"{self.read_quorum}")
        # Copies are counted per (checkpoint, accepting epoch): two
        # nodes holding checkpoint 8 under different epochs hold
        # *different histories*, and only the epoch variant that
        # proves a quorum is authoritative.
        counts: Dict[Tuple[int, int], int] = {}
        for node in available:
            for ckpt in node.applied:
                pair = (ckpt, node.applied_epoch.get(ckpt, 0))
                counts[pair] = counts.get(pair, 0) + 1
        # With k members unreachable, a quorum-durable checkpoint (W
        # copies total) shows at least W - k copies here; quorum
        # intersection makes the threshold at least 1 for any read
        # quorum.  With every member visible this is exactly "W copies
        # on media" — the crash-schedule oracle.
        missing = self.n - len(available)
        threshold = max(1, self.write_quorum - missing)
        auth: Dict[int, int] = {}
        for (ckpt, epoch), have in counts.items():
            if have >= threshold:
                if ckpt not in auth or epoch > auth[ckpt]:
                    auth[ckpt] = epoch
        durable = max(auth, default=None)
        if durable is None:
            raise QuorumLost(
                f"no checkpoint reaches the quorum threshold "
                f"({threshold} of {len(available)} reachable copies)")
        truncated: List[Tuple[int, int]] = []
        for node in available:
            # Fence floor: the oldest local checkpoint that is either
            # beyond the watermark or a divergent epoch variant of an
            # authoritative one (sub-threshold copies with no
            # authoritative competitor are kept — conservative).
            bad = [c for c in node.applied
                   if c > durable
                   or node.applied_epoch.get(c, 0) != auth.get(
                       c, node.applied_epoch.get(c, 0))]
            if not bad:
                continue
            for ckpt in node.truncate_from(min(bad)):
                truncated.append((node.node_id, ckpt))
        if truncated:
            events.emit(self._clock().now(), events.TAIL_TRUNCATE,
                        group=self.gid, ckpt=durable,
                        discarded=len(truncated))
            telemetry.registry().counter(
                "sls.cluster.tail_truncated",
                group=self.gid).add(len(truncated))
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
        """Win a quorum epoch bump: every reachable voter durably
        promises (superblock commit on its own store) an epoch newer
        than any it has seen, so fencing survives crash + remount.

        ``candidate`` is the node driving the bump — reachability is
        judged from it (a promotion must win its quorum from where the
        new primary actually sits).  Raises
        :class:`~repro.errors.QuorumLost` below ``W`` reachable
        voters.  Deliberately does *not* adopt the new epoch into
        ``self.epoch``: the handle keeps shipping under its old epoch,
        which is exactly what makes a partitioned ex-primary's writes
        fenceable.
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
            # One control message each way, then the voter's durable
            # promise (a superblock flip on its own store).
            clock.advance(2 * node.machine.nic.transfer_time(
                EPOCH_MSG_BYTES))
            node.sls.store.promise_cluster_epoch(proposal)
            if plan is not None:
                plan.on_repl(node.node_id, B_EPOCH)
        self.stats["epoch_bumps"] += 1
        bump_ns = clock.now() - started
        events.emit(clock.now(), events.EPOCH_BUMP, group=self.gid,
                    epoch=proposal, grants=len(voters),
                    bump_ns=bump_ns)
        telemetry.registry().histogram(
            "sls.cluster.epoch_bump_ns",
            group=self.gid).observe(bump_ns)
        self.primary.slo.observe(self.gid, "epoch_bump", bump_ns)
        return proposal

    def failover(self, force: bool = False,
                 force_data_loss: bool = False) -> RestoreResult:
        """Promote the best-caught-up reachable node to primary.

        Requires a read quorum of reachable nodes, an established
        durable watermark, and — while the incumbent primary is alive
        and its lease unexpired — refuses outright
        (:class:`~repro.errors.LeaseValid`): a partitioned-but-alive
        primary may still be acknowledging on its side of the cut.
        Delegates the stale check to :meth:`promote`.
        """
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
        """Promote one node; refuses a stale quorum view and fences
        the old epoch first.

        A node that never applied the quorum-durable watermark would
        silently roll back acknowledged state if promoted —
        :class:`~repro.errors.StaleReplica` unless *both* ``force``
        and ``force_data_loss`` are passed (``force`` alone never
        discards acknowledged checkpoints; the double flag is the
        operator signing off on the loss, event-logged as
        ``FORCED_PROMOTE`` with the checkpoint gap).  Before any
        restore, :meth:`bump_epoch` must win a quorum of durable
        epoch promises so the displaced primary's writes are fenced.
        The promoted node's own non-quorum tail is truncated so the
        new history never forks from unacknowledged writes.
        """
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
        # Fence the old epoch before the new history starts: a write
        # quorum must durably promise the bumped epoch or promotion
        # refuses (QuorumLost) and changes nothing.
        self.bump_epoch(candidate=node)
        if forced_gap:
            self.stats["forced_promotes"] += 1
            events.emit(self._clock().now(), events.FORCED_PROMOTE,
                        group=self.gid, node=node_id, ckpt=durable,
                        watermark=self.durable, gap=forced_gap)
            telemetry.registry().counter(
                "sls.cluster.forced_promotes",
                group=self.gid).add(1)
            self.durable = durable
        started = node.machine.clock.now()
        node.truncate_above(durable)
        result = node.sls.restore(self.gid,
                                  ckpt_id=node.applied[durable],
                                  periodic=False)
        failover_ns = node.machine.clock.now() - started
        self.stats["failovers"] += 1
        events.emit(self._clock().now(), events.PROMOTE, group=self.gid,
                    node=node_id, ckpt=durable,
                    failover_ns=failover_ns)
        telemetry.registry().histogram(
            "sls.cluster.failover_ns",
            group=self.gid).observe(failover_ns)
        self.primary.slo.observe(self.gid, "failover", failover_ns)
        return result

    # -- repair ------------------------------------------------------------

    def repair(self, recon: Optional[ReconcilePlan] = None
               ) -> Dict[str, Any]:
        """Segment-parallel re-replication of every missing copy.

        Targets rebuild concurrently; within a target, segments
        stream sequentially from the surviving holders (round-robin
        across donors, manifest-checksum verified; a donor behind a
        partition cut is skipped for the next holder, and a segment
        no reachable donor can serve defers the whole target until a
        heal).  Wall time is the slowest target's queue; per-segment
        MTTR (repair start → segment landed) feeds the
        ``repair.segment_mttr`` histogram and SLO budget.  ``recon``
        (from :meth:`reconcile`) supplies locally retained segments
        that need not cross the wire.  Returns the repair report.
        """
        clock = self._clock()
        registry = telemetry.registry()
        hist = registry.histogram("sls.cluster.repair.segment_mttr",
                                  group=self.gid)
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
                if ckpt in target.applied:
                    continue
                if not self._chain_ready(target, ckpt):
                    continue
                local = (recon.local.get((target.node_id, ckpt))
                         if recon is not None else None)
                try:
                    elapsed, nsegs = self._repair_one(
                        target, ckpt, holders,
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
                acks = self.acks.setdefault(ckpt, set())
                acks.add(target.node_id)
                self._maybe_advance(ckpt)
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
        registry.counter("sls.cluster.segments_repaired",
                         group=self.gid).add(segments_done)
        return report

    def _chain_ready(self, target: ClusterNode, ckpt: int) -> bool:
        """Whether ``target`` holds the delta's baseline (repair walks
        checkpoints oldest-first, so earlier iterations fill it)."""
        for holder in self.up_nodes():
            if ckpt not in holder.applied:
                continue
            info = holder.sls.store.get_checkpoint(
                holder.applied[ckpt])
            if info.parent is None:
                return True
            break
        parents = [c for node in self.up_nodes()
                   for c in node.applied if c < ckpt]
        if not parents:
            return True
        return max(parents) in target.applied

    def _repair_one(self, target: ClusterNode, ckpt: int,
                    holders: List[ClusterNode], queue_ns: int,
                    hist: Any, local: Optional[Dict[int, bytes]] = None,
                    recon: Optional[ReconcilePlan] = None
                    ) -> Tuple[int, int]:
        """Rebuild one checkpoint's segments onto one target; returns
        the target's updated queue time and the segment count.
        ``local`` holds digest-matched segments already on the target
        (no wire crossing); raises :class:`~repro.errors.LinkDown`
        when some segment has no partition-reachable donor."""
        plan = self._plan()
        manifest, payloads = self._segments_from(holders, ckpt)
        ctx = manifest.trace_ctx
        labels = _leg_labels(self.gid, target.node_id, ckpt, ctx)
        registry = telemetry.registry()
        repair_start = self._clock().now()
        gathered: Dict[int, bytes] = {}
        elapsed = queue_ns
        with tracing.use(ctx.resolve() if ctx is not None else None):
            for meta in manifest.segments:
                if plan is not None:
                    plan.on_repl(target.node_id, B_REPAIR)
                cached = (local.get(meta.index)
                          if local is not None else None)
                if cached is not None and len(cached) == meta.length:
                    # Digest-matched local copy: media write only.
                    meta.verify(cached)
                    gathered[meta.index] = cached
                    elapsed += SEGMENT_REBUILD_COST_NS
                    if recon is not None:
                        recon.local_segments += 1
                    hist.observe(elapsed)
                    self.primary.slo.observe(self.gid, "repair", elapsed)
                    continue
                donor = None
                delay = 0
                for shift in range(len(holders)):
                    cand = holders[(meta.index + shift) % len(holders)]
                    if plan is not None:
                        try:
                            delay = plan.on_deliver(cand.node_id,
                                                    target.node_id)
                        except LinkDown:
                            continue
                    donor = cand
                    break
                if donor is None:
                    raise LinkDown(
                        f"no donor for segment {meta.index} of "
                        f"checkpoint {ckpt} reachable from node "
                        f"{target.node_id}")
                payload = payloads[meta.index]
                meta.verify(payload)
                gathered[meta.index] = payload
                elapsed += (delay + target.machine.nic.transfer_time(
                    max(meta.length, 1)) + SEGMENT_REBUILD_COST_NS)
                self.account_transfer(donor.az, target.az, meta.length)
                if recon is not None:
                    recon.wire_segments += 1
                    recon.wire_bytes += meta.length
                hist.observe(elapsed)
                self.primary.slo.observe(self.gid, "repair", elapsed)
            stream = assemble(manifest, gathered)
            epoch = max((h.applied_epoch.get(ckpt, 0)
                         for h in holders if ckpt in h.applied),
                        default=self.epoch)
            target.apply(ckpt, stream, epoch=epoch)
            registry.record_span("repl.repair", repair_start,
                                 self._clock().now(),
                                 segments=len(manifest.segments),
                                 **labels)
        target.shards[ckpt] = (manifest, payloads)
        events.emit(self._clock().now(), events.SEGMENT_REPAIRED,
                    group=self.gid, node=target.node_id, ckpt=ckpt,
                    segments=len(manifest.segments))
        return elapsed, len(manifest.segments)

    def _segments_from(self, holders: List[ClusterNode], ckpt: int
                       ) -> Tuple[ShardManifest, List[bytes]]:
        """A canonical shard set for one checkpoint, from any holder's
        volatile cache — or re-serialized from a holder's store when
        every cache died with its node."""
        for holder in holders:
            cached = holder.shards.get(ckpt)
            if cached is not None:
                return cached
        return self._node_shards(holders[0], ckpt)

    # -- anti-entropy reconciliation ---------------------------------------

    def _node_manifests(self, node: ClusterNode
                        ) -> Dict[int, ShardManifest]:
        """One node's manifests for everything it holds, from the
        volatile shard cache or re-serialized from its store."""
        return {ckpt: self._node_shards(node, ckpt)[0]
                for ckpt in node.applied}

    def reconcile(self) -> Dict[str, Any]:
        """Heal-time anti-entropy: fence-truncate superseded minority
        tails, digest-diff every node against the canonical history,
        and feed :meth:`repair` exactly the segments that differ.

        Three passes over the up nodes:

        1. **Fence truncation** — any checkpoint accepted under an
           epoch older than the cluster's current promise and never
           quorum-acknowledged (or older than another holder's epoch
           for the same id) is a fenced write: discarded, never
           readable again.
        2. **Digest exchange** — each node's
           :class:`~repro.core.segments.DigestTree` is diffed against
           the canonical tree; locally intact segments of divergent
           checkpoints are stashed so only differing bytes cross the
           wire.
        3. **Differential repair** — :meth:`repair` runs with the
           stash; reconciliation spans join the originating
           distributed traces via the manifests' carried contexts.

        Closes the ``STALE_PRIMARY`` degraded spell when this handle
        was fenced (the fenced flag itself stays — a drained
        ex-primary does not silently resume).  Returns a report
        merging the repair report with the reconciliation accounting.
        """
        clock = self._clock()
        plan = self._plan()
        up = self.up_nodes()
        if not up:
            raise QuorumLost("no nodes reachable to reconcile")
        started = clock.now()
        current = max([self.epoch]
                      + [node.promised_epoch for node in up])
        durable = self.durable
        # Pass 1: fence-truncate superseded tails.  Authority per
        # checkpoint is the newest accepting epoch any up holder
        # records; a copy trailing it — or trailing the cluster epoch
        # beyond the durable watermark — is a fenced write.
        auth_epoch: Dict[int, int] = {}
        for node in up:
            for ckpt in node.applied:
                epoch = node.applied_epoch.get(ckpt, 0)
                auth_epoch[ckpt] = max(auth_epoch.get(ckpt, 0), epoch)
        fenced: List[Tuple[int, int]] = []
        for node in up:
            bad = [c for c in node.applied
                   if node.applied_epoch.get(c, 0) < auth_epoch[c]
                   or (node.applied_epoch.get(c, 0) < current
                       and (durable is None or c > durable))]
            if not bad:
                continue
            for ckpt in node.truncate_from(min(bad)):
                fenced.append((node.node_id, ckpt))
                self.acks.get(ckpt, set()).discard(node.node_id)
        # The fenced ex-primary's own store carries the same doomed
        # tail: drain it too, so nothing on any machine can resume
        # from a write that lost its quorum race.
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
            telemetry.registry().counter(
                "sls.cluster.tail_truncated",
                group=self.gid).add(len(fenced))
        # Pass 2: digest exchange against the canonical history — the
        # union of surviving checkpoints, each checkpoint's canonical
        # manifest elected by majority root-digest vote across its
        # holders (a single corrupted holder must never become
        # truth).
        surviving = sorted({ckpt for node in up
                            for ckpt in node.applied})
        by_node: Dict[int, Dict[int, ShardManifest]] = {
            node.node_id: self._node_manifests(node) for node in up}
        trees = {node_id: DigestTree(manifests)
                 for node_id, manifests in by_node.items()}
        canonical_manifests: Dict[int, ShardManifest] = {}
        for ckpt in surviving:
            votes: Dict[int, int] = {}
            pick: Dict[int, ShardManifest] = {}
            for node in up:
                manifest = by_node[node.node_id].get(ckpt)
                if manifest is None:
                    continue
                root = trees[node.node_id].roots[ckpt]
                votes[root] = votes.get(root, 0) + 1
                pick.setdefault(root, manifest)
            best = max(sorted(votes), key=lambda root: votes[root])
            canonical_manifests[ckpt] = pick[best]
        canonical = DigestTree(canonical_manifests)
        recon = ReconcilePlan()
        divergent_truncated = 0
        for node in up:
            needed = trees[node.node_id].diff(canonical)
            divergent = [c for c in needed if c in node.applied]
            if divergent:
                # Bytes differ in place (e.g. media corruption): the
                # divergent checkpoint and everything above it must be
                # rebuilt — stash the digest-matched segments first so
                # only the differing ones cross the wire again.
                floor = min(divergent)
                for ckpt in sorted(node.applied):
                    if ckpt < floor:
                        continue
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
                plan.on_repl(node.node_id, B_RECONCILE)
        # Pass 3: differential repair fills every gap the diff found.
        report = self.repair(recon=recon)
        self.stats["reconciles"] += 1
        reconcile_ns = clock.now() - started
        ctx = None
        if canonical_manifests:
            newest = canonical_manifests[max(canonical_manifests)]
            ctx = newest.trace_ctx
        with tracing.use(ctx.resolve() if ctx is not None else None):
            labels: Dict[str, Any] = {"group": self.gid,
                                      "fenced": len(fenced),
                                      "bytes": recon.wire_bytes}
            if ctx is not None and ctx.tenant is not None:
                labels["tenant"] = ctx.tenant
            telemetry.registry().record_span(
                "repl.reconcile", started, clock.now(), **labels)
        events.emit(clock.now(), events.RECONCILE_DONE, group=self.gid,
                    epoch=current, fenced=len(fenced),
                    divergent=divergent_truncated,
                    wire_segments=recon.wire_segments,
                    local_segments=recon.local_segments,
                    bytes=recon.wire_bytes,
                    reconcile_ns=reconcile_ns)
        telemetry.registry().counter("sls.cluster.reconcile_bytes",
                                     group=self.gid).add(
                                         recon.wire_bytes)
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
        ckpts = sorted({ckpt for node in up for ckpt in node.applied})
        copies = {ckpt: sum(1 for node in up if ckpt in node.applied)
                  for ckpt in ckpts}
        fully = all(have == len(up) for have in copies.values())
        verified = 0
        for node in up:
            for ckpt, (manifest, payloads) in node.shards.items():
                assemble(manifest, {meta.index: payloads[meta.index]
                                    for meta in manifest.segments})
                verified += len(manifest.segments)
        return {
            "checkpoints": len(ckpts),
            "copies": copies,
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
        cuts = None
        plan = self._plan()
        if plan is not None:
            cuts = plan.cut_schedule()
        if cuts:
            reason += f"; network cuts: {len(cuts)}"
        return reason

    def status(self) -> Dict[str, Any]:
        """The ``sls cluster`` payload."""
        registry = telemetry.registry()
        rows = []
        for node, link, health in zip(self.nodes, self.links,
                                      self.health):
            rows.append({
                "node": node.node_id,
                "az": node.az,
                "state": ("down" if node.down
                          else ("degraded" if health.degraded
                                else "up")),
                "applied": node.applied_max,
                "epoch": (None if node.down else node.promised_epoch),
                # Acknowledged checkpoints the primary still tracks, at or
                # below the watermark, that this node lacks (down: unknown).
                "lag": (None if node.down else
                        sum(1 for ckpt in self.acks
                            if self.durable is not None
                            and ckpt <= self.durable
                            and ckpt not in node.applied)),
                "streams": link.stats["streams"],
                "bytes": link.stats["bytes"],
            })
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
            "quorum_lag_p50_ns": registry.histogram(
                "sls.cluster.quorum_lag",
                group=self.gid).percentile(50),
            "repair_mttr_p50_ns": registry.histogram(
                "sls.cluster.repair.segment_mttr",
                group=self.gid).percentile(50),
            "stats": dict(self.stats),
        }

    def __repr__(self) -> str:
        up = len(self.up_nodes())
        return (f"SLSCluster(group={self.gid}, {up}/{self.n} up, "
                f"W={self.write_quorum}/R={self.read_quorum}, "
                f"durable={self.durable})")
