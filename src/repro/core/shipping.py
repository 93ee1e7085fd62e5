"""Shipping: the primary's half of quorum replication — the pump's
legs, the per-node ship cursors and the quorum accounting.

A pump ships each committed delta, serialized once
(:meth:`Shipping.shards_for`), to every eligible node at the same
instant.  Each leg is its own timeline on an
:class:`~repro.hw.clock.EventLoop` private to the pump, over the
primary's clock, and crosses these ``repl`` boundaries
(``FaultPlan.on_boundary``):

* ``ship`` — one attempt.  A flap or a cut is a retryable
  :class:`~repro.errors.LinkDown`: the leg backs off on its own
  timeline (its node's ``RetryPolicy``) and no other leg waits.
  Otherwise the delta leaves on the primary→node link
  (:meth:`repro.hw.nic.NIC.send`: its turn on the link's bandwidth,
  then the one-way latency) and lands that much later, plus any
  ``delay_link`` skew.
* ``deliver`` — epoch fencing, then the node commits the delta.
* ``apply`` — the copy is on the node's media.
* ``ack`` — the acknowledgement crossed back (skew only) and was
  credited; a checkpoint is durable at the W-th credit.

Events run in time order, ties in node order, so ``deliver``, ``apply``
and ``ack`` come in the order legs complete; the pump returns once
every leg has landed or failed.  Fault-free, the quorum lag is

    lag = S + NET_RTT // 2 + transfer_time(B)

with S the primary-clock time serializing the delta took and B its
size; with skew it is the W-th smallest leg completion, so up to
N − W slow replicas do not move it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Set, Tuple)

from ..errors import LinkDown, RetriesExhausted, StaleEpoch
from ..hw.clock import EventLoop
from ..objstore.checkpoint import CheckpointInfo
from . import events, faults, migration, telemetry, tracing
from .faults import FaultPlan, InjectedNodeCrash
from .group import ConsistencyGroup
from .orchestrator import Orchestrator
from .segments import ShardManifest, assemble, shard_stream

if TYPE_CHECKING:
    from .cluster import ClusterNode

#: Replication/quorum boundary names (``repl`` domain).
B_SHIP = "ship"
B_DELIVER = "deliver"
B_APPLY = "apply"
B_ACK = "ack"

#: The availability zone the primary sits in.
PRIMARY_AZ = 0

#: One checkpoint's sharded delta: its manifest and segment payloads.
Shards = Tuple[ShardManifest, List[bytes]]


def leg_labels(group: ConsistencyGroup, node_id: int, ckpt: int,
               trace: Optional[tracing.Trace]) -> Dict[str, Any]:
    """Span labels of one replication leg, tenant-attributed when the
    leg joins a checkpoint trace."""
    labels: Dict[str, Any] = {"group": group.group_id, "node": node_id,
                              "ckpt": ckpt}
    if trace is not None:
        labels["tenant"] = group.name
    return labels


class Leg:
    """One checkpoint on its way to one node."""

    __slots__ = ("node", "ckpt", "manifest", "payloads", "started",
                 "attempts")

    def __init__(self, node: "ClusterNode", ckpt: int, shards: Shards,
                 started: int):
        self.node = node
        self.ckpt = ckpt
        self.manifest, self.payloads = shards
        #: Dispatch instant: the retry deadline and an outage run from it.
        self.started = started
        self.attempts = 0


class Shipment:
    """One pump's legs, run in time order on a private event loop over
    the primary's clock (no machine timer fires inside it)."""

    def __init__(self, cluster: "Shipping",
                 chain: List[CheckpointInfo]):
        self.cluster = cluster
        #: Where a landed leg's node takes its next checkpoint from.
        self.chain = chain
        self.ids = [info.ckpt_id for info in chain]
        self.plan = cluster._plan()
        self.clock = cluster._clock()
        self.loop = EventLoop(self.clock)

    def _at(self, when: int, step: Callable[[Leg], None], leg: Leg) -> None:
        """Schedule one step of a leg; a node crash injected at one of
        its boundaries downs the node and ends the leg."""
        def run() -> None:
            try:
                step(leg)
            except InjectedNodeCrash as exc:
                self.cluster.node_down(exc.node, reason="fault")
        self.loop.call_at(when, run)

    def dispatch(self, node: "ClusterNode", ckpt: int) -> None:
        """Start one leg now, once its delta is serialized (by its first
        leg; the checkpoint's quorum lag runs from there)."""
        self.cluster._commit_seen.setdefault(ckpt, self.clock.now())
        shards = self.cluster.shards_for(ckpt)
        now = self.clock.now()
        self._at(now, self._attempt, Leg(node, ckpt, shards, now))

    def run(self) -> None:
        """Run every leg until it has landed or failed."""
        self.loop.drain()

    def ack_skew(self, node: "ClusterNode") -> Optional[int]:
        """The skew an acknowledgement from ``node`` carries back, or
        None when the node→primary direction is cut."""
        if self.plan is None:
            return 0
        try:
            return self.plan.on_deliver(node.node_id, faults.PRIMARY)
        except LinkDown:
            return None

    def recredit(self, node: "ClusterNode", ckpt: int) -> None:
        """Re-send the ack of a copy on ``node``'s media."""
        skew = self.ack_skew(node)
        if skew is not None:
            self.loop.call_at(self.clock.now() + skew,
                              lambda: self.cluster._credit(node.node_id,
                                                           ckpt))

    # -- one leg's steps ---------------------------------------------------

    def _attempt(self, leg: Leg) -> None:
        node, plan, now = leg.node, self.plan, self.clock.now()
        skew = 0
        try:
            if plan is not None:
                plan.on_boundary(faults.REPL, node.node_id, B_SHIP)
                plan.on_link()
                skew = plan.on_deliver(faults.PRIMARY, node.node_id)
        except LinkDown as exc:
            leg.attempts += 1
            try:
                wait = node.retry.after_failure(exc, leg.attempts,
                                                leg.started)
            except RetriesExhausted as gave_up:
                self._failed(leg, gave_up)
                return
            self._at(now + wait, self._attempt, leg)
            return
        size = leg.manifest.total_bytes
        wire = self.cluster.primary.machine.nic.send(size,
                                                     link=node.node_id)
        with tracing.use(leg.manifest.trace):
            telemetry.registry().record_span(
                "repl.ship", now, now + wire,
                **leg_labels(self.cluster.group, node.node_id, leg.ckpt,
                             leg.manifest.trace))
        node.stats["streams"] += 1
        node.stats["bytes"] += size
        self.cluster.account_transfer(PRIMARY_AZ, node.az, size)
        self._at(now + wire + skew, self._land, leg)

    def _land(self, leg: Leg) -> None:
        node, plan, cluster = leg.node, self.plan, self.cluster
        manifest = leg.manifest
        if plan is not None:
            plan.on_boundary(faults.REPL, node.node_id, B_DELIVER)
        # Epoch fencing: a partitioned ex-primary's delta dies here,
        # before it can reach the node's media; the pump drains on it.
        promised = node.promised_epoch
        if manifest.epoch < promised:
            events.emit(self.clock.now(), events.FENCED_WRITE,
                        group=cluster.gid, node=node.node_id,
                        ckpt=leg.ckpt, epoch=manifest.epoch,
                        promised=promised)
            cluster.stats["fenced_writes"] += 1
            raise StaleEpoch(
                f"node {node.node_id} promised epoch {promised}, delta "
                f"carries epoch {manifest.epoch}: write fenced",
                epoch=promised)
        registry = telemetry.registry()
        labels = leg_labels(cluster.group, node.node_id, leg.ckpt,
                            manifest.trace)
        with tracing.use(manifest.trace):
            with registry.span(self.clock, "repl.deliver", **labels):
                stream = assemble(manifest,
                                  {meta.index: leg.payloads[meta.index]
                                   for meta in manifest.segments})
            with registry.span(self.clock, "repl.apply", **labels):
                node.apply(leg.ckpt, stream, epoch=manifest.epoch,
                           keep=cluster.keep_for(node, leg.ckpt))
        node.shards[leg.ckpt] = (manifest, leg.payloads)
        if plan is not None:
            plan.on_boundary(faults.REPL, node.node_id, B_APPLY)
        if node.down_since is not None:
            now = self.clock.now()
            events.emit(now, events.LINK_UP, group=cluster.gid,
                        outage_ns=now - node.down_since)
            node.down_since = None
        node.health.record_success()
        skew = self.ack_skew(node)
        if skew is None:
            self._follow(node)
        else:
            self._at(self.clock.now() + skew, self._ack, leg)

    def _ack(self, leg: Leg) -> None:
        if self.plan is not None:
            self.plan.on_boundary(faults.REPL, leg.node.node_id, B_ACK)
        cluster = self.cluster
        cluster.stats["acks"] += 1
        trace = leg.manifest.trace
        with tracing.use(trace):
            now = self.clock.now()
            telemetry.registry().record_span(
                "repl.ack", now, now,
                **leg_labels(cluster.group, leg.node.node_id, leg.ckpt,
                             trace))
        cluster._credit(leg.node.node_id, leg.ckpt)
        self._follow(leg.node)

    def _follow(self, node: "ClusterNode") -> None:
        """Ship the node's next checkpoint, if any, behind everything
        else due now (serializing it holds the primary's clock)."""
        def next_leg() -> None:
            cursor = self.cluster._cursor(node, self.chain, self.ids)
            if cursor is not None and not node.down:
                self.dispatch(node, cursor.ckpt_id)
        self.loop.call_at(self.clock.now(), next_leg)

    def _failed(self, leg: Leg, exc: RetriesExhausted) -> None:
        """The retries did not outlast the flap: the first such failure
        opens the node's outage; a later pump tries again."""
        node, now = leg.node, self.clock.now()
        if node.down_since is None:
            node.down_since = leg.started
            node.stats["outages"] += 1
            events.emit(now, events.LINK_DOWN, group=self.cluster.gid,
                        node=node.node_id,
                        error=f"{type(exc).__name__}: {exc}")
        node.health.record_failure(now)


class Shipping:
    """The shipping half of :class:`~repro.core.cluster.SLSCluster`.
    Membership below is set and kept by the cluster."""

    primary: Orchestrator
    group: ConsistencyGroup
    gid: int
    nodes: List["ClusterNode"]
    write_quorum: int
    segment_bytes: int
    epoch: int
    fenced: bool
    stats: Dict[str, int]
    node_down: Callable[..., None]  # membership: SLSCluster.node_down

    def __init__(self) -> None:
        #: Quorum-durable watermark: newest primary checkpoint with a
        #: registered write quorum of acknowledgements.
        self.durable: Optional[int] = None
        #: Tracked primary checkpoint -> nodes whose ack registered.
        self.acks: Dict[int, Set[int]] = {}
        self.inter_az_bytes = 0
        #: Canonical shard cache of the checkpoints still to be shipped.
        self._streams: Dict[int, Shards] = {}
        #: When the pump first began shipping each tracked checkpoint.
        self._commit_seen: Dict[int, int] = {}

    # -- plumbing ----------------------------------------------------------

    def _clock(self) -> Any:
        """The reference clock: the primary's, which outlives crashes."""
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

    def shards_for(self, ckpt_id: int) -> Shards:
        """The canonical sharded delta of one primary checkpoint, memoized
        until a trim re-parents it, so a lagging node can land it."""
        cached = self._streams.get(ckpt_id)
        parent = self.primary.store.get_checkpoint(ckpt_id).parent
        if cached is None or cached[0].base != parent:
            cached = self._streams[ckpt_id] = self._shard_delta(
                self.primary, ckpt_id, ckpt_id, parent)
        if cached[0].trace is None:
            cached[0].trace = tracing.for_group(self.gid)
        # Stamped at ship time, not shard time: the wire always
        # carries the epoch this handle *currently* holds.
        cached[0].epoch = self.epoch
        return cached

    def _shard_delta(self, sls: Orchestrator, local: int, ckpt: int,
                     base: Optional[int]) -> Shards:
        """Re-serialize one checkpoint's delta from ``sls``'s store,
        where it is checkpoint ``local``, and shard it as primary
        checkpoint ``ckpt`` on top of primary checkpoint ``base`` (its
        local parent's; a local baseline's stream is full)."""
        info = sls.store.get_checkpoint(local)
        stream = migration.serialize_checkpoint(sls, self.gid,
                                                ckpt_id=local,
                                                since=info.parent)
        shards = shard_stream(self.gid, ckpt, stream, self.segment_bytes)
        shards[0].base = None if info.parent is None else base
        return shards

    def keep_for(self, node: "ClusterNode", ckpt: int) -> Optional[int]:
        """How many checkpoints ``node`` keeps once ``ckpt`` lands (None:
        no limit): the primary group's ``history_limit``, but never
        fewer than all above the quorum watermark, ``ckpt`` included,
        plus the newest at or below it, which recovery settles on."""
        limit, durable = self.group.history_limit, self.durable
        return None if limit is None else max(limit, 1 + sum(
            durable is None or c > durable for c in {*node.applied, ckpt}))

    # -- the legs ----------------------------------------------------------

    def _cursor(self, node: "ClusterNode", chain: List[CheckpointInfo],
                ids: List[int]) -> Optional[CheckpointInfo]:
        """``node``'s ship cursor: the oldest primary checkpoint newer
        than all it holds, unless it lacks that one's parent (repair
        lands it first, keeping the node's chain well-parented)."""
        newest = node.applied_max
        index = 0 if newest is None else bisect_right(ids, newest)
        if index == len(chain):
            return None
        parent = chain[index].parent
        if parent is not None and parent in self.acks \
                and parent not in node.applied:
            return None
        return chain[index]

    def _replicate(self) -> None:
        """One pump: dispatch every eligible leg at once and run them
        all until they have landed or failed."""
        chain = self.primary.store.checkpoints_for(self.gid)
        started = self._clock().now()
        fresh = []
        for info in reversed(chain):
            if info.ckpt_id in self.acks:
                break
            self.acks[info.ckpt_id] = set()
            fresh.append(info.ckpt_id)
        shipment = Shipment(self, chain)
        for node in self.nodes:
            if node.down:
                continue
            for ckpt in node.applied:
                acks = self.acks.get(ckpt)
                if acks is not None and node.node_id not in acks:
                    # On media (maybe rediscovered after a reboot) but
                    # never credited, as behind a one-way cut.
                    shipment.recredit(node, ckpt)
            cursor = self._cursor(node, chain, shipment.ids)
            if cursor is not None and node.health.should_attempt():
                shipment.dispatch(node, cursor.ckpt_id)
        shipment.run()
        for ckpt in fresh:
            # No leg could carry it yet: its lag runs from this pump.
            self._commit_seen.setdefault(ckpt, started)
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
            events.emit(self._clock().now(), events.QUORUM_STALL,
                        group=self.gid, ckpt=newest,
                        acks=len(self.acks.get(newest, ())),
                        needed=self.write_quorum)

    def ship_checkpoint(self, node: "ClusterNode", ckpt_id: int) -> bool:
        """Ship one checkpoint to one node as a leg of its own: True
        once it is on the node's media, False if the retries gave up."""
        shipment = Shipment(self, [])
        shipment.dispatch(node, ckpt_id)
        shipment.run()
        return ckpt_id in node.applied

    # -- quorum accounting -------------------------------------------------

    def _credit(self, node_id: int, ckpt: int) -> None:
        """Register one node's acknowledgement of a checkpoint."""
        acks = self.acks.setdefault(ckpt, set())
        acks.add(node_id)
        if len(acks) == len(self.nodes):
            # On every node's media: a wipe alone re-derives it.
            self._streams.pop(ckpt, None)
        self._maybe_advance(ckpt)

    def _maybe_advance(self, ckpt: int) -> None:
        if self.fenced:
            # A fenced ex-primary must not acknowledge anything: the
            # new epoch's primary owns the watermark now.
            return
        if len(self.acks.get(ckpt, ())) < self.write_quorum:
            return
        if self.durable is not None and ckpt <= self.durable:
            return
        now = self._clock().now()
        self.durable = ckpt
        self.stats["ckpts_replicated"] += 1
        lag = now - self._commit_seen.get(ckpt, now)
        events.emit(now, events.QUORUM_ACK, group=self.gid, ckpt=ckpt,
                    acks=len(self.acks[ckpt]), lag_ns=lag,
                    tenant=self.group.name)
        self.primary.slo.on_quorum_ack(self.gid, lag, now_ns=now)
