"""Deterministic fault injection for crash-schedule exploration.

Aurora's core claim is that a whole application survives a power
failure at *any* instant (§5, §7).  A :class:`FaultPlan` turns "any
instant" into an enumerable schedule: every device write gets a
monotonically increasing IO index, and the checkpoint pipeline reports
every stage boundary, so a test can say "crash exactly at IO 17" or
"crash right before the seal stage" and get the same instant on every
run.  The plan is threaded through :class:`~repro.hw.nvme.StripedArray`
(IO faults) and :class:`~repro.core.pipeline.CheckpointPipeline`
(stage-boundary faults); :meth:`~repro.machine.Machine.set_fault_plan`
installs it and a machine crash clears it.

Four fault kinds:

* ``crash`` — power fails the instant before the write is issued (or
  at the stage boundary): :class:`InjectedCrash` unwinds to the test
  harness, which calls ``machine.crash()`` to tear in-flight IO.
* ``torn`` — the first half of the write reaches media, then power
  fails: the truncated payload is forced durable and
  :class:`InjectedCrash` is raised.
* ``bitflip`` — one byte of the payload is silently corrupted; the
  write completes normally (the scrubber's prey).
* ``nospace`` — the device reports ``ENOSPC`` for this command.

Two *retryable* kinds model transient trouble — the device (or link)
fails but a retry may succeed, which is what the
:mod:`~repro.core.resilience` policy layer exists for:

* ``transient`` — the command at a given IO (or read) index fails
  ``times`` times with :class:`~repro.errors.TransientDeviceError`,
  then succeeds.  The index does *not* advance on a transient failure
  (the command never reached the queue), so a retry deterministically
  re-hits the same registration until it is exhausted.
* ``intermittent`` — every write attempt independently fails with
  probability ``p`` drawn from the plan's seeded RNG (optionally
  capped at ``limit`` total failures); identical seeds replay the
  identical failure sequence.

``flaky_link`` does the same for the replication link: the next
``times`` ship attempts raise :class:`~repro.errors.LinkDown`.

Network partitions are first-class: :meth:`FaultPlan.partition` (cut a
node set off symmetrically), :meth:`FaultPlan.asym_partition` (one-way
link drops) and :meth:`FaultPlan.partial_partition` (an exact directed
pair list) install directed cuts consulted by :meth:`on_deliver` —
the hook the cluster threads through every *delivery* direction (ship
leg, ack leg, repair donor leg, lease ping), so delivery, not just
shipping, fails per-direction.  :meth:`delay_link` adds per-direction
message-delay skew instead of a cut.  Cuts can be armed to install
when a given replication boundary is crossed (``at_repl=``), and
:meth:`heal_after_drops` gives seeded plans a deterministic self-heal
budget so :meth:`FaultPlan.random` can emit partition schedules that
are guaranteed to heal.

Everything a plan does is a pure function of its registrations, so a
seeded plan (:meth:`FaultPlan.random`) reproduces exactly.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import LinkDown, NoSpace, ReproError, TransientDeviceError
from . import events as sls_events

#: Fault kinds.
CRASH = "crash"
TORN = "torn"
BITFLIP = "bitflip"
NOSPACE = "nospace"
TRANSIENT = "transient"
INTERMITTENT = "intermittent"
LINKFLAP = "linkflap"
NODECRASH = "nodecrash"
PARTITION = "partition"
ASYM_PARTITION = "asym_partition"
PARTIAL_PARTITION = "partial_partition"

#: Endpoint id of the *primary* in directional cut pairs — cluster
#: nodes are numbered from 0, so the primary gets a sentinel that can
#: never collide with a node id.
PRIMARY = -1

#: Stage-boundary edges.
BEFORE = "before"
AFTER = "after"


class InjectedFault(ReproError):
    """Base class for failures raised by a :class:`FaultPlan`."""


class InjectedCrash(InjectedFault):
    """A scheduled power failure fired.

    The simulated machine is *not* crashed yet when this unwinds; the
    harness models the power loss by calling ``machine.crash()``,
    which tears away every write still in the device queues.
    """


class InjectedNodeCrash(InjectedFault):
    """A scheduled power failure of one *cluster node* fired.

    Unlike :class:`InjectedCrash` (the whole primary dies and the
    harness takes over), a node crash is survivable: the cluster pump
    catches it, downs that node, and keeps replicating to the rest —
    the quorum, not any single node, is the availability unit.
    """

    def __init__(self, message: str = "", node: int = 0) -> None:
        super().__init__(message)
        self.node = node


class FaultEvent:
    """One fault that fired (the plan's audit trail)."""

    __slots__ = ("kind", "io_index", "stage", "edge", "offset", "op",
                 "node")

    def __init__(self, kind: str, io_index: int,
                 stage: Optional[str] = None, edge: Optional[str] = None,
                 offset: Optional[int] = None, op: Optional[str] = None,
                 node: Optional[int] = None) -> None:
        self.kind = kind
        #: Number of device writes fully submitted when the fault fired.
        self.io_index = io_index
        self.stage = stage
        self.edge = edge
        self.offset = offset
        #: Which operation the fault hit: "write" (default), "read",
        #: "link", or "repl".
        self.op = op
        #: Cluster node a replication-boundary fault targeted.
        self.node = node

    def __repr__(self) -> str:
        where = (f"stage={self.stage}/{self.edge}" if self.stage
                 else f"io={self.io_index}")
        return f"FaultEvent({self.kind}, {where})"


class FaultPlan:
    """A reproducible schedule of injected faults.

    With no registrations the plan is a pure observer: it numbers
    every device write (``io_log``) and records every pipeline stage
    boundary (``boundaries_seen``), which is how the crash-schedule
    explorer discovers the schedule space before sweeping it.
    """

    def __init__(self, name: str = "", seed: int = 0) -> None:
        self.name = name
        self.seed = seed
        #: Installed by :meth:`~repro.machine.Machine.set_fault_plan`
        #: so fired faults land in the structured event log at the
        #: sim-instant they fired.
        self.clock: Optional[Any] = None
        #: Next IO index == number of writes fully submitted so far.
        self.io_index = 0
        self.io_log: List[int] = []
        #: Next read index == number of reads fully served so far.
        self.read_index = 0
        self.boundaries_seen: List[Tuple[str, str]] = []
        self.events: List[FaultEvent] = []
        self._io_faults: Dict[int, str] = {}
        self._stage_faults: Dict[Tuple[str, str], str] = {}
        #: Registered transient counts (immutable — what ``describe``
        #: reports) and mutable remaining counters consumed as fires.
        self._transient_writes: Dict[int, int] = {}
        self._transient_writes_left: Dict[int, int] = {}
        self._transient_reads: Dict[int, int] = {}
        self._transient_reads_left: Dict[int, int] = {}
        self._intermittent_p = 0.0
        self._intermittent_limit: Optional[int] = None
        self._intermittent_fired = 0
        self._intermittent_rng: Optional[random.Random] = None
        self._link_flaps = 0
        self._link_flaps_left = 0
        #: Every replication/quorum boundary seen, in order:
        #: ``(node_id, boundary)`` tuples — the cluster crash-schedule
        #: explorer's enumerable instants.
        self.repl_log: List[Tuple[int, str]] = []
        self._repl_faults: Dict[int, str] = {}
        #: Every fleet-scheduler boundary seen, in order:
        #: ``(group_id, boundary)`` tuples — ``admit`` (admission
        #: decision), ``dispatch`` (EDF dispatch) and ``widen``
        #: (backpressure widen).  The fleet crash-schedule explorer's
        #: enumerable instants.
        self.fleet_log: List[Tuple[int, str]] = []
        self._fleet_faults: Dict[int, str] = {}
        #: Directed cuts currently installed: ``(src, dst)`` pairs a
        #: delivery may not cross (``PRIMARY`` == -1 is the primary).
        self._cuts: Set[Tuple[int, int]] = set()
        #: Which registration kind cut each pair (for the audit trail).
        self._cut_kind: Dict[Tuple[int, int], str] = {}
        #: Per-direction message-delay skew in ns (no cut, just late).
        self._link_delays: Dict[Tuple[int, int], int] = {}
        #: The registered cut schedule, in registration order:
        #: ``(kind, at_repl, pairs)`` — what ``describe`` reports and
        #: the reproducibility contract for seeded partition plans.
        self._partition_regs: List[Tuple[str, Optional[int],
                                         Tuple[Tuple[int, int], ...]]] = []
        #: Cuts armed to install when ``repl_log`` reaches an index.
        self._pending_cuts: Dict[int, List[Tuple[str, Tuple[Tuple[int, int],
                                                            ...]]]] = {}
        #: Delivery audit trail: ``(src, dst, verdict)``.
        self.deliveries: List[Tuple[int, int, str]] = []
        #: Pairs that already fired a partition FaultEvent (fire-once
        #: per install; healing re-arms them).
        self._partition_fired: Set[Tuple[int, int]] = set()
        #: Auto-heal: total dropped deliveries before every cut heals
        #: (None = cuts persist until :meth:`heal`).
        self._drop_budget: Optional[int] = None
        self._drops = 0

    # -- registration ------------------------------------------------------

    def crash_at_io(self, index: int) -> "FaultPlan":
        """Power fails the instant write ``index`` would be issued."""
        self._io_faults[index] = CRASH
        return self

    def torn_at_io(self, index: int) -> "FaultPlan":
        """Write ``index`` is torn: half lands, then power fails."""
        self._io_faults[index] = TORN
        return self

    def bitflip_at_io(self, index: int) -> "FaultPlan":
        """Write ``index`` lands with one byte silently flipped."""
        self._io_faults[index] = BITFLIP
        return self

    def nospace_at_io(self, index: int) -> "FaultPlan":
        """Write ``index`` fails with ENOSPC."""
        self._io_faults[index] = NOSPACE
        return self

    def crash_at_stage(self, stage: str, edge: str = BEFORE) -> "FaultPlan":
        """Power fails at the named pipeline stage boundary."""
        if edge not in (BEFORE, AFTER):
            raise ValueError(f"bad stage edge {edge!r}")
        self._stage_faults[(stage, edge)] = CRASH
        return self

    def transient_at_io(self, index: int, times: int = 1) -> "FaultPlan":
        """Write ``index`` fails retryably ``times`` times, then lands."""
        if times < 1:
            raise ValueError("transient fault needs times >= 1")
        self._transient_writes[index] = times
        self._transient_writes_left[index] = times
        return self

    def transient_at_read(self, index: int, times: int = 1) -> "FaultPlan":
        """Read ``index`` fails retryably ``times`` times, then serves."""
        if times < 1:
            raise ValueError("transient fault needs times >= 1")
        self._transient_reads[index] = times
        self._transient_reads_left[index] = times
        return self

    def intermittent(self, p: float,
                     limit: Optional[int] = None) -> "FaultPlan":
        """Each write attempt fails retryably with probability ``p``.

        The draws come from a dedicated RNG seeded from the plan's
        seed, so an identical seed replays the identical sequence of
        failures.  ``limit`` caps the total number of fires.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bad intermittent probability {p!r}")
        self._intermittent_p = p
        self._intermittent_limit = limit
        self._intermittent_rng = random.Random(self.seed ^ 0xA5A5)
        return self

    def flaky_link(self, times: int = 1) -> "FaultPlan":
        """The next ``times`` replication ship attempts find the link
        down (:class:`~repro.errors.LinkDown`)."""
        if times < 1:
            raise ValueError("link flap needs times >= 1")
        self._link_flaps = times
        self._link_flaps_left = times
        return self

    def crash_at_repl(self, index: int) -> "FaultPlan":
        """The *primary* loses power the instant replication boundary
        ``index`` (an offset into ``repl_log``) is crossed."""
        self._repl_faults[index] = CRASH
        return self

    def node_crash_at_repl(self, index: int) -> "FaultPlan":
        """The *node* at replication boundary ``index`` loses power
        there (:class:`InjectedNodeCrash`; the cluster pump downs the
        node and carries on)."""
        self._repl_faults[index] = NODECRASH
        return self

    def crash_at_fleet(self, index: int) -> "FaultPlan":
        """Power fails the instant fleet-scheduler boundary ``index``
        (an offset into ``fleet_log``) is crossed."""
        self._fleet_faults[index] = CRASH
        return self

    # -- partitions --------------------------------------------------------

    def _register_cuts(self, kind: str, pairs: Iterable[Tuple[int, int]],
                       at_repl: Optional[int]) -> "FaultPlan":
        ordered = tuple(sorted(set(pairs)))
        if not ordered:
            raise ValueError("a partition needs at least one directed pair")
        self._partition_regs.append((kind, at_repl, ordered))
        if at_repl is None:
            self._install_cuts(kind, ordered)
        else:
            self._pending_cuts.setdefault(at_repl, []).append((kind, ordered))
        return self

    def _install_cuts(self, kind: str,
                      pairs: Tuple[Tuple[int, int], ...]) -> None:
        for pair in pairs:
            self._cuts.add(pair)
            self._cut_kind[pair] = kind
            self._partition_fired.discard(pair)

    def partition(self, side_a: Iterable[int], side_b: Iterable[int],
                  at_repl: Optional[int] = None) -> "FaultPlan":
        """Cut every link between the two node sets, both directions
        (use :data:`PRIMARY` for the primary endpoint).  With
        ``at_repl`` the cut installs only once replication boundary
        ``at_repl`` is crossed — how a campaign partitions the primary
        *mid-quorum*, deterministically."""
        a, b = list(side_a), list(side_b)
        pairs = [(x, y) for x in a for y in b if x != y]
        pairs += [(y, x) for x in a for y in b if x != y]
        return self._register_cuts(PARTITION, pairs, at_repl)

    def asym_partition(self, srcs: Iterable[int], dsts: Iterable[int],
                       at_repl: Optional[int] = None) -> "FaultPlan":
        """One-way cut: deliveries from ``srcs`` to ``dsts`` drop, the
        reverse direction stays up (asymmetric partition)."""
        pairs = [(s, d) for s in srcs for d in dsts if s != d]
        return self._register_cuts(ASYM_PARTITION, pairs, at_repl)

    def partial_partition(self, pairs: Iterable[Tuple[int, int]],
                          at_repl: Optional[int] = None) -> "FaultPlan":
        """Cut an exact list of directed ``(src, dst)`` links."""
        return self._register_cuts(PARTIAL_PARTITION, list(pairs), at_repl)

    def delay_link(self, src: int, dst: int, delay_ns: int) -> "FaultPlan":
        """Message-delay skew: every delivery ``src -> dst`` arrives
        ``delay_ns`` late (charged to the sender's clock)."""
        if delay_ns < 0:
            raise ValueError("delay must be >= 0")
        self._link_delays[(src, dst)] = delay_ns
        return self

    def heal_after_drops(self, count: int) -> "FaultPlan":
        """Every installed cut heals after ``count`` total dropped
        deliveries — the deterministic self-heal budget that lets
        seeded random plans emit partition schedules guaranteed to
        heal."""
        if count < 1:
            raise ValueError("heal budget needs count >= 1")
        self._drop_budget = count
        return self

    def heal(self) -> None:
        """Remove every cut; a later re-partition of the same pair
        fires a fresh fault event."""
        healed = len(self._cuts)
        self._partition_fired -= self._cuts
        self._cuts.clear()
        if healed and self.clock is not None:
            sls_events.emit(self.clock.now(), sls_events.NET_HEAL,
                            pairs=healed)

    def is_cut(self, src: int, dst: int) -> bool:
        """Whether a delivery ``src -> dst`` would currently drop."""
        return (src, dst) in self._cuts

    def cut_schedule(self) -> List[Tuple[str, Optional[int],
                                         Tuple[Tuple[int, int], ...]]]:
        """The registered cut schedule (kind, arm boundary, pairs) —
        pure registration state, identical for identical seeds."""
        return list(self._partition_regs)

    @classmethod
    def random(cls, seed: int, io_count: int,
               boundaries: Optional[List[Tuple[str, str]]] = None,
               nodes: Optional[int] = None) -> "FaultPlan":
        """A seeded one-fault plan over a known schedule space.

        The same ``(seed, io_count, boundaries, nodes)`` always yields
        the same plan — the fixed-seed smoke tests in CI rely on it.
        With ``nodes`` (a cluster size), half the seeds draw a
        partition schedule instead: a seeded symmetric, asymmetric, or
        partial cut over node ids plus :data:`PRIMARY`, with a seeded
        self-heal drop budget so every drawn partition heals.
        """
        rng = random.Random(seed)
        plan = cls(name=f"random-{seed}", seed=seed)
        if nodes is not None and nodes >= 2 and rng.random() < 0.5:
            ids = [PRIMARY] + list(range(nodes))
            kind = (PARTITION, ASYM_PARTITION,
                    PARTIAL_PARTITION)[rng.randrange(3)]
            shuffled = rng.sample(ids, len(ids))
            split = 1 + rng.randrange(len(ids) - 1)
            side_a, side_b = shuffled[:split], shuffled[split:]
            if kind == PARTITION:
                plan.partition(side_a, side_b)
            elif kind == ASYM_PARTITION:
                plan.asym_partition(side_a, side_b)
            else:
                npairs = 1 + rng.randrange(len(ids))
                pairs = set()
                for _ in range(npairs):
                    src, dst = rng.sample(ids, 2)
                    pairs.add((src, dst))
                plan.partial_partition(sorted(pairs))
            if rng.random() < 0.5:
                src, dst = rng.sample(ids, 2)
                plan.delay_link(src, dst, (1 + rng.randrange(8)) * 1_000_000)
            plan.heal_after_drops(1 + rng.randrange(8))
            return plan
        kinds = [CRASH, TORN, BITFLIP, NOSPACE,
                 TRANSIENT, TRANSIENT, INTERMITTENT]
        if boundaries and rng.random() < 0.25:
            stage, edge = boundaries[rng.randrange(len(boundaries))]
            plan.crash_at_stage(stage, edge)
            return plan
        index = rng.randrange(max(io_count, 1))
        kind = kinds[rng.randrange(len(kinds))]
        if kind == TRANSIENT:
            plan.transient_at_io(index, times=1 + rng.randrange(3))
        elif kind == INTERMITTENT:
            plan.intermittent(p=0.05 + 0.15 * rng.random(), limit=4)
        else:
            plan._io_faults[index] = kind
        return plan

    def describe(self) -> str:
        """Human-readable registration summary (stable across runs).

        Transient counts report the *registered* fail budget, not the
        mutable remainder, so the description is identical before and
        after a run — the reproducibility tests compare exactly that.
        """
        io_parts = {idx: f"io{idx}:{kind}"
                    for idx, kind in self._io_faults.items()}
        for idx, times in self._transient_writes.items():
            io_parts[idx] = f"io{idx}:{TRANSIENT}(x{times})"
        parts = [io_parts[idx] for idx in sorted(io_parts)]
        parts += [f"read{idx}:{TRANSIENT}(x{times})"
                  for idx, times in sorted(self._transient_reads.items())]
        parts += [f"{stage}/{edge}:{kind}"
                  for (stage, edge), kind
                  in sorted(self._stage_faults.items())]
        if self._intermittent_p > 0.0:
            limit = ("" if self._intermittent_limit is None
                     else f",limit={self._intermittent_limit}")
            parts.append(f"{INTERMITTENT}(p={self._intermittent_p:.4f}"
                         f"{limit})")
        if self._link_flaps:
            parts.append(f"link:flap(x{self._link_flaps})")
        for cut_kind, at_repl, pairs in self._partition_regs:
            arms = "" if at_repl is None else f"@repl{at_repl}"
            links = ";".join(f"{s}>{d}" for s, d in pairs)
            parts.append(f"{cut_kind}{arms}{{{links}}}")
        for (src, dst), delay in sorted(self._link_delays.items()):
            parts.append(f"delay{{{src}>{dst}}}:+{delay}ns")
        if self._drop_budget is not None:
            parts.append(f"heal_after({self._drop_budget})")
        parts += [f"repl{idx}:{kind}"
                  for idx, kind in sorted(self._repl_faults.items())]
        parts += [f"fleet{idx}:{kind}"
                  for idx, kind in sorted(self._fleet_faults.items())]
        return ",".join(parts) or "observe"

    # -- hooks (called by the device array and the pipeline) ---------------

    def _fire(self, kind: str, stage: Optional[str] = None,
              edge: Optional[str] = None,
              offset: Optional[int] = None,
              op: Optional[str] = None,
              node: Optional[int] = None) -> FaultEvent:
        event = FaultEvent(kind, self.io_index, stage=stage, edge=edge,
                           offset=offset, op=op, node=node)
        self.events.append(event)
        if self.clock is not None:
            sls_events.emit(self.clock.now(), sls_events.FAULT_INJECTED,
                            fault=kind, io_index=self.io_index,
                            stage=stage, edge=edge, offset=offset,
                            op=op, node=node)
        return event

    def on_io(self, offset: int, payload: Any,
              sync: bool) -> Tuple[str, Any]:
        """Called by the device array before each write is queued.

        Returns ``(verb, payload)`` where verb is ``"ok"`` (queue the
        returned payload normally) or ``"torn"`` (force the returned
        truncated payload durable, then the array raises the crash).
        May raise :class:`InjectedCrash`,
        :class:`~repro.errors.NoSpace`, or — for the retryable kinds —
        :class:`~repro.errors.TransientDeviceError`.  Retryable
        failures do *not* advance the IO index: the command never
        reached the queue, so a retry re-hits the same index.
        """
        index = self.io_index
        left = self._transient_writes_left.get(index, 0)
        if left > 0:
            self._transient_writes_left[index] = left - 1
            self._fire(TRANSIENT, offset=offset, op="write")
            raise TransientDeviceError(
                f"injected transient write error at IO {index} "
                f"(offset {offset}, {left - 1} more)")
        rng = self._intermittent_rng
        if (rng is not None and self._intermittent_p > 0.0
                and (self._intermittent_limit is None
                     or self._intermittent_fired < self._intermittent_limit)
                and rng.random() < self._intermittent_p):
            self._intermittent_fired += 1
            self._fire(INTERMITTENT, offset=offset, op="write")
            raise TransientDeviceError(
                f"injected intermittent write error at IO {index} "
                f"(offset {offset})")
        kind = self._io_faults.get(index)
        if kind == CRASH:
            self._fire(CRASH, offset=offset)
            raise InjectedCrash(
                f"injected power failure at IO {index} (offset {offset})")
        if kind == NOSPACE:
            self._fire(NOSPACE, offset=offset)
            raise NoSpace(f"injected ENOSPC at IO {index}")
        # The write reaches the queue: it counts.
        self.io_index += 1
        self.io_log.append(offset)
        if kind == BITFLIP:
            self._fire(BITFLIP, offset=offset)
            return "ok", _flip_payload(payload, self.seed)
        if kind == TORN:
            self._fire(TORN, offset=offset)
            return "torn", _tear_payload(payload)
        return "ok", payload

    def on_read(self, offset: int) -> None:
        """Called by the device array before each read is served.

        Raises :class:`~repro.errors.TransientDeviceError` while the
        registration at the current read index has fails left; the
        read index only advances once the read actually serves.
        """
        index = self.read_index
        left = self._transient_reads_left.get(index, 0)
        if left > 0:
            self._transient_reads_left[index] = left - 1
            self._fire(TRANSIENT, offset=offset, op="read")
            raise TransientDeviceError(
                f"injected transient read error at read {index} "
                f"(offset {offset}, {left - 1} more)")
        self.read_index += 1

    def on_link(self) -> None:
        """Called by the replication link before each ship attempt."""
        if self._link_flaps_left > 0:
            self._link_flaps_left -= 1
            self._fire(LINKFLAP, op="link")
            raise LinkDown(
                f"injected link flap ({self._link_flaps_left} more)")

    def on_deliver(self, src: int, dst: int) -> int:
        """Called before a message crosses the ``src -> dst`` link
        (ship leg, ack leg, repair donor leg, lease ping).

        Raises :class:`~repro.errors.LinkDown` when the direction is
        cut — retryable, so the standard backoff/health machinery
        absorbs it — and otherwise returns the extra delay (ns) the
        caller must charge for message skew.
        """
        pair = (src, dst)
        if pair in self._cuts:
            self.deliveries.append((src, dst, "dropped"))
            self._drops += 1
            if pair not in self._partition_fired:
                self._partition_fired.add(pair)
                self._fire(self._cut_kind.get(pair, PARTITION), op="net",
                           node=dst if dst >= 0 else src)
            if (self._drop_budget is not None
                    and self._drops >= self._drop_budget):
                self.heal()
            raise LinkDown(f"partitioned: delivery {src}->{dst} dropped")
        self.deliveries.append((src, dst, "ok"))
        return self._link_delays.get(pair, 0)

    def on_repl(self, node: int, boundary: str) -> None:
        """Called by the cluster pump at each replication/quorum
        boundary of each node (ship, deliver, apply, ack, repair —
        plus ``epoch``/``lease``/``reconcile`` control-plane
        boundaries).

        Like :meth:`on_stage`, the boundary is recorded first, then a
        registered crash fires *at* it: work preceding the boundary is
        complete when the crash unwinds, work after it never happened.
        Cuts armed with ``at_repl`` install here, after the boundary
        records but before any registered crash — a partition and a
        crash at the same instant still partitions first.
        """
        self.repl_log.append((node, boundary))
        pending = self._pending_cuts.pop(len(self.repl_log) - 1, None)
        if pending is not None:
            for cut_kind, pairs in pending:
                self._install_cuts(cut_kind, pairs)
                if self.clock is not None:
                    sls_events.emit(self.clock.now(),
                                    sls_events.NET_PARTITION,
                                    cut=cut_kind, pairs=len(pairs),
                                    at_repl=len(self.repl_log) - 1)
        kind = self._repl_faults.get(len(self.repl_log) - 1)
        if kind == CRASH:
            self._fire(CRASH, op="repl", node=node, stage=boundary)
            raise InjectedCrash(
                f"injected primary power failure at replication "
                f"boundary {len(self.repl_log) - 1} "
                f"(node {node}, {boundary})")
        if kind == NODECRASH:
            self._fire(NODECRASH, op="repl", node=node, stage=boundary)
            raise InjectedNodeCrash(
                f"injected node {node} power failure at replication "
                f"boundary {len(self.repl_log) - 1} ({boundary})",
                node=node)

    def on_fleet(self, group: int, boundary: str) -> None:
        """Called by the fleet scheduler at each control-plane
        boundary (admission decision, EDF dispatch, backpressure
        widen).

        Like :meth:`on_stage`, the boundary is recorded first, then a
        registered crash fires *at* it: state changed before the
        boundary survives to the post-crash store, state after it
        never happened.
        """
        self.fleet_log.append((group, boundary))
        if self._fleet_faults.get(len(self.fleet_log) - 1) == CRASH:
            self._fire(CRASH, op="fleet", node=group, stage=boundary)
            raise InjectedCrash(
                f"injected power failure at fleet boundary "
                f"{len(self.fleet_log) - 1} (group {group}, {boundary})")

    def on_stage(self, stage: str, edge: str) -> None:
        """Called by the checkpoint pipeline at each stage boundary."""
        self.boundaries_seen.append((stage, edge))
        if self._stage_faults.get((stage, edge)) == CRASH:
            self._fire(CRASH, stage=stage, edge=edge)
            raise InjectedCrash(
                f"injected power failure {edge} stage {stage!r}")

    # -- audit -------------------------------------------------------------

    @property
    def fired(self) -> bool:
        """True once at least one registered fault fired."""
        return bool(self.events)

    def __repr__(self) -> str:
        return (f"FaultPlan({self.name or 'anon'}: {self.describe()}, "
                f"{self.io_index} IOs seen, {len(self.events)} fired)")


def _flip_payload(payload: Any, seed: int) -> Any:
    """One corrupted byte (real payloads) or a perturbed seed
    (synthetic payloads — their content is a function of the seed)."""
    if isinstance(payload, bytes):
        if not payload:
            return payload
        index = seed % len(payload)
        return (payload[:index] + bytes([payload[index] ^ 0x80]) +
                payload[index + 1:])
    tag, syn_seed, length = payload
    return (tag, syn_seed ^ 0x1, length)


def _tear_payload(payload: Any) -> Any:
    """The prefix of the write that reached media before power died."""
    if isinstance(payload, bytes):
        return payload[:max(1, len(payload) // 2)]
    tag, syn_seed, length = payload
    return (tag, syn_seed, max(1, length // 2))
