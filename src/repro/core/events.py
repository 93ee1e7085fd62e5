"""The structured event log: what happened, when, on the sim clock.

Spans answer "how long"; events answer "what happened".  Every
operationally interesting state transition — a checkpoint starting,
committing or failing, an epoch floor advancing, a fault injection
firing, a GC reclaim, a scrub finding — lands in one process-wide
bounded :class:`EventLog` stamped with the simulated time at which it
occurred and the trace it belongs to (when one is active).

Emission is free on the simulated clock: an event records the
caller-supplied ``clock.now()`` and never advances anything, so
instrumented runs are timing-identical to uninstrumented ones — and
because the simulation is deterministic, so is the event log: two
identical runs produce byte-identical logs, which is what lets the
crash-schedule tests assert "this fault fired at exactly this
sim-instant".

``sls events`` prints the log; :func:`repro.core.telemetry.reset`
clears it (via the reset hook) together with the metric registry.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..serde import Encoded
from . import telemetry

#: Event kinds.
CKPT_START = "checkpoint.start"
CKPT_COMMIT = "checkpoint.commit"
CKPT_FAIL = "checkpoint.fail"
CKPT_ABORT = "checkpoint.abort"
EPOCH_ADVANCE = "epoch.advance"
FAULT_INJECTED = "fault.injected"
GC_RECLAIM = "gc.reclaim"
SCRUB_FINDING = "scrub.finding"
RESTORE_DONE = "restore.done"
RETRY = "resilience.retry"
RETRY_EXHAUSTED = "resilience.exhausted"
READ_FALLBACK = "resilience.read_fallback"
REPAIR_APPLIED = "repair.applied"
DEGRADED_ENTER = "degraded.enter"
DEGRADED_EXIT = "degraded.exit"
GC_EMERGENCY = "gc.emergency"
LINK_DOWN = "replication.link_down"
LINK_UP = "replication.link_up"
NODE_DOWN = "cluster.node_down"
NODE_UP = "cluster.node_up"
QUORUM_ACK = "cluster.quorum_ack"
QUORUM_STALL = "cluster.quorum_stall"
TAIL_TRUNCATE = "cluster.truncate"
PROMOTE = "cluster.promote"
SEGMENT_REPAIRED = "cluster.segment_repaired"
REPAIR_DONE = "cluster.repair_done"
FENCED_WRITE = "cluster.fenced_write"
EPOCH_BUMP = "cluster.epoch_bump"
LEASE_RENEW = "cluster.lease_renew"
LEASE_EXPIRE = "cluster.lease_expire"
STALE_PRIMARY = "cluster.stale_primary"
FORCED_PROMOTE = "cluster.forced_promote"
RECONCILE_DONE = "cluster.reconcile_done"
NET_PARTITION = "net.partition"
NET_HEAL = "net.heal"
FLEET_ADMIT = "fleet.admit"
FLEET_EVICT = "fleet.evict"
ADMISSION_REJECT = "fleet.admission_reject"
BACKPRESSURE = "fleet.backpressure"
DEADLINE_MISS = "fleet.deadline_miss"
SLO_ALERT = "slo.alert"


class Event:
    """One structured log entry.

    Immutable once emitted: nothing may change an event (or a value
    inside ``fields``) after it enters the ring.  The flight recorder
    relies on it — it encodes each event's snapshot row once and keeps
    the bytes in ``encoded`` for as long as the ring keeps the event.
    """

    __slots__ = ("time_ns", "kind", "fields", "trace_id", "encoded")

    def __init__(self, time_ns: int, kind: str, fields: Dict[str, Any],
                 trace_id: Optional[int]):
        self.time_ns = time_ns
        self.kind = kind
        self.fields = fields
        self.trace_id = trace_id
        #: The flight recorder's encoded row (``serde.Encoded``), set
        #: the first time a snapshot includes this event.
        self.encoded: Optional[Encoded] = None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"time_ns": self.time_ns, "kind": self.kind,
                               "trace_id": self.trace_id}
        out.update(self.fields)
        return out

    def __repr__(self) -> str:
        return f"Event({self.time_ns}ns {self.kind} {self.fields})"


class EventLog:
    """Bounded, process-wide structured event ring."""

    #: Enough for a long benchmark run's recent history; evictions are
    #: counted in ``sls.telemetry.events_dropped``.
    CAPACITY = 4096

    def __init__(self, capacity: int = CAPACITY):
        self.events: telemetry.Ring[Event] = telemetry.Ring(capacity)

    def emit(self, time_ns: int, kind: str,
             **fields: Any) -> Optional[Event]:
        """Record one event (no-op while telemetry is disabled)."""
        registry = telemetry.registry()
        if not registry.enabled:
            return None
        active = registry.active_trace
        trace_id = getattr(active, "trace_id", None)
        event = Event(time_ns, kind, fields, trace_id)
        if self.events.push(event):
            registry.counter("sls.telemetry.events_dropped").add(1)
        registry.counter(f"sls.events.{kind}").add(1)
        return event

    def matching(self, kind: Optional[str] = None,
                 **fields: Any) -> List[Event]:
        """Events filtered by kind prefix and field subset."""
        out = []
        for event in self.events:
            if kind is not None and not event.kind.startswith(kind):
                continue
            if all(event.fields.get(k) == v for k, v in fields.items()):
                out.append(event)
        return out

    def reset(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


_LOG = EventLog()
telemetry.on_reset(_LOG.reset)


def log() -> EventLog:
    """The process-wide event log."""
    return _LOG


def emit(time_ns: int, kind: str, **fields: Any) -> Optional[Event]:
    """Emit into the process-wide log."""
    return _LOG.emit(time_ns, kind, **fields)
