"""The crash-persistent flight recorder.

Aurora's thesis is that *all* state belongs in the single level store
— including the observability state that explains a crash.  The flight
recorder snapshots the volatile telemetry surfaces — the structured
event ring, recent span summaries, retry/degraded-mode counters and
per-tenant SLO samples — into one bounded, fixed-size record that the
object store places next to every catalog write and anchors from the
superblock it flips.  Durability therefore rides the commit protocol
itself: a snapshot is meaningful exactly when its superblock is, and a
crash at any instant leaves the black box of the *previous* durable
commit intact.

Two invariants keep instrumented runs timing-identical and crash
schedules stable, and a third keeps the recorder's wall cost off the
commit path:

* **Zero simulated cost** — the snapshot lands via the device's
  ``place_extent`` path: no clock advance, no bandwidth, no fault-plan
  IO index, no span.  Crash schedules enumerate exactly the same
  points with or without the recorder.
* **Fixed size** — the encoded record is always exactly
  :data:`FLIGHTREC_BYTES` (content is shed oldest-first, then padded),
  so allocator cursors and superblock record lengths — and with them
  every downstream IO cost — are identical whether telemetry is
  enabled or disabled.
* **Built when read** — a flip captures what its record is made of
  (:class:`Capture`: the ring tails, the SLO row fragments, each
  persisted counter's value, the head fields) and places the capture
  as a deferred payload; the device builds the bytes with the one
  encoder the first time the extent is read and keeps them.  Only a
  reader after the fact ever needs them — ``sls blackbox``, a saved
  image, a digest — so most records are never built, and a record
  that is built is byte-identical to encoding it at its flip.

Reconstruction (:func:`blackbox`, surfaced as ``sls blackbox``) reads
the raw superblock slots of an unmounted or crashed store, follows the
newest valid anchor, and rebuilds the timeline leading up to the
crash.  The snapshot is taken *before* its own superblock flip, so the
flip's success is itself evidence: a recovered snapshot's pending
commit is synthesized into the timeline as the last durable commit.
An optional still-live event ring (it survives a simulated power
failure in-process) is merged in as the post-snapshot tail — the
events, fault injections included, that never reached durability.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from .. import serde
from ..errors import CorruptRecord, ReproError, StoreError
from ..hw.nvme import DeferredPayload
from . import events as events_mod
from . import telemetry

#: Exact on-media size of every flight-recorder record.
FLIGHTREC_BYTES = 64 * 1024
#: Content caps (shed further, oldest first, if the encode overflows).
MAX_EVENTS = 256
MAX_SPANS = 128
MAX_SLO_TAIL = 32
FORMAT_VERSION = 1

#: Synthetic kind closing a recovered timeline: the commit the
#: snapshot rode to disk, proven durable by its anchoring superblock.
COMMIT_DURABLE = "flightrec.commit_durable"

#: The snapshot's row lists, in the order an over-budget snapshot
#: sheds them.
_ROW_KEYS = ("events", "spans", "slo", "counters")


def _clean(value: Any) -> Any:
    """Coerce a value into the strict serde vocabulary (floats and
    exotic objects become their string form)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _clean(item) for key, item in value.items()}
    return str(value)


def _event_row(event: Any) -> Dict[str, Any]:
    return {
        "time_ns": event.time_ns,
        "kind": event.kind,
        "trace_id": event.trace_id,
        "fields": _clean(event.fields),
    }


def _span_row(span: Any) -> Dict[str, Any]:
    return {
        "name": span.name,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "labels": _clean(span.labels),
    }


def _slo_row(tracker: Any, gid: int) -> Dict[str, Any]:
    """One tenant's SLO state: commits, sample summaries, the recent
    RPO-lag tail, and degraded/burn state."""
    state = tracker.groups[gid]
    series = state.series
    return {
        "group": gid,
        "tenant": tracker.tenant_names.get(gid),
        "commits": state.commits,
        "rpo_lag": _clean(series["rpo_lag"].summary()),
        "rpo_tail": series["rpo_lag"].tail(MAX_SLO_TAIL),
        "stop": _clean(series["stop"].summary()),
        "quorum_lag": _clean(series["quorum_lag"].summary()),
        "degraded_total_ns": state.degraded_total_ns,
        "degraded_open": state.degraded_since is not None,
        "rpo_burn_milli": tracker.burn_rate_milli(gid, "rpo"),
        "quorum_burn_milli": tracker.burn_rate_milli(gid, "quorum"),
    }


def _counter_row(counter: Any, value: int) -> Dict[str, Any]:
    return {"name": counter.name, "labels": _clean(counter.labels),
            "value": value}


def _counter_rows(registry: Any) -> List[Dict[str, Any]]:
    """The history counters' rows, grouped by prefix (registration
    order within a prefix)."""
    return [_counter_row(counter, counter.value)
            for prefix in telemetry.PERSISTED_PREFIXES
            for counter in registry.persisted[prefix]]


def _snapshot_head(store: Any, pending: Optional[Dict[str, Any]],
                   generation: int) -> Dict[str, Any]:
    """The snapshot body without its row lists."""
    registry = telemetry.registry()
    return {
        "version": FORMAT_VERSION,
        "generation": generation,
        "time_ns": store.clock.now(),
        "pending": _clean(pending) if pending else None,
        "telemetry_enabled": bool(registry.enabled),
        "events_retained": len(events_mod.log()),
        "events_dropped": registry.value("sls.telemetry.events_dropped"),
        "traces_dropped": registry.value("sls.telemetry.traces_dropped"),
    }


def _recent(store: Any) -> Tuple[List[Any], List[Any], Any, List[int]]:
    """What the row lists are made from: the newest events and spans,
    and the SLO tracker with its group ids in row order."""
    tracker = getattr(store, "_slo_tracker", None)
    return (telemetry.ring_tail(events_mod.log().events, MAX_EVENTS),
            telemetry.ring_tail(telemetry.registry().spans, MAX_SPANS),
            tracker, sorted(tracker.groups) if tracker is not None else [])


def build_snapshot(store: Any, pending: Optional[Dict[str, Any]] = None,
                   generation: int = 0) -> Dict[str, Any]:
    """The snapshot body (unpadded, nothing shed) as of the store's
    clock now, as plain values."""
    recent_events, recent_spans, tracker, gids = _recent(store)
    body = _snapshot_head(store, pending, generation)
    body["events"] = [_event_row(event) for event in recent_events]
    body["spans"] = [_span_row(span) for span in recent_spans]
    body["slo"] = [_slo_row(tracker, gid) for gid in gids]
    body["counters"] = _counter_rows(telemetry.registry())
    return body


def _event_fragment(event: Any) -> serde.Encoded:
    """An event's row, encoded the first time any record needs it and
    kept on the event (it is immutable once in its ring)."""
    if event.encoded is None:
        event.encoded = serde.fragment(_event_row(event))
    return event.encoded


def _span_fragment(span: Any) -> serde.Encoded:
    """A span's row, encoded once and kept on the span."""
    if span.encoded is None:
        span.encoded = serde.fragment(_span_row(span))
    return span.encoded


def _counter_fragment(counter: Any, value: int) -> serde.Encoded:
    """A counter's row at ``value``, re-encoded only when the value is
    not the one its kept row was encoded at."""
    encoded = counter.encoded
    if encoded is None or encoded[0] != value:
        encoded = counter.encoded = (
            value, serde.fragment(_counter_row(counter, value)))
    return encoded[1]


@lru_cache(maxsize=None)
def _envelope_bytes() -> int:
    """Bytes a flight-recorder record spends outside its body: the
    serde frame plus the record envelope."""
    from ..objstore import records

    return len(records.encode(records.REC_FLIGHTREC, serde.Encoded(b"")))


def _encode(head: Dict[str, Any], rows: Dict[str, List[serde.Encoded]],
            room: int) -> bytes:
    """The one encoder: a record of exactly :data:`FLIGHTREC_BYTES`
    from the head fields, each row list's fragments and the body's
    ``room`` for rows and pad.

    Over-budget content is shed oldest-first (events, then spans, then
    SLO rows, then counters), halving one list at a time; the
    remainder is zero-padded.  The serde layer's fixed 8-byte length
    prefixes make a record's size the sum of its parts, so what to
    shed and how much to pad is decided on the rows' encoded sizes and
    the record is encoded exactly once.
    """
    from ..objstore import records

    body = dict(head)
    used = sum(sum(map(len, rows[key])) for key in _ROW_KEYS)
    for key in _ROW_KEYS:
        kept = rows[key]
        while used > room and kept:
            cut = len(kept) // 2 + 1
            used -= sum(map(len, kept[:cut]))
            kept = kept[cut:]
        body[key] = serde.frame_list(kept)
    body["pad"] = bytes(room - used)
    payload = records.encode(records.REC_FLIGHTREC, body)
    if len(payload) != FLIGHTREC_BYTES:
        raise StoreError(
            f"flight recorder snapshot encoded to {len(payload)} bytes, "
            f"not {FLIGHTREC_BYTES}")
    return payload


class Capture(DeferredPayload):
    """One flip's flight record, captured rather than encoded: the
    head fields, the event and span ring tails (immutable once in their
    rings), each tenant's SLO row fragment and each persisted counter
    with its value, all as of the flip.  Its length is
    :data:`FLIGHTREC_BYTES`; its bytes are built by :meth:`build` the
    first time the extent is read, and the capture then lets go of
    every event and span it held."""

    __slots__ = ("_parts", "_bytes")

    def __init__(self, head: Dict[str, Any], events: List[Any],
                 spans: List[Any], slo: List[serde.Encoded],
                 counters: List[Tuple[Any, int]], room: int) -> None:
        self._parts: Optional[Tuple[Any, ...]] = (
            head, events, spans, slo, counters, room)
        self._bytes = b""

    def __len__(self) -> int:
        return FLIGHTREC_BYTES

    def build(self) -> bytes:
        """The record's bytes: built on the first call, the same bytes
        on every later one."""
        if self._parts is not None:
            head, events, spans, slo, counters, room = self._parts
            self._bytes = _encode(head, {
                "events": [_event_fragment(event) for event in events],
                "spans": [_span_fragment(span) for span in spans],
                "slo": slo,
                "counters": [_counter_fragment(counter, value)
                             for counter, value in counters]}, room)
            self._parts = None
        return self._bytes


def encode_snapshot(store: Any, pending: Optional[Dict[str, Any]] = None,
                    generation: int = 0) -> Capture:
    """Capture the snapshot as of the store's clock now, as a record of
    exactly :data:`FLIGHTREC_BYTES` whose bytes are built on first read
    (:meth:`Capture.build`).

    The only encoding done here is a tenant's SLO row after a write to
    that tenant's state (the tracker drops ``encoded_row``; the state
    is mutable, so its row cannot wait) and the head with empty row
    lists, which must fit: a snapshot that cannot fit even when empty
    is a :class:`StoreError` now, at the flip, not at some later read.
    """
    recent_events, recent_spans, tracker, gids = _recent(store)
    states = [tracker.groups[gid] for gid in gids]
    for gid, state in zip(gids, states):
        if state.encoded_row is None:
            state.encoded_row = serde.fragment(_slo_row(tracker, gid))
    registry = telemetry.registry()
    counters = [(counter, counter.value)
                for prefix in telemetry.PERSISTED_PREFIXES
                for counter in registry.persisted[prefix]]
    head = _snapshot_head(store, pending, generation)
    empty = dict(head, pad=b"")
    empty.update({key: serde.frame_list([]) for key in _ROW_KEYS})
    empty_bytes = _envelope_bytes() + len(serde.fragment(empty))
    if empty_bytes > FLIGHTREC_BYTES:
        raise StoreError(
            f"flight recorder snapshot cannot fit {FLIGHTREC_BYTES} "
            f"bytes even when empty ({empty_bytes} bytes)")
    return Capture(head, recent_events, recent_spans,
                   [state.encoded_row for state in states], counters,
                   FLIGHTREC_BYTES - empty_bytes)


def decode_snapshot(payload: bytes) -> Dict[str, Any]:
    """The snapshot body back out of one on-media record."""
    from ..objstore import records

    body = records.decode(payload, records.REC_FLIGHTREC)
    if not isinstance(body, dict) or body.get("version") != FORMAT_VERSION:
        raise CorruptRecord("flight recorder record has no valid body")
    body.pop("pad", None)
    return body


# -- reconstruction ---------------------------------------------------------------------


class BlackBox:
    """One recovered flight recorder: the persisted timeline (which
    ends at the last durable commit) plus, when a surviving in-process
    event ring is merged in, the volatile post-snapshot tail."""

    def __init__(self, snapshot: Dict[str, Any], generation: int):
        self.snapshot = snapshot
        self.generation = generation
        self.events: List[Dict[str, Any]] = list(snapshot.get("events") or [])
        pending = snapshot.get("pending")
        if isinstance(pending, dict):
            marker = {"time_ns": snapshot.get("time_ns", 0),
                      "kind": COMMIT_DURABLE, "trace_id": None,
                      "fields": dict(pending), "synthetic": True}
            self.events.append(marker)
        self.volatile: List[Dict[str, Any]] = []

    @property
    def last_durable(self) -> Optional[Dict[str, Any]]:
        """The commit the persisted timeline ends at: the synthesized
        pending-commit marker, else the newest persisted commit event."""
        for row in reversed(self.events):
            if row["kind"] in (COMMIT_DURABLE, events_mod.CKPT_COMMIT):
                return row
        return None

    def attach_volatile(self, log: Any) -> None:
        """Merge the surviving in-process event ring: everything newer
        than the snapshot instant is the post-crash tail (the events —
        injected faults included — that never reached durability)."""
        snap_ns = self.snapshot.get("time_ns", 0)
        seen = {(row["time_ns"], row["kind"], str(row.get("fields")))
                for row in self.events}
        for event in log:
            if event.time_ns < snap_ns:
                continue
            row = _event_row(event)
            key = (row["time_ns"], row["kind"], str(row["fields"]))
            if row["time_ns"] == snap_ns and key in seen:
                continue
            row["post_snapshot"] = True
            self.volatile.append(row)

    def timeline(self) -> List[Dict[str, Any]]:
        """Persisted events (ending at the last durable commit)
        followed by the volatile tail."""
        return self.events + self.volatile

    def __repr__(self) -> str:
        return (f"BlackBox(gen={self.generation}, "
                f"{len(self.events)} persisted, "
                f"{len(self.volatile)} volatile)")


def recover_snapshot(store: Any) -> Optional[Tuple[Dict[str, Any], int]]:
    """Read the newest recoverable snapshot from a store's raw
    superblock slots (no mount required).  Falls back across
    generations when the newest anchor is unreadable."""
    from ..objstore.recovery import _read_superblocks

    for _slot, superblock, _present in _read_superblocks(store.device):
        anchor = superblock and superblock.get("flightrec")
        if not anchor:
            continue
        try:
            payload = store.device.read(anchor[0])
            if not isinstance(payload, (bytes, bytearray)):
                continue
            snapshot = decode_snapshot(bytes(payload))
        except (CorruptRecord, StoreError, ReproError):
            continue
        return snapshot, superblock.get("generation", 0)
    return None


def blackbox(store: Any, volatile: Any = None) -> Optional[BlackBox]:
    """Reconstruct the black box of a (possibly crashed, possibly
    unmountable) store; ``volatile`` optionally merges a surviving
    event ring as the post-snapshot tail."""
    found = recover_snapshot(store)
    if found is None:
        return None
    snapshot, generation = found
    box = BlackBox(snapshot, generation)
    if volatile is not None:
        box.attach_volatile(volatile)
    return box
