"""Causal operation traces over the telemetry span layer.

A :class:`Trace` groups every span one logical operation — a
checkpoint, a restore, a GC pass, a scrub — produced anywhere in the
stack (orchestrator → pipeline stages → serializer → store transaction
→ journal → NVMe model) into one tree: each span carries
``trace_id``/``span_id``/``parent_id``, parented to the innermost span
open at the instant it was recorded.  Attribution is ambient — the
active trace is installed on the telemetry registry, so the NVMe model
needs no knowledge of checkpoints to have its IOs attributed to one.

Everything here is sim-clock-free: creating, attributing and exporting
traces never advances the simulated clock, so traced and untraced runs
are timing-identical (asserted by test), and identical runs produce
identical trace trees (trace/span ids are deterministic counters that
reset with :func:`repro.core.telemetry.reset`).

Consumers:

* :func:`chrome_trace` — Chrome ``trace_event`` JSON (``sls trace
  --chrome out.json``), loadable in Perfetto / ``chrome://tracing``;
  :func:`validate_chrome_trace` is the document's schema, checked
  without external deps.
* :func:`prometheus_text` / :func:`metrics_json` — the registry's
  counters and histograms in Prometheus text exposition or plain JSON
  (``sls metrics --format prom|json``).
* :func:`critical_path` — per-span self times (duration minus child
  durations), the decomposition ``sls slo`` aggregates per stage.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from . import telemetry
from .telemetry import SpanRecord, TelemetryRegistry

#: Trace kinds (the operations that open a trace).
CHECKPOINT = "checkpoint"
RESTORE = "restore"
GC = "gc"
SCRUB = "scrub"


class Trace:
    """One operation's span tree (the alloc/push/pop/attach protocol
    the telemetry registry drives)."""

    __slots__ = ("trace_id", "kind", "labels", "spans", "complete",
                 "error", "_stack", "_parents", "_next_span", "root_id")

    def __init__(self, trace_id: int, kind: str,
                 labels: Dict[str, object]):
        self.trace_id = trace_id
        self.kind = kind
        self.labels = labels
        self.spans: List[SpanRecord] = []
        #: True once the operation reached its durable/terminal point
        #: (a checkpoint's commit finalized, a restore returned).  A
        #: crash mid-operation leaves it False — the "incomplete trace"
        #: marker the crash tests assert on.
        self.complete = False
        self.error: Optional[str] = None
        self._stack: List[int] = []
        self._parents: Dict[int, Optional[int]] = {}
        self._next_span = 0
        self.root_id: Optional[int] = None

    # -- the registry-facing protocol ---------------------------------------------

    def alloc(self) -> int:
        self._next_span += 1
        return self._next_span

    def push(self) -> int:
        """Open a span: allocate its id and make it the parent of
        everything recorded until the matching :meth:`pop`."""
        span_id = self.alloc()
        self._parents[span_id] = self._ambient_parent(span_id)
        if self.root_id is None:
            self.root_id = span_id
        self._stack.append(span_id)
        return span_id

    def pop(self, span_id: int) -> None:
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        elif span_id in self._stack:
            self._stack.remove(span_id)

    def _ambient_parent(self, span_id: int) -> Optional[int]:
        if self._stack:
            return self._stack[-1]
        # Nothing open: parent to the root (async completions land
        # here), unless this span *is* the root.
        return self.root_id if self.root_id != span_id else None

    def attach(self, span: SpanRecord,
               span_id: Optional[int] = None) -> None:
        """Adopt a completed span into this trace's tree."""
        if span_id is None:
            span_id = self.alloc()
            parent = self._ambient_parent(span_id)
        else:
            parent = self._parents.pop(span_id, self.root_id)
        span.trace_id = self.trace_id
        span.span_id = span_id
        span.parent_id = parent
        self.spans.append(span)

    # -- queries -----------------------------------------------------------------

    @property
    def root(self) -> Optional[SpanRecord]:
        for span in self.spans:
            if span.span_id == self.root_id:
                return span
        return None

    def children_of(self, span_id: Optional[int]) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id == span_id]

    def duration_ns(self) -> int:
        root = self.root
        return root.duration_ns if root is not None else 0

    def __repr__(self) -> str:
        state = "complete" if self.complete else "incomplete"
        return (f"Trace(#{self.trace_id} {self.kind}{self.labels or ''} "
                f"{len(self.spans)} spans, {state})")


class Tracer:
    """Process-wide trace factory and bounded store of finished traces."""

    #: Finished traces retained (a 200-checkpoint benchmark run plus
    #: its restores/GC/scrub passes fits comfortably).
    TRACE_CAPACITY = 1024

    def __init__(self, capacity: int = TRACE_CAPACITY):
        self.finished: telemetry.Ring[Trace] = telemetry.Ring(capacity)
        self._next_trace = 0

    def start(self, kind: str, **labels: object) -> Trace:
        self._next_trace += 1
        return Trace(self._next_trace, kind, labels)

    def finish(self, trace: Trace) -> None:
        if self.finished.push(trace):
            telemetry.registry().counter("sls.telemetry.traces_dropped").add(1)

    def traces(self, kind: Optional[str] = None,
               **labels: object) -> List[Trace]:
        """Finished traces filtered by kind and label subset."""
        out = []
        for trace in self.finished:
            if kind is not None and trace.kind != kind:
                continue
            if all(trace.labels.get(k) == v for k, v in labels.items()):
                out.append(trace)
        return out

    def reset(self) -> None:
        self.finished.clear()
        self._next_trace = 0


_TRACER = Tracer()
telemetry.on_reset(_TRACER.reset)


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def current() -> Optional[Trace]:
    """The trace spans are currently being attributed to, if any."""
    active = telemetry.registry().active_trace
    return active if isinstance(active, Trace) else None


class _TraceScope:
    """Context manager opening one operation trace (or a no-op when
    telemetry is disabled)."""

    def __init__(self, clock: Any, kind: str,
                 labels: Dict[str, object]) -> None:
        self.clock = clock
        self.kind = kind
        self.labels = labels
        self.trace: Optional[Trace] = None
        self._prev: Optional[object] = None
        self._root_span: Any = None

    def __enter__(self) -> Optional[Trace]:
        registry = telemetry.registry()
        if not registry.enabled:
            return None
        self.trace = _TRACER.start(self.kind, **self.labels)
        self._prev = registry.active_trace
        registry.active_trace = self.trace
        self._root_span = registry.span(self.clock, self.kind,
                                        **self.labels)
        self._root_span.__enter__()
        return self.trace

    def __exit__(self, exc_type: Any, exc: Any,
                 tb: Any) -> None:
        if self.trace is None:
            return
        registry = telemetry.registry()
        if exc_type is not None:
            self.trace.error = f"{exc_type.__name__}: {exc}"
        self._root_span.__exit__(exc_type, exc, tb)
        registry.active_trace = self._prev
        _TRACER.finish(self.trace)


def trace(clock: Any, kind: str, **labels: object) -> _TraceScope:
    """``with tracing.trace(clock, "checkpoint", group=3) as t: ...``

    Opens a new trace with a root span named ``kind`` spanning the
    with-block; yields the :class:`Trace` (or None when telemetry is
    disabled).  The trace is stored on exit even when incomplete.
    """
    return _TraceScope(clock, kind, labels)


class _UseScope:
    """Temporarily re-enter a trace (async commit completions record
    their spans into the checkpoint that issued them)."""

    def __init__(self, trace: Optional[Trace]) -> None:
        self.trace = trace
        self._prev: Optional[object] = None

    def __enter__(self) -> Optional[Trace]:
        registry = telemetry.registry()
        self._prev = registry.active_trace
        if self.trace is not None and registry.enabled:
            registry.active_trace = self.trace
        return self.trace

    def __exit__(self, exc_type: Any, exc: Any,
                 tb: Any) -> None:
        telemetry.registry().active_trace = self._prev


def use(trace_obj: Optional[Trace]) -> _UseScope:
    """``with tracing.use(txn.trace): ...`` — attribute spans recorded
    in the block to a previously opened trace (no-op on None)."""
    return _UseScope(trace_obj)


# -- distributed trace propagation -----------------------------------------------------


def for_group(group_id: int) -> Optional[Trace]:
    """The trace a group's replication legs join: the active trace,
    else the group's newest finished checkpoint trace (the sync-commit
    hook runs *after* the trace scope closed, so the commit that
    triggered a pump is the newest).  Every simulated node shares this
    process's tracer, so the legs record straight into it."""
    active = current()
    if active is not None:
        return active
    for trace_obj in reversed(_TRACER.finished):
        if trace_obj.kind == CHECKPOINT \
                and trace_obj.labels.get("group") == group_id:
            return trace_obj
    return None


# -- the critical-path analyzer -------------------------------------------------------


def self_times(trace_obj: Trace) -> Dict[int, int]:
    """Per-span self time: duration minus direct children's durations
    (clamped at zero — overlap-stage children can outlive a parent that
    returned after submission)."""
    child_total: Dict[Optional[int], int] = {}
    for span in trace_obj.spans:
        child_total[span.parent_id] = (child_total.get(span.parent_id, 0) +
                                       span.duration_ns)
    out: Dict[int, int] = {}
    for span in trace_obj.spans:
        if span.span_id is None:
            continue
        out[span.span_id] = max(
            0, span.duration_ns - child_total.get(span.span_id, 0))
    return out


def critical_path(trace_obj: Trace) -> List[Dict[str, Any]]:
    """Stage-level wall-time decomposition of one operation trace.

    Rows for each direct child of the root (the pipeline stages of a
    checkpoint trace), carrying the stage's total duration and its
    *self* time — what remains after its own children (serializer
    object spans, store flush, device IOs) are peeled off — plus an
    ``(untraced)`` row for root time no child covers.
    """
    selfs = self_times(trace_obj)
    rows = []
    covered = 0
    for span in trace_obj.children_of(trace_obj.root_id):
        covered += span.duration_ns
        rows.append({
            "name": span.name,
            "duration_ns": span.duration_ns,
            "self_ns": selfs.get(span.span_id, span.duration_ns),
        })
    root = trace_obj.root
    if root is not None:
        gap = max(0, root.duration_ns - covered)
        rows.append({"name": "(untraced)", "duration_ns": gap,
                     "self_ns": gap})
    return rows


def child_coverage(trace_obj: Trace) -> float:
    """Fraction of the root span's duration covered by its direct
    children (1.0 for a zero-duration root)."""
    root = trace_obj.root
    if root is None or root.duration_ns == 0:
        return 1.0
    covered = sum(s.duration_ns
                  for s in trace_obj.children_of(trace_obj.root_id))
    return min(1.0, covered / root.duration_ns)


# -- Chrome trace_event export ---------------------------------------------------------

#: Replica-node spans get per-node ``tid`` lanes in a reserved band
#: far above plain trace ids: lane = BASE + trace*STRIDE + node.
NODE_LANE_BASE = 1 << 20
NODE_LANE_STRIDE = 256


def chrome_trace(traces: Iterable[Trace]) -> Dict[str, Any]:
    """A Chrome ``trace_event`` document (Perfetto-loadable).

    Complete events (``ph: "X"``) with microsecond timestamps; one
    ``tid`` lane per trace so overlapping operations (a checkpoint's
    async flush running under the next checkpoint) stay readable, with
    the process row keyed by consistency group.  Spans carrying a
    ``node`` label — the replication legs recorded on replica nodes —
    fan out into one extra lane per node under the same trace, so a
    quorum commit reads as parallel per-node swimlanes.
    """
    events: List[Dict[str, Any]] = []
    for trace_obj in traces:
        group = trace_obj.labels.get("group")
        pid = group if isinstance(group, int) else 0
        for span in trace_obj.spans:
            args: Dict[str, Any] = {str(k): v
                                    for k, v in span.labels.items()}
            args["trace_id"] = trace_obj.trace_id
            args["span_id"] = span.span_id
            args["parent_id"] = span.parent_id
            args["complete"] = trace_obj.complete
            node = span.labels.get("node")
            if isinstance(node, int) and not isinstance(node, bool):
                tid = (NODE_LANE_BASE
                       + trace_obj.trace_id * NODE_LANE_STRIDE + node)
            else:
                tid = trace_obj.trace_id
            events.append({
                "name": span.name,
                "cat": trace_obj.kind,
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: Any) -> None:
    """Validate a Chrome trace document (raises ValueError).

    This function is the schema of what ``sls trace --chrome`` writes,
    spelled as code so validation needs no third-party jsonschema
    package.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be an array")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing/empty name")
        if event.get("ph") != "X":
            raise ValueError(f"{where}: ph must be 'X'")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(f"{where}: {key} must be a number >= 0")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: {key} must be an integer")
        args = event.get("args")
        if not isinstance(args, dict):
            raise ValueError(f"{where}: args must be an object")
        if not isinstance(args.get("trace_id"), int):
            raise ValueError(f"{where}: args.trace_id must be an integer")
        if not isinstance(args.get("span_id"), int):
            raise ValueError(f"{where}: args.span_id must be an integer")
        parent = args.get("parent_id")
        if parent is not None and not isinstance(parent, int):
            raise ValueError(f"{where}: args.parent_id must be int or null")
        if not isinstance(args.get("complete"), bool):
            raise ValueError(f"{where}: args.complete must be a boolean")


# -- metrics export --------------------------------------------------------------------


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: Dict[str, object],
                 extra: Optional[Dict[str, object]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{_prom_name(str(k))}="{v}"'
                    for k, v in sorted(merged.items(), key=lambda i: i[0]))
    return "{" + body + "}"


def prometheus_text(registry: Optional[TelemetryRegistry] = None) -> str:
    """Prometheus text exposition of every counter and series.

    Series surface as ``<name>_count`` / ``<name>_sum_ns`` /
    ``<name>_max_ns`` plus exact nearest-rank quantile gauges.
    """
    registry = registry or telemetry.registry()
    lines: List[str] = []
    counters = sorted(registry.counters_matching(""),
                      key=lambda c: (c.name, sorted(
                          (str(k), str(v)) for k, v in c.labels.items())))
    seen_types = set()
    for counter in counters:
        name = _prom_name(counter.name)
        if name not in seen_types:
            lines.append(f"# TYPE {name} counter")
            seen_types.add(name)
        lines.append(f"{name}{_prom_labels(counter.labels)} "
                     f"{counter.value}")
    histograms = sorted(registry.histograms_matching(""),
                        key=lambda h: (h.name, sorted(
                            (str(k), str(v)) for k, v in h.labels.items())))
    for histogram in histograms:
        name = _prom_name(histogram.name)
        if f"{name}_summary" not in seen_types:
            lines.append(f"# TYPE {name}_count counter")
            seen_types.add(f"{name}_summary")
        label_str = _prom_labels(histogram.labels)
        lines.append(f"{name}_count{label_str} {histogram.count}")
        lines.append(f"{name}_sum_ns{label_str} {histogram.total}")
        lines.append(f"{name}_max_ns{label_str} {histogram.max}")
        for quantile in (50, 95, 99):
            qlabels = _prom_labels(histogram.labels,
                                   {"quantile": f"0.{quantile}"})
            lines.append(f"{name}_ns{qlabels} "
                         f"{histogram.percentile(quantile)}")
    return "\n".join(lines) + "\n"


def metrics_json(registry: Optional[TelemetryRegistry] = None
                 ) -> Dict[str, Any]:
    """Every counter and histogram as one JSON-ready dict."""
    registry = registry or telemetry.registry()

    def key(labels: Dict[str, object]) -> List[Tuple[str, str]]:
        return sorted((str(k), str(v)) for k, v in labels.items())

    counters = [{
        "name": c.name,
        "labels": {str(k): v for k, v in c.labels.items()},
        "value": c.value,
    } for c in sorted(registry.counters_matching(""),
                      key=lambda c: (c.name, key(c.labels)))]
    histograms = [{
        "name": h.name,
        "labels": {str(k): v for k, v in h.labels.items()},
        "count": h.count,
        "sum_ns": h.total,
        "min_ns": h.min,
        "max_ns": h.max,
        "mean_ns": h.mean,
        "p50_ns": h.percentile(50),
        "p95_ns": h.percentile(95),
        "p99_ns": h.percentile(99),
    } for h in sorted(registry.histograms_matching(""),
                      key=lambda h: (h.name, key(h.labels)))]
    return {"counters": counters, "histograms": histograms}


def _validate_main(argv: List[str]) -> int:
    """``python -m repro.core.tracing trace.json`` — CI schema check."""
    if len(argv) != 1:
        print("usage: python -m repro.core.tracing <chrome-trace.json>")
        return 2
    with open(argv[0], "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    try:
        validate_chrome_trace(doc)
    except ValueError as exc:
        print(f"invalid chrome trace: {exc}")
        return 1
    print(f"{argv[0]}: valid chrome trace "
          f"({len(doc['traceEvents'])} events)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(_validate_main(sys.argv[1:]))
