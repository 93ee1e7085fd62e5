"""Causal checkpoint traces: tree structure, determinism, zero
simulated-clock cost, and the Chrome trace_event export.

Covers the ISSUE acceptance criteria: a 200-checkpoint 100 Hz run
exports a schema-valid Chrome trace in which >= 95% of every
checkpoint's duration is covered by its stage spans; tracing enabled
vs disabled produces identical checkpoint timings; identical runs
produce identical trace trees.
"""

import json

import pytest

from repro import Machine, load_aurora
from repro.core import telemetry, tracing
from repro.core.telemetry import TelemetryRegistry
from repro.core.pipeline import STAGE_ORDER
from repro.units import MSEC, PAGE_SIZE

PERIOD_NS = 10 * MSEC  # 100 Hz


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()  # also restores enabled=True after disable tests


def _run_checkpoints(count, pages=4):
    """A fresh machine running ``count`` synchronous checkpoints on a
    100 Hz cadence, dirtying ``pages`` pages before each."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False)
    results = []
    for i in range(count):
        proc.vmspace.fill(addr, pages, seed=i)
        machine.run_for(PERIOD_NS)
        results.append(sls.checkpoint(group, sync=True))
    return machine, sls, group, results


class TickClock:
    """A hand-cranked clock for building synthetic traces."""

    def __init__(self):
        self.t = 0

    def now(self):
        return self.t


# -- trace tree structure ------------------------------------------------------------


def test_checkpoint_trace_is_a_causal_tree():
    machine, sls, group, results = _run_checkpoints(1, pages=8)
    traces = tracing.tracer().traces(tracing.CHECKPOINT,
                                     group=group.group_id)
    assert len(traces) == 1
    trace = traces[0]
    assert trace.complete
    assert trace.error is None
    root = trace.root
    assert root is not None and root.name == tracing.CHECKPOINT
    # Every span belongs to this trace and has an id.
    assert all(s.trace_id == trace.trace_id for s in trace.spans)
    assert all(s.span_id is not None for s in trace.spans)
    # The root's direct children are the pipeline stages, in order.
    stages = sorted(trace.children_of(trace.root_id),
                    key=lambda s: (s.start_ns, s.span_id))
    stage_names = [s.name for s in stages if s.name.startswith("ckpt.")]
    assert stage_names == [f"ckpt.{name}" for name in STAGE_ORDER]


def test_serializer_and_device_spans_nest_under_stages():
    machine, sls, group, results = _run_checkpoints(1, pages=8)
    trace = tracing.tracer().traces(tracing.CHECKPOINT)[0]
    by_id = {s.span_id: s for s in trace.spans}
    serialize_stage = next(s for s in trace.spans
                           if s.name == "ckpt.serialize")
    obj_spans = [s for s in trace.spans if s.name.startswith("serialize.")]
    assert obj_spans, "serializer emitted no per-object-type spans"

    def ancestors(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            yield span

    # Object-type spans live in the serialize stage's subtree (nested
    # serializers — a process's fdtable — parent to each other).
    for span in obj_spans:
        assert serialize_stage in ancestors(span), span
    # Device IO issued by the flush is attributed to the same trace,
    # parented to whichever span was open at submission.
    io_spans = [s for s in trace.spans if s.name == "nvme.write"]
    assert io_spans, "flush produced no attributed device IO spans"
    assert all(s.parent_id in by_id for s in io_spans)
    # The store's async commit finalization lands in the trace too.
    assert any(s.name == "store.finalize" for s in trace.spans)


def test_critical_path_and_self_times_on_synthetic_trace():
    clock = TickClock()
    registry = telemetry.registry()
    with tracing.trace(clock, tracing.CHECKPOINT, group=7) as trace:
        with registry.span(clock, "stage.a"):
            clock.t = 10
        with registry.span(clock, "stage.b"):
            clock.t = 12
            with registry.span(clock, "leaf"):
                clock.t = 20
            clock.t = 30
    selfs = tracing.self_times(trace)
    spans = {s.name: s for s in trace.spans}
    assert spans["stage.a"].duration_ns == 10
    assert selfs[spans["stage.a"].span_id] == 10
    assert spans["stage.b"].duration_ns == 20
    assert selfs[spans["stage.b"].span_id] == 12  # 20 - leaf's 8
    rows = {row["name"]: row for row in tracing.critical_path(trace)}
    assert rows["stage.a"]["self_ns"] == 10
    assert rows["stage.b"]["duration_ns"] == 20
    assert rows["stage.b"]["self_ns"] == 12
    assert rows["(untraced)"]["duration_ns"] == 0
    assert tracing.child_coverage(trace) == 1.0


# -- determinism ---------------------------------------------------------------------


def _trace_signature():
    """Everything observable about the finished checkpoint traces."""
    out = []
    for trace in tracing.tracer().traces(tracing.CHECKPOINT):
        spans = sorted(
            (s.name, s.start_ns, s.end_ns, s.span_id, s.parent_id)
            for s in trace.spans)
        out.append((trace.trace_id, dict(trace.labels), trace.complete,
                    spans))
    return out


def test_identical_runs_produce_identical_trace_trees():
    _run_checkpoints(3, pages=8)
    first = _trace_signature()
    telemetry.reset()
    _run_checkpoints(3, pages=8)
    second = _trace_signature()
    assert first == second
    assert first, "signature was empty; the comparison proved nothing"


def test_tracing_has_zero_simulated_clock_cost():
    """Enabled vs disabled runs are timing-identical: same stage
    timestamps, same stop times, same final sim-clock reading."""

    def timings():
        machine, sls, group, results = _run_checkpoints(3, pages=8)
        stages = [[(t.name, t.start_ns, t.end_ns) for t in r.stages]
                  for r in results]
        return stages, [r.stop_ns for r in results], machine.clock.now()

    enabled = timings()
    assert len(tracing.tracer().traces()) > 0
    telemetry.reset()
    telemetry.set_enabled(False)
    disabled = timings()
    assert tracing.tracer().traces() == []  # nothing recorded
    assert enabled == disabled


# -- the bounded span ring ------------------------------------------------------------


def test_span_ring_eviction_counts_dropped_spans():
    registry = TelemetryRegistry(span_capacity=4)
    for i in range(10):
        registry.record_span("x", i, i + 1)
    assert len(registry.spans) == 4
    assert registry.value("sls.telemetry.spans_dropped") == 6


def test_finished_trace_ring_eviction_counts_dropped_traces():
    """The third ring: newest traces kept, evictions counted once (in
    the registry counter ``sls events`` and the flight record read)."""
    tracer = tracing.Tracer(capacity=3)
    for _ in range(5):
        tracer.finish(tracer.start(tracing.CHECKPOINT, group=1))
    assert [t.trace_id for t in tracer.traces(group=1)] == [3, 4, 5]
    assert telemetry.registry().value("sls.telemetry.traces_dropped") == 2


def test_trace_spans_survive_span_ring_eviction():
    """A trace owns its span list: evicting the global ring must not
    lose spans from a retained trace."""
    machine, sls, group, results = _run_checkpoints(1, pages=8)
    trace = tracing.tracer().traces(tracing.CHECKPOINT)[0]
    before = len(trace.spans)
    registry = telemetry.registry()
    for i in range(registry.spans.maxlen + 1):
        registry.record_span("filler", i, i + 1)
    assert registry.value("sls.telemetry.spans_dropped") > 0
    assert len(trace.spans) == before


# -- the Chrome export (200-checkpoint acceptance run) --------------------------------


def test_chrome_export_of_200_checkpoint_run_is_valid_and_covered():
    machine, sls, group, results = _run_checkpoints(200, pages=4)
    traces = tracing.tracer().traces(tracing.CHECKPOINT,
                                     group=group.group_id)
    assert len(traces) == 200
    for trace in traces:
        assert trace.complete
        assert tracing.child_coverage(trace) >= 0.95
    doc = tracing.chrome_trace(traces)
    # The document survives a JSON round trip and validates against
    # the schema (same checks as `python -m repro.core.tracing`).
    doc = json.loads(json.dumps(doc))
    tracing.validate_chrome_trace(doc)
    assert len(doc["traceEvents"]) == sum(len(t.spans) for t in traces)
    roots = [e for e in doc["traceEvents"]
             if e["name"] == tracing.CHECKPOINT]
    assert len(roots) == 200
    assert all(e["pid"] == group.group_id for e in roots)
    assert all(e["args"]["complete"] for e in roots)


def test_validate_chrome_trace_rejects_malformed_documents():
    good = {"name": "s", "ph": "X", "ts": 1.0, "dur": 2.0, "pid": 1,
            "tid": 1, "args": {"trace_id": 1, "span_id": 1,
                               "parent_id": None, "complete": True}}
    tracing.validate_chrome_trace({"traceEvents": [good]})
    bad_docs = [
        [],                                         # not an object
        {"traceEvents": {}},                        # events not a list
        {"traceEvents": [{**good, "ph": "B"}]},     # wrong phase
        {"traceEvents": [{**good, "ts": -1}]},      # negative time
        {"traceEvents": [{**good, "pid": "1"}]},    # non-int pid
        {"traceEvents": [{**good, "args": {}}]},    # missing trace ids
    ]
    for doc in bad_docs:
        with pytest.raises(ValueError):
            tracing.validate_chrome_trace(doc)


# -- metrics export -------------------------------------------------------------------


def test_metrics_exports_cover_counters_and_histograms():
    _run_checkpoints(2, pages=8)
    text = tracing.prometheus_text()
    assert "# TYPE nvme_bytes_written counter" in text
    assert "ckpt_serialize_count" in text
    assert 'quantile="0.99"' in text
    doc = json.loads(json.dumps(tracing.metrics_json()))
    names = {h["name"] for h in doc["histograms"]}
    assert {f"ckpt.{s}" for s in STAGE_ORDER} <= names
    serialize = next(h for h in doc["histograms"]
                     if h["name"] == "ckpt.serialize")
    assert serialize["count"] == 2
    # Percentiles are log2-bucket upper bounds: ordered, and never
    # below the true maximum at p99 with two samples in one bucket.
    assert serialize["p50_ns"] <= serialize["p99_ns"]
    assert serialize["sum_ns"] > 0
