"""Telemetry isolation: reset between experiments, instance-label
separation, and deterministic id allocation after a reset."""

import pytest

from repro import Machine, load_aurora
from repro.core import events, telemetry, tracing
from repro.units import MSEC, PAGE_SIZE


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _one_checkpoint():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 4, seed=0)
    group = sls.attach(proc, periodic=False)
    machine.run_for(10 * MSEC)
    sls.checkpoint(group, sync=True)
    return machine, sls, group


def test_reset_clears_registry_tracer_and_event_log():
    _one_checkpoint()
    registry = telemetry.registry()
    assert len(registry.spans) > 0
    assert registry.value("sls.group.checkpoints") > 0
    assert len(tracing.tracer().traces()) > 0
    assert len(events.log()) > 0
    telemetry.reset()
    assert len(registry.spans) == 0
    assert registry.value("sls.group.checkpoints") == 0
    assert registry.stage_rows() == []
    assert registry.active_trace is None
    assert tracing.tracer().traces() == []
    assert len(events.log()) == 0


def test_reset_restarts_instance_and_trace_ids():
    _one_checkpoint()
    first_ids = [t.trace_id for t in tracing.tracer().traces()]
    telemetry.reset()
    assert telemetry.next_instance() == 1
    telemetry.reset()
    _one_checkpoint()
    assert [t.trace_id for t in tracing.tracer().traces()] == first_ids


def test_stats_views_of_successive_machines_stay_separate():
    """Two experiments without a reset: the second machine's groups
    get fresh instance labels, so the first run's numbers are
    untouched while registry.value() aggregates across both."""
    machine1, sls1, group1 = _one_checkpoint()
    before = group1.stats["checkpoints"]
    machine2, sls2, group2 = _one_checkpoint()
    assert group2.group_id == group1.group_id  # ids restart per machine
    assert group1.stats["checkpoints"] == before
    assert group2.stats["checkpoints"] == 1
    registry = telemetry.registry()
    assert registry.value("sls.group.checkpoints",
                          group=group1.group_id) == before + 1
    # The backing counters really are distinct (different inst label).
    counters = [c for c in registry.counters_matching(
        "sls.group.checkpoints", group=group1.group_id)]
    assert len(counters) == 2
    assert {c.labels["inst"] for c in counters} == \
        {group1.stats._labels["inst"], group2.stats._labels["inst"]}


def test_disabling_telemetry_keeps_counters_live():
    telemetry.set_enabled(False)
    machine, sls, group = _one_checkpoint()
    registry = telemetry.registry()
    # Spans, traces and events all went quiet...
    assert len(registry.spans) == 0
    assert tracing.tracer().traces() == []
    assert len(events.log()) == 0
    assert registry.stage_rows() == []
    # ...but bookkeeping counters (StatsView and device stats) stay
    # live: subsystems depend on them for behaviour, not observation.
    assert group.stats["checkpoints"] == 1
    assert registry.value("nvme.bytes_written") > 0


def test_ring_tail_is_the_newest_entries_oldest_first():
    from collections import deque

    ring = deque(range(10), maxlen=10)
    assert telemetry.ring_tail(ring, 3) == [7, 8, 9]
    assert telemetry.ring_tail(ring, 10) == list(range(10))
    assert telemetry.ring_tail(ring, 99) == list(range(10))
    assert telemetry.ring_tail(ring, 0) == []
    assert telemetry.ring_tail(deque(), 4) == []


def test_value_sums_one_name_and_matching_scans_prefix_tuples():
    registry = telemetry.registry()
    registry.counter("a.x", group=1).add(2)
    registry.counter("a.x", group=2).add(3)
    registry.counter("a.xy", group=1).add(50)
    registry.counter("b.z").add(7)
    assert registry.value("a.x") == 5
    assert registry.value("a.x", group=2) == 3
    assert registry.value("a") == 0
    assert registry.value("missing") == 0
    names = [c.name for c in registry.counters_matching(("b.", "a.xy"))]
    assert names == ["a.xy", "b.z"]           # registration order
    telemetry.reset()
    assert telemetry.registry().value("a.x") == 0


def test_persisted_counters_are_indexed_at_registration():
    registry = telemetry.registry()
    for name in ("sls.slo.b", "sls.other", "sls.resilience.a", "sls.slo.a"):
        registry.counter(name, group=1).add(1)
    # A second lookup of a registered counter files nothing twice.
    registry.counter("sls.slo.b", group=1).add(1)
    assert {prefix: [c.name for c in counters]
            for prefix, counters in registry.persisted.items()} == {
        "sls.resilience": ["sls.resilience.a"],
        "sls.slo": ["sls.slo.b", "sls.slo.a"],
        "sls.events.degraded": [], "sls.events.fault": []}
    telemetry.reset()
    assert all(not counters
               for counters in telemetry.registry().persisted.values())
    registry.counter("sls.events.fault.x").add(1)
    assert [c.name for c in registry.persisted["sls.events.fault"]] == [
        "sls.events.fault.x"]
