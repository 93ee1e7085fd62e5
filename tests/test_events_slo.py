"""The structured event log and the RPO/stop-time SLO tracker.

The RPO cross-check is the ISSUE acceptance criterion: the lag
max/p99 that ``sls slo`` reports must equal a recomputation from the
run's known commit schedule (capture instants from the stage traces,
commit instants from the event log).
"""

import pytest

from repro import Machine, load_aurora
from repro.core import events, slo, telemetry, tracing
from repro.core.orchestrator import MODE_MEM
from repro.units import MSEC, PAGE_SIZE

PERIOD_NS = 10 * MSEC  # 100 Hz


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _run_checkpoints(count, pages=4):
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


# -- the event log --------------------------------------------------------------------


def test_checkpoint_lifecycle_lands_in_the_event_log():
    machine, sls, group, results = _run_checkpoints(3)
    gid = group.group_id
    log = events.log()
    starts = log.matching(events.CKPT_START, group=gid)
    commits = log.matching(events.CKPT_COMMIT, group=gid)
    assert len(starts) == len(commits) == 3
    assert [e.fields["ckpt"] for e in commits] == \
        [r.info.ckpt_id for r in results]
    # Events are stamped on the sim clock, in order, and attributed to
    # the checkpoint traces that produced them.
    times = [e.time_ns for e in log]
    assert times == sorted(times)
    trace_ids = {t.trace_id for t in
                 tracing.tracer().traces(tracing.CHECKPOINT, group=gid)}
    assert all(e.trace_id in trace_ids for e in starts + commits)
    # Each commit advanced the group's epoch floor.
    advances = log.matching(events.EPOCH_ADVANCE, group=gid)
    assert [e.fields["ckpt"] for e in advances] == \
        [e.fields["ckpt"] for e in commits]
    # Per-kind counters mirror the log.
    registry = telemetry.registry()
    assert registry.value(f"sls.events.{events.CKPT_COMMIT}") == 3


def test_event_emission_is_a_noop_when_disabled():
    telemetry.set_enabled(False)
    assert events.emit(123, events.CKPT_START, group=1) is None
    assert len(events.log()) == 0


def test_event_ring_is_bounded_and_counts_evictions():
    log = events.EventLog(capacity=4)
    for i in range(10):
        log.emit(i, "test.tick", n=i)
    assert len(log) == 4
    assert [e.fields["n"] for e in log] == [6, 7, 8, 9]
    assert telemetry.registry().value(
        "sls.telemetry.events_dropped") == 6


def test_event_ring_emit_at_capacity_boundary_drops_nothing():
    """Filling the ring to exactly its capacity evicts nothing: the
    dropped counter only moves on the (capacity+1)-th emit."""
    log = events.EventLog(capacity=4)
    for i in range(4):
        log.emit(i, "test.tick", n=i)
    assert len(log) == 4
    assert telemetry.registry().value(
        "sls.telemetry.events_dropped") == 0
    log.emit(4, "test.tick", n=4)
    assert len(log) == 4
    assert telemetry.registry().value(
        "sls.telemetry.events_dropped") == 1
    assert [e.fields["n"] for e in log] == [1, 2, 3, 4]


def test_event_ring_iteration_order_survives_wraparound():
    """After any number of wraps, iteration is oldest → newest and
    timestamps stay monotone."""
    log = events.EventLog(capacity=8)
    for i in range(27):
        log.emit(i * 10, "test.tick", n=i)
    seen = list(log)
    assert [e.fields["n"] for e in seen] == list(range(19, 27))
    times = [e.time_ns for e in seen]
    assert times == sorted(times)
    # matching() walks the same wrapped order.
    assert [e.fields["n"] for e in log.matching("test.tick")] == \
        [e.fields["n"] for e in seen]


def test_event_ring_reset_clears_entries_but_not_drop_accounting():
    """reset() empties the ring and restarts retention; the eviction
    counter is history and survives until the registry resets."""
    log = events.EventLog(capacity=4)
    for i in range(6):
        log.emit(i, "test.tick", n=i)
    assert telemetry.registry().value(
        "sls.telemetry.events_dropped") == 2
    log.reset()
    assert len(log) == 0
    assert list(log) == []
    log.emit(100, "test.tick", n=100)
    assert [e.fields["n"] for e in log] == [100]
    # No phantom eviction from the pre-reset fill.
    assert telemetry.registry().value(
        "sls.telemetry.events_dropped") == 2


def test_dropped_counter_accounts_every_eviction_exactly_once():
    log = events.EventLog(capacity=4)
    total = 0
    for round_size in (3, 4, 9):
        for i in range(round_size):
            log.emit(total + i, "test.tick")
        total += round_size
    expected_drops = total - 4
    assert telemetry.registry().value(
        "sls.telemetry.events_dropped") == expected_drops
    assert len(log) == 4


def test_gc_reclaim_is_traced_and_logged():
    machine, sls, group, results = _run_checkpoints(3)
    victim = results[0].info.ckpt_id
    sls.store.delete_checkpoint(victim)
    reclaims = events.log().matching(events.GC_RECLAIM,
                                     group=group.group_id)
    assert len(reclaims) == 1
    assert reclaims[0].fields["ckpt"] == victim
    gc_traces = tracing.tracer().traces(tracing.GC, ckpt=victim)
    assert len(gc_traces) == 1 and gc_traces[0].complete


def test_restore_emits_event_and_complete_trace():
    machine, sls, group, results = _run_checkpoints(2)
    gid = group.group_id
    machine.crash()
    machine.boot()
    sls = load_aurora(machine)
    sls.restore(gid, periodic=False)
    done = events.log().matching(events.RESTORE_DONE, group=gid)
    assert len(done) == 1
    assert done[0].fields["ckpt"] == results[-1].info.ckpt_id
    rtraces = tracing.tracer().traces(tracing.RESTORE, group=gid)
    assert len(rtraces) == 1 and rtraces[0].complete


# -- the SLO tracker ------------------------------------------------------------------


def test_percentile_exact_nearest_rank():
    values = list(range(1, 101))
    assert slo.percentile_exact(values, 50) == 50
    assert slo.percentile_exact(values, 95) == 95
    assert slo.percentile_exact(values, 99) == 99
    assert slo.percentile_exact(values, 100) == 100
    assert slo.percentile_exact([7], 99) == 7
    assert slo.percentile_exact([], 50) == 0


def test_series_summary_sorts_once_and_keeps_nearest_rank():
    import random

    rng = random.Random(7)
    for count in (0, 1, 2, 19, 20, 21, 99, 100, 101, 1000):
        series = slo._Series()
        samples = [rng.randrange(10 ** 9) for _ in range(count)]
        for sample in samples:
            series.add(sample)
        assert series.summary() == {
            "count": count,
            "max": max(samples, default=0),
            "p50": slo.percentile_exact(samples, 50),
            "p95": slo.percentile_exact(samples, 95),
            "p99": slo.percentile_exact(samples, 99),
        }


def test_series_is_a_bounded_ring_that_counts_every_sample(monkeypatch):
    monkeypatch.setattr(slo, "SAMPLE_CAPACITY", 8)
    series = slo._Series()
    for sample in range(20):
        series.add(sample)
    assert list(series.values) == list(range(12, 20))
    assert series.added == 20
    assert series.tail(3) == [17, 18, 19]
    assert series.tail(50) == list(range(12, 20))
    assert series.summary()["count"] == 8


def test_slo_tracker_on_synthetic_commit_schedule():
    tracker = slo.SLOTracker(slo.SLOTargets(rpo_ns=100, stop_ns=10))
    # First commit: no predecessor, lag bounded by its own capture.
    tracker.on_commit(1, 1, capture_ns=1000, commit_ns=1050)
    # Second commit: lag reaches back to the first capture.
    tracker.on_commit(1, 2, capture_ns=1200, commit_ns=1260)
    tracker.on_stop_time(1, 8)
    tracker.on_stop_time(1, 15)
    row, = tracker.report(1)
    assert row["commits"] == 2
    assert row["rpo_lag"]["max"] == 1260 - 1000
    assert row["rpo_lag"]["p50"] == 1050 - 1000
    assert row["e2e"]["max"] == 60
    assert row["rpo_violations"] == 1   # 260 > 100
    assert row["stop_violations"] == 1  # 15 > 10


def test_burn_rate_alert_is_edge_triggered_and_logged():
    """Sustained budget over-consumption raises one ``slo.alert``
    event (per rising edge) once the minimum sample window fills;
    recovery re-arms the edge."""
    tracker = slo.SLOTracker(slo.SLOTargets(rpo_ns=2000))
    tracker.tenant_names[1] = "svc"
    t = 0
    # Commits landing 5000ns apart against a 2000ns RPO budget burn
    # at ~2.6x: the alert fires exactly when the fourth sample
    # (BURN_MIN_SAMPLES) lands, then stays silent while it persists.
    for i in range(6):
        t += 5000
        tracker.on_commit(1, i + 1, capture_ns=t - 300, commit_ns=t)
    alerts = events.log().matching(events.SLO_ALERT, group=1)
    assert len(alerts) == 1
    assert alerts[0].fields["tenant"] == "svc"
    assert alerts[0].fields["budget"] == "rpo"
    assert alerts[0].fields["burn_milli"] >= slo.BURN_ALERT_MILLI
    assert tracker.alerts(1, "rpo") == 1
    row, = tracker.report(1)
    assert row["rpo_burn_milli"] >= slo.BURN_ALERT_MILLI
    assert row["alerts"] == 1
    # Burn back down under the threshold (commits every 1000ns burn
    # at ~0.5x), then spike again: a second rising edge, a second
    # alert.
    for i in range(slo.BURN_WINDOW):
        t += 1000
        tracker.on_commit(1, 100 + i, capture_ns=t - 10, commit_ns=t)
    assert tracker.burn_rate_milli(1, "rpo") < slo.BURN_ALERT_MILLI
    assert len(events.log().matching(events.SLO_ALERT, group=1)) == 1
    for i in range(slo.BURN_WINDOW):
        t += 5000
        tracker.on_commit(1, 200 + i, capture_ns=t - 300, commit_ns=t)
    assert len(events.log().matching(events.SLO_ALERT, group=1)) == 2
    assert tracker.alerts(1, "rpo") == 2


def test_healthy_commit_schedules_never_alert():
    machine, sls, group, results = _run_checkpoints(10)
    assert events.log().matching(events.SLO_ALERT) == []
    row, = sls.slo.report(group.group_id)
    assert row["alerts"] == 0


def test_rpo_lag_cross_checked_against_known_commit_schedule():
    machine, sls, group, results = _run_checkpoints(20)
    gid = group.group_id
    commits = [e.time_ns for e in
               events.log().matching(events.CKPT_COMMIT, group=gid)]
    captures = [r.stages[0].start_ns for r in results]
    assert len(commits) == len(captures) == 20
    lags = [commits[0] - captures[0]]
    lags += [commits[i] - captures[i - 1] for i in range(1, 20)]
    e2es = [commit - capture for commit, capture
            in zip(commits, captures)]
    row, = sls.slo.report(gid)
    assert row["commits"] == 20
    assert row["rpo_lag"]["count"] == 20
    assert row["rpo_lag"]["max"] == max(lags)
    assert row["rpo_lag"]["p99"] == slo.percentile_exact(lags, 99)
    assert row["rpo_lag"]["p50"] == slo.percentile_exact(lags, 50)
    assert row["e2e"]["max"] == max(e2es)
    assert row["stop"]["max"] == max(r.stop_ns for r in results)


def test_budget_violations_are_counted_per_group():
    machine = Machine()
    sls = load_aurora(machine)
    # Impossible budgets: every checkpoint violates both.
    sls.slo.targets = slo.SLOTargets(rpo_ns=0, stop_ns=0)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, periodic=False)
    for i in range(4):
        proc.vmspace.fill(addr, 4, seed=i)
        machine.run_for(PERIOD_NS)
        sls.checkpoint(group, sync=True)
    assert sls.slo.violations(group.group_id, "rpo") == 4
    assert sls.slo.violations(group.group_id, "stop") == 4


def test_mem_checkpoints_track_stop_time_but_not_rpo():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 4, seed=0)
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True, mode=MODE_MEM)
    row, = sls.slo.report(group.group_id)
    assert row["stop"]["count"] == 1
    assert row["commits"] == 0  # nothing became durable


def test_critical_path_summary_aggregates_stage_self_times():
    machine, sls, group, results = _run_checkpoints(5)
    rows = slo.critical_path_summary(group.group_id)
    by_name = {row["name"]: row for row in rows}
    assert by_name["ckpt.serialize"]["count"] == 5
    assert by_name["ckpt.serialize"]["self_ns"] <= \
        by_name["ckpt.serialize"]["total_ns"]
    assert by_name["ckpt.serialize"]["mean_self_ns"] * 5 <= \
        by_name["ckpt.serialize"]["total_ns"]
    # Self-time ordering is what the CLI prints.
    self_times = [row["self_ns"] for row in rows]
    assert self_times == sorted(self_times, reverse=True)
