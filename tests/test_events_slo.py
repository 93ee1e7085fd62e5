"""The structured event log and the RPO/stop-time SLO tracker.

The RPO cross-check is the ISSUE acceptance criterion: the lag
max/p99 that ``sls slo`` reports must equal a recomputation from the
run's known commit schedule (capture instants from the stage traces,
commit instants from the event log).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.core import events, slo, telemetry, tracing
from repro.core.orchestrator import MODE_MEM
from repro.units import MSEC, PAGE_SIZE
from tests.test_store_image_golden import cluster_scenario

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


def _series(samples):
    series = telemetry.Series()
    for sample in samples:
        series.observe(sample)
    return series


def _reference_percentile(samples, p):
    """Nearest rank over a sorted list: the smallest sample with at
    least p % of the samples at or below it (0 when empty)."""
    ordered = sorted(samples)
    if not ordered:
        return 0
    return ordered[max(1, -(-len(ordered) * p // 100)) - 1]


def test_percentile_exact_nearest_rank():
    values = list(range(1, 101))
    assert _series(values).percentile(50) == 50
    assert _series(values).percentile(95) == 95
    assert _series(values).percentile(99) == 99
    assert _series(values).percentile(100) == 100
    assert _series([7]).percentile(99) == 7
    assert _series([]).percentile(50) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 12),
                max_size=300))
def test_series_matches_a_sorted_list_reference(samples):
    series = _series(samples)
    assert (series.count, series.total) == (len(samples), sum(samples))
    assert series.min == min(samples, default=0)
    assert series.max == max(samples, default=0)
    p50, p95, p99 = (series.percentile(p) for p in (50, 95, 99))
    assert [p50, p95, p99] == [_reference_percentile(samples, p)
                               for p in (50, 95, 99)]
    assert series.min <= p50 <= p95 <= p99 <= series.max
    assert not samples or {p50, p95, p99} <= set(samples)
    assert series.percentile(100) == series.max
    assert series.summary() == {"count": len(samples), "max": series.max,
                                "p50": p50, "p95": p95, "p99": p99}


def test_series_is_a_bounded_ring_that_counts_every_sample(monkeypatch):
    monkeypatch.setattr(telemetry, "SAMPLE_CAPACITY", 8)
    series = _series(range(20))
    assert list(series.samples) == list(range(12, 20))
    assert series.tail(3) == [17, 18, 19]
    assert series.tail(50) == list(range(12, 20))
    # count/total/min/max stay exact over every sample ever observed;
    # percentiles read the window and stay inside [min, max].
    assert (series.count, series.total) == (20, sum(range(20)))
    assert (series.min, series.max) == (0, 19)
    assert series.summary() == {"count": 20, "max": 19,
                                "p50": 15, "p95": 19, "p99": 19}


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
    assert row["rpo_lag"]["p99"] == _reference_percentile(lags, 99)
    assert row["rpo_lag"]["p50"] == _reference_percentile(lags, 50)
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


def test_every_budget_row_is_wired_end_to_end():
    """BUDGETS is the only place a budget is spelled out: each row
    yields a target field, a series, its report keys, and a violation
    counter under its own label and no other."""
    base = slo.SLOTargets()
    labels = [row.label for row in slo.BUDGETS]
    assert len(set(labels)) == len(labels)
    for index, row in enumerate(slo.BUDGETS):
        gid = index + 1
        assert getattr(base, row.target) == row.default
        tracker = slo.SLOTracker(base.replace(**{row.target: 100}))
        tracker.observe(gid, row.label, 100)   # at the target: fine
        assert tracker.violations(gid, row.label) == 0
        tracker.observe(gid, row.label, 101)
        assert [tracker.violations(gid, label) for label in labels] == \
            [int(label == row.label) for label in labels]
        report, = tracker.report(gid)
        assert report[row.series] == {"count": 2, "max": 101, "p50": 100,
                                      "p95": 101, "p99": 101}
        assert report[f"{row.label}_target_{row.unit}"] == 100
        assert report[f"{row.label}_violations"] == 1
        assert (f"{row.label}_burn_milli" in report) == row.burn
        if row.burn:
            assert tracker.burn_rate_milli(gid, row.label) == 1005
        else:
            with pytest.raises(ValueError):
                tracker.burn_rate_milli(gid, row.label)
    assert {row.label for row in slo.BUDGETS if row.burn} == \
        {"rpo", "quorum"}
    with pytest.raises(TypeError):
        base.replace(nonsense_ns=1)
    with pytest.raises(TypeError):
        slo.SLOTargets(nonsense_ns=1)
    with pytest.raises(ValueError):
        slo.SLOTracker().observe(1, "nonsense", 1)
    with pytest.raises(ValueError):
        slo.SLOTracker().burn_rate_milli(1, "nonsense")


def test_cluster_reports_only_samples_that_occurred():
    """After the golden cluster scenario (AZ loss, pump, heal, repair)
    a reported p50 never exceeds the reported max and a segment's MTTR
    never exceeds its repair (log2 bucket edges used to break both)."""
    sls, group, cluster, repair = cluster_scenario()
    assert repair["segments"] > 0
    assert 0 < repair["mttr_p50_ns"] <= repair["mttr_max_ns"] \
        <= repair["wall_ns"]
    lag = sls.slo.groups[group.group_id].series["quorum_lag"]
    status = cluster.status()
    assert lag.min <= status["quorum_lag_p50_ns"] <= lag.max
    assert status["repair_mttr_p50_ns"] == repair["mttr_p50_ns"]
    rows = tracing.metrics_json()["histograms"]
    assert rows
    for row in rows:
        assert row["min_ns"] <= row["p50_ns"] <= row["p95_ns"] \
            <= row["p99_ns"] <= row["max_ns"], row


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
