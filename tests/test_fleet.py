"""The fleet control plane: EDF scheduling, admission control,
backpressure, and per-tenant isolation (core/fleet.py).

Covers the control-plane contract directly: one armed loop timer for
any number of tenants, deadlines dispatched earliest-first, admission
refusing or widening over-subscribed arrivals, backpressure reacting
to both estimated aggregates and observed deadline misses, detach
leaving in-flight flushes orphaned but harmless, and one tenant's
ENOSPC-degraded spell leaving every other tenant inside its RPO
budget.
"""

import itertools
import random

import pytest

from repro import Machine, load_aurora
from repro.core import events, resilience, telemetry
from repro.core.faults import FaultPlan
from repro.core.fleet import MAX_WIDEN_FACTOR, van_der_corput
from repro.errors import AdmissionRejected, InvalidArgument
from repro.objstore.scrub import scrub
from repro.units import GiB, KiB, MSEC, MiB, PAGE_SIZE, SEC


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    events.log().reset()
    yield
    telemetry.reset()


@pytest.fixture
def setup():
    machine = Machine()
    sls = load_aurora(machine)
    return machine, sls


def make_tenant(machine, sls, name, period_ms=10, pages=8, **attach_kw):
    proc = machine.kernel.spawn(name)
    addr = proc.vmspace.mmap(pages * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, pages, seed=hash(name) & 0xFFFF)
    group = sls.attach(proc, name=name, period_ns=period_ms * MSEC,
                       **attach_kw)
    return proc, group, addr


# -- EDF queue ---------------------------------------------------------------


def test_one_timer_serves_many_tenants(setup):
    """The whole fleet shares a single armed loop event."""
    machine, sls = setup
    for index in range(10):
        make_tenant(machine, sls, f"t{index}", period_ms=10 + index)
    live = [e for e in machine.loop._heap
            if not e.cancelled and e.callback.__name__ == "_fire"]
    assert len(live) == 1
    assert sls.fleet.next_deadline() == live[0].when


def test_edf_dispatches_earliest_deadline_first(setup):
    machine, sls = setup
    _pa, fast, _aa = make_tenant(machine, sls, "fast", period_ms=10)
    _pb, slow, _ab = make_tenant(machine, sls, "slow", period_ms=40)
    machine.run_for(80 * MSEC)
    assert fast.dispatches > 2 * slow.dispatches
    assert slow.dispatches >= 1
    assert fast.deadline_misses == 0 and slow.deadline_misses == 0


def test_stagger_is_low_discrepancy_and_first_tenant_unshifted():
    """Admission k phases its first deadline by vdc(k) · period: the
    first tenant keeps the legacy now+period tick, later tenants
    spread across the period instead of thundering together."""
    assert van_der_corput(0) == 0.0
    phases = [van_der_corput(k) for k in range(8)]
    assert len(set(phases)) == 8
    assert all(0.0 <= p < 1.0 for p in phases)
    # Bit reversal: the second arrival lands mid-period.
    assert van_der_corput(1) == 0.5


def test_cancelling_last_timer_disarms_the_loop(setup):
    machine, sls = setup
    _p, group, _a = make_tenant(machine, sls, "only")
    group.timer.cancel()
    assert sls.fleet.next_deadline() is None
    # The loop drains: nothing periodic survives the eviction.
    machine.loop.drain()
    assert events.log().matching(events.FLEET_EVICT)


def test_fleet_timer_compat_handle(setup):
    """group.timer keeps the legacy cancel()/cancelled surface — on the
    tenant's one scheduling entry, not on a handle mirroring it."""
    machine, sls = setup
    _p, group, _a = make_tenant(machine, sls, "compat")
    assert group.timer is sls.fleet._entries[group.group_id]
    assert not group.timer.cancelled
    group.timer.cancel()
    assert group.timer.cancelled
    assert group.group_id not in sls.fleet._entries
    group.timer.cancel()    # idempotent: one eviction, one event
    assert len(events.log().matching(events.FLEET_EVICT)) == 1


# -- admission control -------------------------------------------------------


def test_admission_rejects_oversubscribed_demand(setup):
    """Demand that even the maximum widen cannot fit is refused."""
    machine, sls = setup
    proc = machine.kernel.spawn("hog")
    proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    with pytest.raises(AdmissionRejected):
        sls.attach(proc, name="hog", period_ns=10 * MSEC,
                   demand_bytes_per_sec=100 * 1024 * GiB)
    # The attach unwound completely: no group, no timer, no proc link.
    assert not sls.groups
    assert proc.sls_group is None
    assert events.log().matching(events.ADMISSION_REJECT)
    assert sls.fleet.next_deadline() is None


def test_admission_widens_instead_when_policy_allows(setup):
    machine, sls = setup
    _p, group, _a = make_tenant(machine, sls, "elastic",
                                demand_bytes_per_sec=8 * GiB)
    assert group.backpressure_factor > 1
    assert group.backpressure_factor <= MAX_WIDEN_FACTOR
    widens = events.log().matching(events.BACKPRESSURE)
    assert widens and widens[0].fields["action"] == "admit_widen"
    # The widened effective period is what the EDF queue schedules.
    assert sls.fleet.effective_period(group) == \
        group.period_ns * group.backpressure_factor


def test_admission_reject_policy_refuses_unwidenable_demand(setup):
    """The admission rule is one constant: a newcomer is widened up to
    exactly MAX_WIDEN_FACTOR and refused only beyond it."""
    machine, sls = setup
    fits_widest = sls.fleet.capacity_bps() * MAX_WIDEN_FACTOR
    proc = machine.kernel.spawn("impossible")
    proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    with pytest.raises(AdmissionRejected):
        sls.attach(proc, name="impossible", period_ns=10 * MSEC,
                   demand_bytes_per_sec=2 * fits_widest)
    _p, group, _a = make_tenant(machine, sls, "widest",
                                demand_bytes_per_sec=fits_widest)
    assert group.backpressure_factor == MAX_WIDEN_FACTOR
    summary = sls.fleet.summary()
    assert (summary["admission_rejects"], summary["backpressure_widens"]) \
        == (1, 1)


def test_fleet_books_are_per_machine():
    """A widen and a reject on one machine leave another machine's
    fleet summary at zero: the scheduler keeps its own books."""
    first = load_aurora(Machine())
    make_tenant(first.machine, first, "elastic",
                demand_bytes_per_sec=8 * GiB)
    proc = first.machine.kernel.spawn("hog")
    with pytest.raises(AdmissionRejected):
        first.attach(proc, name="hog", demand_bytes_per_sec=100 * 1024 * GiB)
    assert first.fleet.summary()["backpressure_widens"] == 1
    assert first.fleet.summary()["admission_rejects"] == 1
    summary = load_aurora(Machine()).fleet.summary()
    assert summary["tenants"] == 0
    assert (summary["backpressure_widens"], summary["admission_rejects"],
            summary["deadline_misses"]) == (0, 0, 0)


def test_probe_every_is_validated_and_surfaced(setup):
    machine, sls = setup
    proc = machine.kernel.spawn("badprobe")
    proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    with pytest.raises(InvalidArgument):
        sls.attach(proc, name="badprobe", period_ns=10 * MSEC,
                    probe_every=0)
    _p, group, _a = make_tenant(machine, sls, "probed", probe_every=3)
    assert group.probe_every == 3
    row = next(r for r in sls.fleet.report()
               if r["group"] == group.group_id)
    assert row["probe_every"] == 3
    # Default comes from the named constant, not a magic number.
    _p2, other, _a2 = make_tenant(machine, sls, "defaulted")
    assert other.probe_every == resilience.DEFAULT_PROBE_EVERY


# -- backpressure ------------------------------------------------------------


def test_backpressure_widens_largest_tenant_then_relaxes(setup):
    machine, sls = setup
    tenants = [make_tenant(machine, sls, f"t{i}", period_ms=10)
               for i in range(3)]
    _p, offender, _a = tenants[0]
    # A measured demand far over capacity: the periodic check must
    # stretch the offender (largest share pays), not its neighbours.
    offender.demand_bytes_per_ckpt = 1 << 40
    machine.run_for(120 * MSEC)
    assert offender.backpressure_factor > 1
    for _p2, other, _a2 in tenants[1:]:
        assert other.backpressure_factor == 1
    # Demand subsides: the controller relaxes the widen again.
    offender.demand_bytes_per_ckpt = 4 * KiB
    machine.run_for(600 * MSEC)
    assert offender.backpressure_factor == 1
    actions = [e.fields["action"]
               for e in events.log().matching(events.BACKPRESSURE)]
    assert "widen" in actions and "relax" in actions


def test_deadline_misses_are_counted_and_fed_back(setup):
    """A dispatch later than the slack counts as a miss, emits the
    event, and the controller reacts even when the utilization
    estimates still claim headroom."""
    machine, sls = setup
    _p, group, _a = make_tenant(machine, sls, "missy", period_ms=10)
    fleet = sls.fleet
    entry = fleet._entries[group.group_id]
    # Arm a deadline in the past — beyond the period/4 slack.
    machine.clock.advance(20 * MSEC)
    fleet._dispatch(entry, machine.clock.now() - 8 * MSEC)
    assert group.deadline_misses == 1
    miss_events = events.log().matching(events.DEADLINE_MISS)
    assert miss_events and miss_events[0].fields["lateness_ns"] > 0
    # The observed miss alone drives one widen round at the next check.
    fleet._backpressure_check()
    assert group.backpressure_factor > 1


# -- satellite: detach during an in-flight flush -----------------------------


def _dirty_heap(proc, pages):
    addr = proc.vmspace.mmap(pages * PAGE_SIZE, name="bulk")
    proc.vmspace.fill(addr, pages, seed=7)
    return addr


def test_detach_with_flush_in_flight_completes_harmlessly(setup):
    """The regression: a flush that outlives detach must neither
    resurrect the group's SLO series nor fire another tick."""
    machine, sls = setup
    proc = machine.kernel.spawn("leaver")
    _dirty_heap(proc, 4096)  # 16 MiB: the flush outlives the period
    group = sls.attach(proc, name="leaver", period_ns=10 * MSEC)
    machine.run_for(11 * MSEC)
    assert group.flush_in_progress
    sls.detach(group)
    assert not group.attached and group.timer is None
    slo_state = sls.slo.groups.get(group.group_id)
    samples_before = slo_state.series["rpo_lag"].count if slo_state else 0
    machine.loop.drain()
    # The orphaned flush either landed or aborted, but the group saw
    # no further scheduling and the SLO tracker no post-detach commit.
    assert not group.flush_in_progress
    slo_state = sls.slo.groups.get(group.group_id)
    samples_after = slo_state.series["rpo_lag"].count if slo_state else 0
    assert samples_after == samples_before
    assert group.dispatches <= 2
    assert sls.fleet.next_deadline() is None


def test_orphaned_flush_failure_skips_degraded_entry(setup):
    """A flush failing after detach reports CKPT_FAIL with the
    detached marker and must not push the dead group into degraded
    mode or emergency GC."""
    machine, sls = setup
    proc = machine.kernel.spawn("ghost")
    _dirty_heap(proc, 64)
    group = sls.attach(proc, name="ghost", period_ns=10 * MSEC)
    sls.detach(group)
    from repro.errors import NoSpace
    sls.rollback_failed_checkpoint(group, None,
                                   error=NoSpace("store full"))
    fails = events.log().matching(events.CKPT_FAIL)
    assert fails and fails[-1].fields["detached"] is True
    assert not group.health.degraded
    assert not events.log().matching(events.GC_EMERGENCY)


# -- per-tenant degraded isolation -------------------------------------------


def test_enospc_tenant_does_not_drag_down_neighbours():
    """The acceptance criterion: one tenant driven ENOSPC-degraded on
    a nearly-full store leaves every other tenant checkpointing inside
    its RPO budget, with zero deadline misses of its own."""
    telemetry.reset()
    events.log().reset()
    machine = Machine(capacity_per_device=1 * MiB)
    sls = load_aurora(machine)

    victims = []
    for index in range(3):
        proc = machine.kernel.spawn(f"victim{index}")
        addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
        group = sls.attach(proc, name=f"victim{index}",
                           period_ns=10 * MSEC, history_limit=2,
                           rpo_budget_ns=40 * MSEC)
        victims.append((proc, group, addr))

    offender_proc = machine.kernel.spawn("offender")
    offender_addr = offender_proc.vmspace.mmap(256 * PAGE_SIZE,
                                               name="heap")
    offender = sls.attach(offender_proc, name="offender",
                          period_ns=10 * MSEC, probe_every=8)

    entered = False
    for step in range(60):
        offender_proc.vmspace.fill(offender_addr, 160, seed=step)
        for vindex, (proc, _group, addr) in enumerate(victims):
            proc.vmspace.write(addr, b"v:%d:%d" % (vindex, step))
        machine.run_for(10 * MSEC)
        if offender.health.degraded:
            entered = True
        if entered and step > 40:
            break
    assert entered, "offender never entered ENOSPC degradation"

    for _proc, group, _addr in victims:
        assert not group.health.degraded
        assert group.deadline_misses == 0
        assert group.stats["checkpoints"] >= 10
        row = sls.slo.report(group.group_id)[0]
        assert row["rpo_violations"] == 0
        assert row["rpo_lag"]["p99"] <= 40 * MSEC
    # The degraded offender stops booking store bandwidth while
    # memory-only, so the admission picture shrinks with it.
    if offender.health.degraded:
        assert sls.fleet._demand_bps(offender) == 0
    telemetry.reset()


def test_emergency_gc_on_a_full_device_stays_in_the_event_loop():
    """A device that refuses every write from some IO on fails the
    emergency GC's deletes too (each writes child metadata and a flip):
    the valve stops at the first, the fleet keeps running memory-only,
    the store stays consistent, and once space returns the tenant's
    probe takes it out of degraded mode."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("tenant")
    addr = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, name="tenant", period_ns=10 * MSEC,
                       history_limit=2)
    for step in range(12):
        proc.vmspace.fill(addr + (4 * step % 64) * PAGE_SIZE, 4, seed=step)
        if step == 6:
            machine.set_fault_plan(
                FaultPlan(name="enospc").nospace_at_io(1))
        machine.run_for(10 * MSEC)
    assert group.health.degraded
    machine.clear_fault_plan()
    for step in range(12, 40):
        proc.vmspace.fill(addr, 4, seed=step)
        machine.run_for(10 * MSEC)
        if not group.health.degraded:
            break
    assert not group.health.degraded
    report = scrub(sls.store, sls)
    assert report.ok, report.findings


# -- reporting ---------------------------------------------------------------


def test_fleet_report_and_summary_fields(setup):
    machine, sls = setup
    make_tenant(machine, sls, "a", period_ms=10)
    make_tenant(machine, sls, "b", period_ms=20)
    machine.run_for(100 * MSEC)
    rows = sls.fleet.report()
    assert len(rows) == 2
    for row in rows:
        for key in ("group", "name", "period_ns", "effective_period_ns",
                    "backpressure_factor", "demand_bps", "demand_share",
                    "dispatches", "checkpoints", "deadline_misses",
                    "flush_skips", "degraded", "probe_every",
                    "deadline_ns"):
            assert key in row, key
        assert row["dispatches"] > 0
    summary = sls.fleet.summary()
    assert summary["tenants"] == 2
    assert summary["capacity_bps"] > 0
    assert 0 <= summary["time_util"] < 1
    assert summary["deadline_misses"] == 0
    assert 0.9 <= summary["fairness"]["jain"] <= 1.0


def test_fairness_normalizes_by_period(setup):
    """Raw p99 RPO lag scales with the period; the fleet metric
    normalizes so a mixed fleet is not unfair by construction."""
    machine, sls = setup
    tenants = []
    for index, period in enumerate((10, 20, 40)):
        tenants.append(make_tenant(machine, sls, f"mix{index}",
                                   period_ms=period, pages=4))
    for step in range(40):
        for proc, _group, addr in tenants:
            proc.vmspace.write(addr, b"step:%d" % step)
        machine.run_for(10 * MSEC)
    groups = [group.group_id for _p, group, _a in tenants]
    raw = sls.slo.fleet_fairness(groups)
    normalized = sls.slo.fleet_fairness(
        groups, normalize={group.group_id: group.period_ns
                           for _p, group, _a in tenants})
    assert normalized["jain"] >= raw["jain"]
    assert normalized["jain"] >= 0.9


def test_sixteen_mixed_tenants_meet_every_deadline_fairly(setup):
    """The 16-tenant point of the retired ``bench_fleet.py``:
    memcached / redis / rocksdb-profile tenants (cadence, dirty pages
    per checkpoint), three quarters attached up front, the rest
    arriving through the first half of the run, an eighth departing
    in the second.  The offered load is feasible, so the control
    plane never has to act, no deadline is missed and the fleet is
    fair.  (Over capacity, a widen or a reject must show instead: the
    admission and backpressure tests above.)"""
    machine, sls = setup
    profiles = [(25, 8), (50, 16), (100, 24)]
    step_ms, steps = 5, 120
    rng = random.Random(0xF1EE7 ^ 16)
    late_at = sorted(rng.randrange(1, steps // 2) for _ in range(4))
    depart_at = sorted(rng.randrange(steps // 2, steps - 1)
                       for _ in range(2))

    indexes = itertools.count()
    arrived = []

    def arrive():
        index = next(indexes)
        period_ms, pages = profiles[index % len(profiles)]
        proc, group, addr = make_tenant(
            machine, sls, f"tenant{index}", period_ms=period_ms,
            pages=pages, rpo_budget_ns=4 * period_ms * MSEC,
            history_limit=4,
            demand_bytes_per_sec=pages * PAGE_SIZE * 1000 // period_ms)
        arrived.append(group)
        return proc, group, addr, pages, period_ms

    live = [arrive() for _ in range(12)]
    cursor = 0
    for step in range(steps):
        while late_at and late_at[0] <= step:
            late_at.pop(0)
            live.append(arrive())
        while depart_at and depart_at[0] <= step:
            depart_at.pop(0)
            sls.detach(live.pop(rng.randrange(len(live)))[1])
        for proc, _group, addr, pages, period_ms in live:
            for _ in range(max(1, pages * step_ms // period_ms)):
                cursor += 1
                proc.vmspace.write(addr + cursor % pages * PAGE_SIZE,
                                   b"step:%d" % step)
        machine.run_for(step_ms * MSEC)

    summary = sls.fleet.summary()
    assert summary["tenants"] == 14
    assert summary["time_util"] <= 0.8
    assert summary["bandwidth_util"] <= 0.8
    assert summary["admission_rejects"] == 0
    assert summary["backpressure_widens"] == 0
    assert sum(group.dispatches for group in arrived) > 100
    assert summary["deadline_misses"] == 0
    assert summary["fairness"]["jain"] >= 0.9
