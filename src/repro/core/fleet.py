"""The fleet control plane: EDF checkpoint scheduling for thousands
of consistency groups.

Before this module every :class:`~repro.core.group.ConsistencyGroup`
armed its own independent ``call_after`` timer, so co-scheduled
tenants collided on the NVMe bandwidth model, one tenant's ENOSPC
spiral could widen everyone's cadence, and nothing refused new
attachments when the store saturated.  The :class:`FleetScheduler`
replaces all of that with one control plane:

* **A single EDF queue.**  Every periodic group carries a deadline
  (``last dispatch + effective period``); the scheduler arms exactly
  one event-loop timer at the *earliest* deadline and dispatches due
  groups earliest-deadline-first.  Admission staggers initial phases
  with a van der Corput (bit-reversal) sequence so deadlines spread
  across the period instead of detonating together.
* **Admission control.**  A group is admitted only while aggregate
  demand fits the store: Σ ``dirty_bytes/period`` must stay under the
  measured NVMe write bandwidth (``costs.NVME_WRITE_BW`` ×
  ``costs.NVME_DEVICES``), and Σ ``service/period`` — the sim-time a
  dispatch occupies the control plane — must stay under the time
  budget.  Over-budget attaches are refused (``ADMISSION_REJECT``)
  or auto-widened (``BACKPRESSURE``), per policy.
* **Backpressure, offender-pays.**  Demand estimates are EWMAs of
  observed dirty bytes and service time; when measured aggregate
  demand outgrows capacity the scheduler stretches the *largest*
  tenant's period (never the fleet's), and relaxes it again once
  demand subsides.
* **Per-tenant degraded isolation.**  The degraded tick (memory-only
  checkpoints + every-``probe_every``-th disk probe for ENOSPC, a
  ``WIDEN_FACTOR`` widened interval for device trouble) runs per
  group; a degraded ENOSPC tenant writes nothing to the store, so its
  booked bandwidth demand drops to zero and its neighbours keep their
  cadence.  The paper's §7 invariant — a slow store bounds checkpoint
  *frequency*, never correctness — therefore holds per tenant.

Crash consistency: the scheduler reports its decision points
(admission, EDF dispatch, backpressure widen) to the machine's
:class:`~repro.core.faults.FaultPlan` as ``fleet`` boundaries, so the
crash-schedule explorer can power-fail the control plane anywhere and
prove every tenant restores to its last durable checkpoint.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import AdmissionRejected, NoSpace, RetriesExhausted, StoreFull
from ..units import SEC, USEC
from . import costs, events, resilience, telemetry
from .group import ConsistencyGroup
from .pipeline import MODE_MEM

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .orchestrator import Orchestrator

__all__ = ["ADMIT_REJECT", "ADMIT_WIDEN", "FleetScheduler"]

#: Admission policies: refuse an infeasible attach outright, or
#: stretch the newcomer's period until it fits.
ADMIT_REJECT = "reject"
ADMIT_WIDEN = "widen"

#: Fraction of the aggregate NVMe write bandwidth admission may book.
BANDWIDTH_UTIL_CAP = 0.8
#: Fraction of sim-time the checkpoint control plane may book
#: (Σ service/period); checkpoints serialize on the machine, so this
#: is the EDF schedulability bound with headroom.
TIME_UTIL_CAP = 0.8
#: Aggregate store write bandwidth (bytes/second) admission bills
#: against: the measured per-device rate across the stripe.
CAPACITY_BYTES_PER_SEC = costs.NVME_WRITE_BW * costs.NVME_DEVICES

#: Conservative per-dispatch service estimate before the first
#: measurement (orchestration base plus capture work).
ADMIT_SERVICE_NS = 300 * USEC

#: Backpressure may stretch one tenant's period by at most this much.
MAX_WIDEN_FACTOR = 64
#: A relaxation (halving a widened period) must leave aggregate
#: demand below this fraction of each cap, or it would oscillate.
RELAX_MARGIN = 0.75

#: Dispatch later than ``period / MISS_SLACK_DIV`` past the EDF
#: deadline counts as a deadline miss (per-group override:
#: ``group.miss_slack_ns``).
MISS_SLACK_DIV = 4

#: The backpressure controller recomputes aggregate demand every Nth
#: dispatch (the aggregates are O(tenants); at thousands of tenants
#: running them per dispatch would cost more than the checkpoints).
BACKPRESSURE_CHECK_EVERY = 8


def van_der_corput(index: int) -> float:
    """Base-2 van der Corput value in [0, 1): bit-reversed ``index``.

    Successive admissions land at 0.5, 0.25, 0.75, 0.125, ... of the
    period — maximally spread without any shared state beyond a
    counter, and deterministic.
    """
    frac, denom = 0.0, 1.0
    while index:
        denom *= 2.0
        frac += (index & 1) / denom
        index >>= 1
    return frac


class _Entry:
    """One admitted group's slot in the EDF queue, stored as
    ``group.timer``.

    ``ConsistencyGroup.cancel_timer()`` (suspend, detach, restore,
    migration) and the benchmarks' ``group.timer.cancel()`` stop a
    group's periodic chain through this object — cancelling it evicts
    the group from the queue.
    """

    __slots__ = ("_fleet", "group", "deadline_ns", "cancelled")

    def __init__(self, fleet: "FleetScheduler", group: ConsistencyGroup):
        self._fleet = fleet
        self.group = group
        self.deadline_ns = 0
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._fleet._evict(self.group)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        return f"_Entry(group={self.group.group_id}, {state})"


class FleetScheduler:
    """Fleet-wide EDF checkpoint scheduler with admission control."""

    def __init__(self, sls: "Orchestrator") -> None:
        self.sls = sls
        self.machine = sls.machine
        self.clock = sls.kernel.clock
        self.telemetry = telemetry.registry()
        #: EDF queue: ``(deadline, seq, group_id)`` with lazy deletion
        #: (a popped tuple is stale unless it matches the entry's
        #: current deadline).
        self._heap: List[Tuple[int, int, int]] = []
        self._entries: Dict[int, _Entry] = {}
        self._seq = 0
        #: Lifetime admissions; drives the van der Corput stagger.
        self._admissions = 0
        #: Lifetime dispatches; paces the backpressure controller.
        self._dispatch_count = 0
        #: Fleet-wide deadline misses, and how many the backpressure
        #: controller has already reacted to.  Misses are the ground
        #: truth the EWMA estimates cannot see (async flush completions
        #: consume machine time that never shows up in per-dispatch
        #: service observations).
        self._miss_total = 0
        self._miss_seen = 0
        #: The one armed event-loop timer (earliest deadline), and the
        #: instant it is armed for.
        self._armed: Optional[Any] = None
        self._armed_for: Optional[int] = None

    # -- admission ---------------------------------------------------------

    def admit(self, group: ConsistencyGroup,
              demand_bytes_per_sec: Optional[int] = None,
              policy: str = ADMIT_WIDEN) -> _Entry:
        """Admission-test ``group`` and enter it into the EDF queue.

        ``demand_bytes_per_sec`` seeds the demand estimate (else the
        group starts with whatever EWMA it already carries, or zero —
        a blank tenant is admitted on the service-time test alone and
        the estimate catches up after its first checkpoints).
        """
        if policy not in (ADMIT_REJECT, ADMIT_WIDEN):
            raise ValueError(f"bad admission policy {policy!r}")
        now = self.clock.now()
        if demand_bytes_per_sec is not None:
            group.demand_bytes_per_ckpt = (
                demand_bytes_per_sec * group.period_ns // SEC)
        self._fault_boundary(group.group_id, "admit")
        widen = self._admission_widen(group)
        if widen > 1:
            if policy == ADMIT_REJECT or widen > MAX_WIDEN_FACTOR:
                events.emit(now, events.ADMISSION_REJECT,
                            group=group.group_id, tenant=group.name,
                            demand_bps=self._demand_bps(group),
                            aggregate_bps=self.aggregate_demand_bps(),
                            capacity_bps=self.capacity_bps())
                self.telemetry.counter("sls.fleet.admission_rejects").add(1)
                raise AdmissionRejected(
                    f"group {group.group_id} ({group.name}): admitting "
                    f"would exceed store capacity "
                    f"(aggregate {self.aggregate_demand_bps()} B/s + "
                    f"{self._demand_bps(group)} B/s > "
                    f"{self.capacity_bps()} B/s, or time utilization "
                    f"over {TIME_UTIL_CAP})")
            group.backpressure_factor = widen
            events.emit(now, events.BACKPRESSURE, group=group.group_id,
                        tenant=group.name, action="admit_widen", factor=widen,
                        effective_period_ns=self.effective_period(group))
            self.telemetry.counter("sls.fleet.backpressure_widens",
                                   group=group.group_id).add(1)
        entry = _Entry(self, group)
        self._entries[group.group_id] = entry
        group.timer = entry
        period = self.effective_period(group)
        # Stagger: admission k takes phase vdc(k) of its own period,
        # with vdc(0) = 0 — the first tenant keeps the legacy
        # ``now + period`` first tick, later tenants spread out.
        phase = int(van_der_corput(self._admissions) * period)
        self._admissions += 1
        self._set_deadline(entry, now + period + phase)
        if group.rpo_budget_ns is not None:     # the tenant's own budget
            self.sls.slo.set_group_targets(group.group_id,
                                           rpo_ns=group.rpo_budget_ns)
        events.emit(now, events.FLEET_ADMIT, group=group.group_id,
                    tenant=group.name, period_ns=group.period_ns, factor=group.backpressure_factor,
                    phase_ns=phase)
        self.telemetry.counter("sls.fleet.admitted").add(1)
        self._rearm()
        return entry

    def _admission_widen(self, group: ConsistencyGroup) -> int:
        """Smallest power-of-two widen factor that makes the fleet
        (incumbents + candidate) feasible; ``2 * MAX_WIDEN_FACTOR``
        when even the widest period does not fit."""
        bw_used = self.aggregate_demand_bps()
        util_used = self.aggregate_time_util()
        widen = 1
        while widen <= MAX_WIDEN_FACTOR:
            period = group.period_ns * widen
            if group.health.degraded \
                    and group.health.reason == resilience.REASON_DEVICE:
                period *= resilience.WIDEN_FACTOR
            bw = (0 if self._memory_only(group)
                  else group.demand_bytes_per_ckpt * SEC // period)
            service = group.service_ns_est or ADMIT_SERVICE_NS
            if (bw_used + bw <= self.capacity_bps()
                    and util_used + service / period <= TIME_UTIL_CAP):
                return widen
            widen *= 2
        return widen

    def _evict(self, group: ConsistencyGroup) -> None:
        entry = self._entries.pop(group.group_id, None)
        if entry is None:
            return
        entry.cancelled = True
        events.emit(self.clock.now(), events.FLEET_EVICT,
                    group=group.group_id, tenant=group.name)
        self._rearm()

    # -- demand accounting -------------------------------------------------

    @staticmethod
    def capacity_bps() -> int:
        """Bandwidth admission may book (measured rate × headroom)."""
        return int(CAPACITY_BYTES_PER_SEC * BANDWIDTH_UTIL_CAP)

    @staticmethod
    def _memory_only(group: ConsistencyGroup) -> bool:
        """Degraded-ENOSPC tenants checkpoint to memory only: they
        consume no store bandwidth until their probe succeeds."""
        return (group.health.degraded
                and group.health.reason == resilience.REASON_ENOSPC)

    def effective_period(self, group: ConsistencyGroup) -> int:
        """Requested period × backpressure widen × degraded widen."""
        period = group.period_ns * group.backpressure_factor
        if group.health.degraded \
                and group.health.reason == resilience.REASON_DEVICE:
            period *= resilience.WIDEN_FACTOR
        return period

    def _demand_bps(self, group: ConsistencyGroup) -> int:
        if self._memory_only(group):
            return 0
        return (group.demand_bytes_per_ckpt * SEC
                // self.effective_period(group))

    def _time_util(self, group: ConsistencyGroup) -> float:
        service = group.service_ns_est or ADMIT_SERVICE_NS
        return service / self.effective_period(group)

    def aggregate_demand_bps(self) -> int:
        """Σ dirty_bytes/period over admitted, store-writing tenants."""
        return sum(self._demand_bps(entry.group)
                   for entry in self._entries.values())

    def aggregate_time_util(self) -> float:
        """Σ service/period over admitted tenants."""
        return sum(self._time_util(entry.group)
                   for entry in self._entries.values())

    # -- the EDF queue -----------------------------------------------------

    def _set_deadline(self, entry: _Entry, when_ns: int) -> None:
        entry.deadline_ns = when_ns
        self._seq += 1
        heapq.heappush(self._heap, (when_ns, self._seq,
                                    entry.group.group_id))

    def _next_deadline(self) -> Optional[int]:
        """Earliest live deadline (popping stale heap tuples)."""
        while self._heap:
            when, _, gid = self._heap[0]
            entry = self._entries.get(gid)
            if entry is None or entry.deadline_ns != when:
                heapq.heappop(self._heap)
                continue
            return when
        return None

    def next_deadline(self) -> Optional[int]:
        """Public view of the earliest live deadline (``sls fleet``)."""
        return self._next_deadline()

    def _rearm(self) -> None:
        """Keep exactly one loop timer armed at the earliest deadline;
        disarm entirely when the queue is empty (so a drained loop
        goes idle — nothing periodic survives the last eviction)."""
        deadline = self._next_deadline()
        if deadline is None:
            if self._armed is not None:
                self._armed.cancel()
                self._armed = None
                self._armed_for = None
            return
        if (self._armed is not None and not self._armed.cancelled
                and self._armed_for == deadline):
            return
        if self._armed is not None:
            self._armed.cancel()
        when = max(deadline, self.clock.now())
        self._armed = self.machine.loop.call_at(when, self._fire)
        self._armed_for = deadline

    def _fire(self) -> None:
        """The armed timer fired: dispatch every due group in EDF
        order.  Dispatches advance the sim clock, which may push
        further deadlines into the past; the loop absorbs them here,
        still earliest-first, instead of re-arming per group."""
        self._armed = None
        self._armed_for = None
        try:
            while True:
                deadline = self._next_deadline()
                if deadline is None or deadline > self.clock.now():
                    break
                # The head tuple is live (validated above): dispatch it.
                _, _, gid = heapq.heappop(self._heap)
                self._dispatch(self._entries[gid], deadline)
        finally:
            self._rearm()

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, entry: _Entry, deadline: int) -> None:
        """One EDF dispatch: miss accounting, the periodic checkpoint
        (or degraded tick), demand observation, backpressure, and the
        next deadline."""
        group = entry.group
        if not group.attached or group.suspended:
            # The chain dies quietly, exactly like the pre-fleet
            # per-group timer did.
            self._evict(group)
            return
        self._fault_boundary(group.group_id, "dispatch")
        start_ns = self.clock.now()
        group.dispatches += 1
        self.telemetry.counter("sls.fleet.dispatches",
                               group=group.group_id).add(1)
        lateness = start_ns - deadline
        slack = (group.miss_slack_ns if group.miss_slack_ns is not None
                 else self.effective_period(group) // MISS_SLACK_DIV)
        if lateness > slack:
            group.deadline_misses += 1
            self._miss_total += 1
            self.telemetry.counter("sls.fleet.deadline_misses",
                                   group=group.group_id).add(1)
            events.emit(start_ns, events.DEADLINE_MISS,
                        group=group.group_id, tenant=group.name,
                        lateness_ns=lateness,
                        slack_ns=slack)
        if group.flush_in_progress:
            # A flush overrunning the period delays the next
            # checkpoint rather than piling up (§7).
            group.flush_skips += 1
            self.telemetry.counter("sls.fleet.flush_skips",
                                   group=group.group_id).add(1)
        else:
            bytes_before = group.stats["bytes_flushed"]
            self._periodic_checkpoint(group)
            self._observe(group, start_ns, bytes_before)
            self._dispatch_count += 1
            if self._dispatch_count % BACKPRESSURE_CHECK_EVERY == 0:
                self._backpressure_check()
        if not entry.cancelled and group.attached and not group.suspended:
            self._set_deadline(entry, self.clock.now()
                               + self.effective_period(group))

    def _periodic_checkpoint(self, group: ConsistencyGroup) -> None:
        """One periodic tick: checkpoint, absorbing storage failures
        into the group's own degraded-mode state machine instead of
        unwinding into the event loop.  Injected power failures still
        propagate — a dying host does not degrade gracefully."""
        sls = self.sls
        health = group.health
        if health.degraded:
            self._degraded_tick(group)
            return
        try:
            sls.checkpoint(group)
            health.consecutive_failures = 0
        except (StoreFull, NoSpace) as exc:
            sls._enter_degraded(group, resilience.REASON_ENOSPC, exc)
            sls._emergency_gc(group)
            # Keep the cadence alive with a memory-only checkpoint:
            # bounded stop times, no store writes.
            sls.checkpoint(group, mode=MODE_MEM)
        except RetriesExhausted as exc:
            health.consecutive_failures += 1
            if (health.consecutive_failures
                    >= resilience.DEVICE_FAILURE_THRESHOLD):
                sls._enter_degraded(group, resilience.REASON_DEVICE, exc)

    def _degraded_tick(self, group: ConsistencyGroup) -> None:
        sls = self.sls
        health = group.health
        health.ticks += 1
        if health.reason == resilience.REASON_ENOSPC:
            # Memory-only checkpoints with a periodic disk probe at
            # the tenant's own cadence; the probe is full so
            # everything captured only in memory since degrading
            # becomes durable the moment space allows.
            if health.ticks % group.probe_every == 0:
                try:
                    sls.checkpoint(group, name="probe", full=True,
                                   sync=True)
                    sls._exit_degraded(group)
                    return
                except (StoreFull, NoSpace, RetriesExhausted):
                    sls._emergency_gc(group)
            sls.checkpoint(group, mode=MODE_MEM)
            return
        # Device trouble: the widened-interval tick *is* the probe.
        try:
            sls.checkpoint(group, name="probe", full=True, sync=True)
            sls._exit_degraded(group)
        except RetriesExhausted:
            health.consecutive_failures += 1
        except (StoreFull, NoSpace) as exc:
            sls._enter_degraded(group, resilience.REASON_ENOSPC, exc)
            sls._emergency_gc(group)

    def _observe(self, group: ConsistencyGroup, start_ns: int,
                 bytes_before: int) -> None:
        """Fold one dispatch into the EWMA demand/service estimates
        (new = 3/4 old + 1/4 observed)."""
        service = self.clock.now() - start_ns
        if group.service_ns_est:
            group.service_ns_est = (3 * group.service_ns_est
                                    + service) // 4
        else:
            group.service_ns_est = service
        written = group.stats["bytes_flushed"] - bytes_before
        if written > 0:
            if group.demand_bytes_per_ckpt:
                group.demand_bytes_per_ckpt = (
                    3 * group.demand_bytes_per_ckpt + written) // 4
            else:
                group.demand_bytes_per_ckpt = written

    def _backpressure_check(self) -> None:
        """Measured aggregate demand outgrew capacity: stretch the
        largest tenant's period (offender pays) until the fleet fits
        again; relax a widened tenant when demand subsides."""
        now = self.clock.now()
        missed = self._miss_total - self._miss_seen
        self._miss_seen = self._miss_total
        rounds = 0
        while rounds < 32:
            over_bw = self.aggregate_demand_bps() > self.capacity_bps()
            over_time = self.aggregate_time_util() > TIME_UTIL_CAP
            # Deadlines slipping while the estimates claim headroom
            # means the estimates are wrong, not the deadlines: widen
            # once per check on the observed-lateness signal alone.
            over_lateness = missed > 0 and rounds == 0
            if not over_bw and not over_time and not over_lateness:
                break
            offender = self._largest_tenant()
            if (offender is None
                    or offender.backpressure_factor >= MAX_WIDEN_FACTOR):
                break
            self._fault_boundary(offender.group_id, "widen")
            offender.backpressure_factor *= 2
            events.emit(now, events.BACKPRESSURE,
                        group=offender.group_id, tenant=offender.name,
                        action="widen",
                        factor=offender.backpressure_factor,
                        effective_period_ns=self.effective_period(offender))
            self.telemetry.counter("sls.fleet.backpressure_widens",
                                   group=offender.group_id).add(1)
            rounds += 1
        if rounds:
            return
        # Relaxation: one tenant per dispatch, only while deadlines are
        # holding, and only when halving its factor leaves clear margin
        # (no oscillation).
        if missed:
            return
        for entry in self._entries.values():
            group = entry.group
            if group.backpressure_factor <= 1:
                continue
            halved = group.backpressure_factor // 2
            saved = group.backpressure_factor
            group.backpressure_factor = halved
            fits = (self.aggregate_demand_bps()
                    <= self.capacity_bps() * RELAX_MARGIN
                    and self.aggregate_time_util()
                    <= TIME_UTIL_CAP * RELAX_MARGIN)
            if not fits:
                group.backpressure_factor = saved
                continue
            events.emit(now, events.BACKPRESSURE, group=group.group_id,
                        tenant=group.name, action="relax", factor=halved,
                        effective_period_ns=self.effective_period(group))
            break

    def _largest_tenant(self) -> Optional[ConsistencyGroup]:
        """The admitted group contributing the largest share of the
        binding resource."""
        best: Optional[ConsistencyGroup] = None
        best_share = -1.0
        for entry in self._entries.values():
            group = entry.group
            share = max(self._demand_bps(group)
                        / max(1, self.capacity_bps()),
                        self._time_util(group) / TIME_UTIL_CAP)
            if share > best_share:
                best, best_share = group, share
        return best

    # -- fault boundaries --------------------------------------------------

    def _fault_boundary(self, group_id: int, boundary: str) -> None:
        plan = getattr(self.machine, "fault_plan", None)
        if plan is not None:
            plan.on_fleet(group_id, boundary)

    # -- reporting ---------------------------------------------------------

    def report(self) -> List[Dict[str, Any]]:
        """Per-tenant scheduler rows (the ``sls fleet`` payload)."""
        rows: List[Dict[str, Any]] = []
        aggregate = max(1, self.aggregate_demand_bps())
        for gid in sorted(self._entries):
            entry = self._entries[gid]
            group = entry.group
            health = group.health
            demand = self._demand_bps(group)
            rows.append({
                "group": gid,
                "name": group.name,
                "period_ns": group.period_ns,
                "effective_period_ns": self.effective_period(group),
                "backpressure_factor": group.backpressure_factor,
                "demand_bps": demand,
                "demand_share": demand / aggregate,
                "service_ns_est": group.service_ns_est or ADMIT_SERVICE_NS,
                "dispatches": group.dispatches,
                "checkpoints": group.stats["checkpoints"],
                "deadline_misses": group.deadline_misses,
                "flush_skips": group.flush_skips,
                "degraded": health.reason if health.degraded else "",
                "probe_every": group.probe_every,
                "deadline_ns": entry.deadline_ns,
            })
        return rows

    def summary(self) -> Dict[str, Any]:
        """Fleet-wide scheduler summary (capacity, demand, fairness)."""
        registry = self.telemetry
        periods = {gid: entry.group.period_ns
                   for gid, entry in self._entries.items()}
        fairness = self.sls.slo.fleet_fairness(sorted(self._entries),
                                               normalize=periods)
        return {
            "tenants": len(self._entries),
            "capacity_bps": self.capacity_bps(),
            "aggregate_demand_bps": self.aggregate_demand_bps(),
            "bandwidth_util": (self.aggregate_demand_bps()
                               / max(1, self.capacity_bps())),
            "time_util": self.aggregate_time_util(),
            "time_util_cap": TIME_UTIL_CAP,
            "deadline_misses": registry.value("sls.fleet.deadline_misses"),
            "admission_rejects": registry.value(
                "sls.fleet.admission_rejects"),
            "backpressure_widens": registry.value(
                "sls.fleet.backpressure_widens"),
            "fairness": fairness,
            "next_deadline_ns": self._next_deadline(),
        }
