"""RPO and stop-time SLO tracking for the continuous checkpoint loop.

Aurora's headline numbers — 100 Hz continuous checkpointing with
millisecond persistence and sub-millisecond stop times (§6) — are
service level objectives.  The :class:`SLOTracker` turns them into
monitored budgets:

* **Recovery-point lag** — the worst-case data loss were power to fail
  just before a commit lands: the sim-time between a checkpoint's
  durable commit and the *capture instant* (quiesce start) of the
  previous durable checkpoint.  At a steady 100 Hz with async flushes
  this hovers around one period plus the flush latency; the default
  budget is 10 ms (one period).
* **Stop time** — the quiesce→resume window of each checkpoint;
  budget 1 ms (§4.1's "a millisecond or less").
* **End-to-end latency** — capture instant to durable commit of the
  same checkpoint (the "continuous persistence lag" of §6).

Samples are exact (per-checkpoint values, not histogram buckets), so
``sls slo``'s max/p50/p99 can be cross-checked against the known
commit schedule of a deterministic run — which a test does.  Budget
violations are counted per group in ``sls.slo.violations`` counters.

The tracker is fed by the orchestrator (stop time after each pipeline
run, commit data from the store's completion callback) and never
advances the simulated clock.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from ..serde import Encoded
from ..units import MSEC, SEC
from . import events as events_mod
from . import telemetry, tracing

#: Default budgets: one 100 Hz period of recovery-point lag, and the
#: paper's sub-millisecond stop time.
DEFAULT_RPO_NS = 10 * MSEC
DEFAULT_STOP_NS = 1 * MSEC
#: Degraded-mode time budget: cumulative time a group may spend in
#: degraded mode (memory-only checkpoints / widened interval) before
#: it counts as an SLO violation — five normal checkpoint periods.
DEFAULT_DEGRADED_NS = 50 * MSEC
#: Cluster budgets: commit→write-quorum lag (two checkpoint periods),
#: failover (promote + restore on the new primary), and per-segment
#: repair MTTR — the Aurora ~10 s segment-repair window that bounds
#: durability.
DEFAULT_QUORUM_NS = 20 * MSEC
DEFAULT_FAILOVER_NS = 1 * SEC
DEFAULT_REPAIR_SEGMENT_NS = 10 * SEC
#: Fencing / reconciliation budgets: winning a quorum epoch bump (a
#: round of small control messages plus one superblock flip per
#: voter), bytes a single heal-time reconciliation may move (the
#: digest exchange should keep this near the real divergence, not the
#: history size), and the time a fenced ex-primary may sit in the
#: stale-primary degraded mode before reconciliation retires it.
DEFAULT_EPOCH_BUMP_NS = 100 * MSEC
DEFAULT_RECONCILE_BYTES = 4 * 1024 * 1024
DEFAULT_STALE_PRIMARY_NS = 1 * SEC

#: Exact samples kept per series (oldest dropped beyond this).
SAMPLE_CAPACITY = 65536

#: Burn-rate alerting: the recent window of samples the rate is
#: computed over, the minimum samples before alerting (a single bad
#: first commit is noise, not a burn), and the edge-trigger threshold
#: in milli-units (2000 = consuming budget at 2x the sustainable
#: rate — the classic "fast burn" page).
BURN_WINDOW = 32
BURN_MIN_SAMPLES = 4
BURN_ALERT_MILLI = 2000


def _nearest_rank(ordered: List[int], p: float) -> int:
    """Nearest-rank percentile of already-sorted samples (0 when empty)."""
    if not ordered:
        return 0
    rank = max(1, int(len(ordered) * p / 100.0 + 0.9999))
    return ordered[min(rank, len(ordered)) - 1]


def percentile_exact(values: Iterable[int], p: float) -> int:
    """Nearest-rank percentile over exact samples (0 when empty)."""
    return _nearest_rank(sorted(values), p)


class SLOTargets:
    """Configurable budgets."""

    __slots__ = ("rpo_ns", "stop_ns", "degraded_ns", "quorum_ns",
                 "failover_ns", "repair_segment_ns", "epoch_bump_ns",
                 "reconcile_bytes", "stale_primary_ns")

    def __init__(self, rpo_ns: int = DEFAULT_RPO_NS,
                 stop_ns: int = DEFAULT_STOP_NS,
                 degraded_ns: int = DEFAULT_DEGRADED_NS,
                 quorum_ns: int = DEFAULT_QUORUM_NS,
                 failover_ns: int = DEFAULT_FAILOVER_NS,
                 repair_segment_ns: int = DEFAULT_REPAIR_SEGMENT_NS,
                 epoch_bump_ns: int = DEFAULT_EPOCH_BUMP_NS,
                 reconcile_bytes: int = DEFAULT_RECONCILE_BYTES,
                 stale_primary_ns: int = DEFAULT_STALE_PRIMARY_NS):
        self.rpo_ns = rpo_ns
        self.stop_ns = stop_ns
        self.degraded_ns = degraded_ns
        self.quorum_ns = quorum_ns
        self.failover_ns = failover_ns
        self.repair_segment_ns = repair_segment_ns
        self.epoch_bump_ns = epoch_bump_ns
        self.reconcile_bytes = reconcile_bytes
        self.stale_primary_ns = stale_primary_ns

    def replace(self, **overrides: int) -> "SLOTargets":
        """A copy with the given budgets overridden."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        for name, value in overrides.items():
            if name not in fields:
                raise TypeError(f"unknown SLO budget {name!r}")
            fields[name] = value
        return SLOTargets(**fields)

    def __repr__(self) -> str:
        return (f"SLOTargets(rpo={self.rpo_ns}ns, stop={self.stop_ns}ns, "
                f"degraded={self.degraded_ns}ns, "
                f"quorum={self.quorum_ns}ns)")


class _Series:
    """One bounded exact-sample series.  Samples are only ever
    appended, so ``added`` identifies the series' state — readers may
    cache anything they derive from it under that number."""

    __slots__ = ("values", "added")

    def __init__(self) -> None:
        self.values: Deque[int] = deque(maxlen=SAMPLE_CAPACITY)
        #: Samples ever added, evicted ones included.
        self.added = 0

    def add(self, value: int) -> None:
        self.values.append(value)
        self.added += 1

    def tail(self, count: int) -> List[int]:
        """The newest ``count`` samples, oldest first."""
        return telemetry.ring_tail(self.values, count)

    def summary(self) -> Dict[str, int]:
        ordered = sorted(self.values)
        return {
            "count": len(ordered),
            "max": ordered[-1] if ordered else 0,
            "p50": _nearest_rank(ordered, 50),
            "p95": _nearest_rank(ordered, 95),
            "p99": _nearest_rank(ordered, 99),
        }


class _GroupSLO:
    """Per-consistency-group SLO state."""

    def __init__(self, group_id: int):
        self.group_id = group_id
        self.rpo_lag = _Series()
        self.stop = _Series()
        self.e2e = _Series()
        #: Capture instant of the newest durable checkpoint.
        self.last_durable_capture: Optional[int] = None
        self.commits = 0
        #: Degraded-mode spells: per-spell lengths, cumulative total,
        #: and the start of the still-open spell (if any).
        self.degraded = _Series()
        self.degraded_total_ns = 0
        self.degraded_since: Optional[int] = None
        #: Cluster series: commit→quorum-ack lag, failover durations,
        #: per-segment repair MTTR.
        self.quorum_lag = _Series()
        self.failover = _Series()
        self.repair_mttr = _Series()
        #: Fencing series: quorum epoch-bump latency, bytes moved per
        #: heal-time reconciliation, and stale-primary degraded spells.
        self.epoch_bump = _Series()
        self.reconcile_bytes = _Series()
        self.stale_primary = _Series()
        #: The flight recorder's encoded snapshot row for this tenant
        #: and the state key it was encoded at (see ``flightrec``).
        self.encoded_row: Optional[Tuple[tuple, Encoded]] = None


class SLOTracker:
    """Derives RPO/stop-time/latency SLO compliance from the feed the
    orchestrator provides."""

    def __init__(self, targets: Optional[SLOTargets] = None):
        self.targets = targets or SLOTargets()
        self.groups: Dict[int, _GroupSLO] = {}
        #: Per-tenant budget overrides (fleet-admitted groups with
        #: explicit budgets land here; everyone else inherits
        #: ``self.targets``).
        self.group_targets: Dict[int, SLOTargets] = {}
        #: Tenant attribution: group id -> tenant name, threaded in by
        #: the orchestrator at attach time so alerts and reports carry
        #: who, not just which group.
        self.tenant_names: Dict[int, str] = {}
        #: Edge-trigger state per (group, budget): True while burning
        #: over threshold, so an alert fires once per excursion.
        self._burning: Dict[tuple, bool] = {}

    def set_group_targets(self, group_id: int, **overrides: int) -> None:
        """Install per-tenant budgets for one group (merged over the
        tracker-wide defaults)."""
        self.group_targets[group_id] = self.targets.replace(**overrides)

    def targets_for(self, group_id: int) -> SLOTargets:
        """The budgets in force for one group."""
        return self.group_targets.get(group_id, self.targets)

    def _group(self, group_id: int) -> _GroupSLO:
        state = self.groups.get(group_id)
        if state is None:
            state = _GroupSLO(group_id)
            self.groups[group_id] = state
        return state

    def _violate(self, group_id: int, budget: str) -> None:
        telemetry.registry().counter("sls.slo.violations",
                                     group=group_id,
                                     budget=budget).add(1)

    # -- burn-rate alerting -------------------------------------------------------

    def _burn_series(self, group_id: int, budget: str) -> tuple:
        state = self._group(group_id)
        targets = self.targets_for(group_id)
        table = {"rpo": (state.rpo_lag, targets.rpo_ns),
                 "stop": (state.stop, targets.stop_ns),
                 "quorum": (state.quorum_lag, targets.quorum_ns)}
        if budget not in table:
            raise ValueError(f"no burn rate for budget {budget!r}")
        return table[budget]

    def burn_rate_milli(self, group_id: int, budget: str,
                        window: int = BURN_WINDOW) -> int:
        """Budget consumption rate over the recent sample window, in
        milli-units: 1000 means the tenant consumes its budget exactly
        as fast as it accrues; 2000 burns it at twice the sustainable
        rate.  0 with no samples."""
        series, target = self._burn_series(group_id, budget)
        recent = series.tail(window)
        if not recent or target <= 0:
            return 0
        return sum(recent) * 1000 // (len(recent) * target)

    def _check_burn(self, group_id: int, budget: str,
                    now_ns: int) -> None:
        """Edge-triggered burn-rate alert: emits one ``slo.alert``
        event when a budget's recent burn crosses the threshold, and
        re-arms once it drops back under."""
        series, _target = self._burn_series(group_id, budget)
        if len(series.values) < BURN_MIN_SAMPLES:
            return
        burn = self.burn_rate_milli(group_id, budget)
        key = (group_id, budget)
        burning = burn >= BURN_ALERT_MILLI
        if burning and not self._burning.get(key, False):
            events_mod.emit(now_ns, events_mod.SLO_ALERT,
                            group=group_id,
                            tenant=self.tenant_names.get(group_id),
                            budget=budget, burn_milli=burn,
                            threshold_milli=BURN_ALERT_MILLI,
                            window=min(len(series.values), BURN_WINDOW))
            telemetry.registry().counter("sls.slo.alerts",
                                         group=group_id,
                                         budget=budget).add(1)
        self._burning[key] = burning

    def alerts(self, group_id: int, budget: str) -> int:
        return telemetry.registry().value("sls.slo.alerts",
                                          group=group_id, budget=budget)

    # -- the orchestrator feed ----------------------------------------------------

    def on_stop_time(self, group_id: int, stop_ns: int) -> None:
        """One checkpoint's quiesce→resume window closed."""
        state = self._group(group_id)
        state.stop.add(stop_ns)
        if stop_ns > self.targets_for(group_id).stop_ns:
            self._violate(group_id, "stop")

    def on_commit(self, group_id: int, ckpt_id: int,
                  capture_ns: int, commit_ns: int) -> None:
        """A checkpoint became durable.

        ``capture_ns`` is the checkpoint's quiesce-start instant (the
        state it made durable is the state *as of* that time).
        """
        state = self._group(group_id)
        prev = state.last_durable_capture
        # Worst-case loss just before this commit landed: everything
        # since the previous durable capture.  The first commit of a
        # chain has no predecessor; its own capture bounds the lag.
        lag = commit_ns - (prev if prev is not None else capture_ns)
        state.rpo_lag.add(lag)
        state.e2e.add(commit_ns - capture_ns)
        state.last_durable_capture = capture_ns
        state.commits += 1
        if lag > self.targets_for(group_id).rpo_ns:
            self._violate(group_id, "rpo")
        self._check_burn(group_id, "rpo", commit_ns)

    def on_degraded_enter(self, group_id: int, now_ns: int) -> None:
        """The group entered degraded mode; the spell clock starts."""
        state = self._group(group_id)
        if state.degraded_since is None:
            state.degraded_since = now_ns

    def on_degraded_exit(self, group_id: int, now_ns: int) -> None:
        """Probe succeeded: close the spell and charge the budget."""
        state = self._group(group_id)
        if state.degraded_since is None:
            return
        spell = now_ns - state.degraded_since
        state.degraded_since = None
        state.degraded.add(spell)
        budget = self.targets_for(group_id).degraded_ns
        was_over = state.degraded_total_ns - spell > budget
        state.degraded_total_ns += spell
        if state.degraded_total_ns > budget and not was_over:
            self._violate(group_id, "degraded")

    # -- the cluster feed ---------------------------------------------------------

    def on_quorum_ack(self, group_id: int, lag_ns: int,
                      now_ns: Optional[int] = None) -> None:
        """A checkpoint reached its write quorum ``lag_ns`` after the
        cluster first saw it committed."""
        state = self._group(group_id)
        state.quorum_lag.add(lag_ns)
        if lag_ns > self.targets_for(group_id).quorum_ns:
            self._violate(group_id, "quorum")
        if now_ns is None:
            now_ns = (state.last_durable_capture or 0) + lag_ns
        self._check_burn(group_id, "quorum", now_ns)

    def on_failover(self, group_id: int, failover_ns: int) -> None:
        """A standby node was promoted to primary."""
        state = self._group(group_id)
        state.failover.add(failover_ns)
        if failover_ns > self.targets_for(group_id).failover_ns:
            self._violate(group_id, "failover")

    def on_epoch_bump(self, group_id: int, bump_ns: int) -> None:
        """A quorum epoch bump (the fencing round of a failover or an
        operator promote) completed in ``bump_ns``."""
        state = self._group(group_id)
        state.epoch_bump.add(bump_ns)
        if bump_ns > self.targets_for(group_id).epoch_bump_ns:
            self._violate(group_id, "epoch_bump")

    def on_reconcile(self, group_id: int, nbytes: int) -> None:
        """One heal-time anti-entropy reconciliation moved ``nbytes``
        of differing segments across the wire."""
        state = self._group(group_id)
        state.reconcile_bytes.add(nbytes)
        if nbytes > self.targets_for(group_id).reconcile_bytes:
            self._violate(group_id, "reconcile")

    def on_stale_primary(self, group_id: int, spell_ns: int) -> None:
        """A fenced ex-primary's stale-primary degraded spell closed
        (reconciliation retired it) after ``spell_ns``."""
        state = self._group(group_id)
        state.stale_primary.add(spell_ns)
        if spell_ns > self.targets_for(group_id).stale_primary_ns:
            self._violate(group_id, "stale_primary")

    def on_repair_segment(self, group_id: int, mttr_ns: int) -> None:
        """One lost segment copy was rebuilt ``mttr_ns`` after repair
        began — the window in which a further fault could have lined
        up on the same data."""
        state = self._group(group_id)
        state.repair_mttr.add(mttr_ns)
        if mttr_ns > self.targets_for(group_id).repair_segment_ns:
            self._violate(group_id, "repair")

    def degraded_time_ns(self, group_id: int,
                         now_ns: Optional[int] = None) -> int:
        """Cumulative degraded time, including any open spell."""
        state = self._group(group_id)
        total = state.degraded_total_ns
        if state.degraded_since is not None and now_ns is not None:
            total += now_ns - state.degraded_since
        return total

    # -- reporting ---------------------------------------------------------------

    def fleet_fairness(self, group_ids: Optional[List[int]] = None,
                       normalize: Optional[Dict[int, int]] = None
                       ) -> Dict[str, Any]:
        """Fleet-wide fairness over per-tenant p99 RPO lag.

        Jain's index ``(Σx)² / (n·Σx²)`` is 1.0 when every tenant sees
        the same tail lag and approaches ``1/n`` when one tenant
        absorbs it all; the max/min ratio is the blunt companion
        number.  Groups without commits are excluded (they have no
        tail yet).

        ``normalize`` maps group id → divisor (typically the tenant's
        checkpoint period): a 50 ms tenant structurally carries 5× the
        raw lag of a 10 ms tenant, so a mixed fleet is compared on
        lag *per period* — equal multiples mean a fair scheduler.
        Raw-lag min/max are always reported alongside."""
        ids = sorted(self.groups) if group_ids is None else group_ids
        raw: List[int] = []
        scaled: List[float] = []
        for gid in ids:
            state = self.groups.get(gid)
            if state is None or not state.rpo_lag.values:
                continue
            p99 = percentile_exact(state.rpo_lag.values, 99)
            raw.append(p99)
            divisor = 1 if normalize is None else max(1, normalize.get(gid, 1))
            scaled.append(p99 / divisor)
        n = len(scaled)
        total = sum(scaled)
        sumsq = sum(x * x for x in scaled)
        jain = (total * total / (n * sumsq)) if sumsq else 1.0
        lo, hi = (min(scaled), max(scaled)) if scaled else (0.0, 0.0)
        ratio = (hi / lo) if lo else (1.0 if hi == 0 else float("inf"))
        return {
            "groups": n,
            "normalized": normalize is not None,
            "p99_rpo_min_ns": min(raw) if raw else 0,
            "p99_rpo_max_ns": max(raw) if raw else 0,
            "max_min_ratio": ratio,
            "jain": jain,
        }

    def violations(self, group_id: int, budget: str) -> int:
        return telemetry.registry().value("sls.slo.violations",
                                          group=group_id, budget=budget)

    def report(self, group_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Per-group SLO summary rows (the ``sls slo`` payload)."""
        rows = []
        for gid in sorted(self.groups):
            if group_id is not None and gid != group_id:
                continue
            state = self.groups[gid]
            targets = self.targets_for(gid)
            rows.append({
                "group": gid,
                "tenant": self.tenant_names.get(gid),
                "commits": state.commits,
                "rpo_burn_milli": self.burn_rate_milli(gid, "rpo"),
                "quorum_burn_milli": self.burn_rate_milli(gid, "quorum"),
                "alerts": (self.alerts(gid, "rpo")
                           + self.alerts(gid, "stop")
                           + self.alerts(gid, "quorum")),
                "rpo_lag": state.rpo_lag.summary(),
                "stop": state.stop.summary(),
                "e2e": state.e2e.summary(),
                "rpo_target_ns": targets.rpo_ns,
                "stop_target_ns": targets.stop_ns,
                "rpo_violations": self.violations(gid, "rpo"),
                "stop_violations": self.violations(gid, "stop"),
                "degraded_spells": len(state.degraded.values),
                "degraded_total_ns": state.degraded_total_ns,
                "degraded_open": state.degraded_since is not None,
                "degraded_target_ns": targets.degraded_ns,
                "degraded_violations": self.violations(gid, "degraded"),
                "quorum_lag": state.quorum_lag.summary(),
                "failover": state.failover.summary(),
                "repair_mttr": state.repair_mttr.summary(),
                "quorum_target_ns": targets.quorum_ns,
                "failover_target_ns": targets.failover_ns,
                "repair_target_ns": targets.repair_segment_ns,
                "quorum_violations": self.violations(gid, "quorum"),
                "failover_violations": self.violations(gid, "failover"),
                "repair_violations": self.violations(gid, "repair"),
                "epoch_bump": state.epoch_bump.summary(),
                "reconcile_bytes": state.reconcile_bytes.summary(),
                "stale_primary": state.stale_primary.summary(),
                "epoch_bump_target_ns": targets.epoch_bump_ns,
                "reconcile_target_bytes": targets.reconcile_bytes,
                "stale_primary_target_ns": targets.stale_primary_ns,
                "epoch_bump_violations": self.violations(gid, "epoch_bump"),
                "reconcile_violations": self.violations(gid, "reconcile"),
                "stale_primary_violations":
                    self.violations(gid, "stale_primary"),
            })
        return rows


def critical_path_summary(group_id: Optional[int] = None
                          ) -> List[Dict[str, Any]]:
    """Aggregate stage self-time decomposition over every finished
    checkpoint trace: where checkpoint wall time actually goes.

    Returns rows ``{name, count, total_ns, self_ns, mean_self_ns}``
    summed across the direct children of each checkpoint trace's root
    (the pipeline stages), ordered by total self time.
    """
    labels = {} if group_id is None else {"group": group_id}
    totals: Dict[str, Dict[str, int]] = {}
    for trace_obj in tracing.tracer().traces(tracing.CHECKPOINT, **labels):
        for row in tracing.critical_path(trace_obj):
            agg = totals.setdefault(row["name"],
                                    {"count": 0, "total_ns": 0,
                                     "self_ns": 0})
            agg["count"] += 1
            agg["total_ns"] += row["duration_ns"]
            agg["self_ns"] += row["self_ns"]
    rows = []
    for name, agg in totals.items():
        rows.append({
            "name": name,
            "count": agg["count"],
            "total_ns": agg["total_ns"],
            "self_ns": agg["self_ns"],
            "mean_self_ns": (agg["self_ns"] // agg["count"]
                             if agg["count"] else 0),
        })
    rows.sort(key=lambda row: -row["self_ns"])
    return rows
