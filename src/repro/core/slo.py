"""RPO and stop-time SLO tracking for the continuous checkpoint loop.

Aurora's headline numbers — 100 Hz continuous checkpointing with
millisecond persistence and sub-millisecond stop times (§6) — are
service level objectives.  The :class:`SLOTracker` turns them into
monitored budgets, and *what a budget is* lives in one table: each
:data:`BUDGETS` row names a violation label, the sample series it
feeds, its :class:`SLOTargets` field and default, its unit and whether
it burn-alerts.  Targets, per-group series, violation counting, burn
rates and ``report()`` are derived from the table, and every sample
enters through ``SLOTracker.observe(group, budget, value)``.  The
named entry points left are the ones that derive a value first:

* ``on_commit`` — **recovery-point lag**, the worst-case data loss
  were power to fail just before a commit lands: the sim-time between
  a checkpoint's durable commit and the *capture instant* (quiesce
  start) of the previous durable checkpoint.  At a steady 100 Hz with
  async flushes this hovers around one period plus the flush latency.
  Also records capture → durable commit of the same checkpoint (§6's
  "continuous persistence lag") as the budget-less ``e2e`` series.
* ``on_stop_time`` / ``on_quorum_ack`` — the quiesce→resume window;
  commit → write-quorum lag plus its burn check.
* ``on_degraded_enter/exit`` — a spell state machine: the budget is
  charged with *cumulative* degraded time.

Samples are exact (:class:`telemetry.Series`, the one statistics
primitive), so ``sls slo``'s max/p50/p99 can be cross-checked against
the known commit schedule of a deterministic run — which a test does.
Violations are counted per group in ``sls.slo.violations`` counters.
The tracker never advances the simulated clock.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..serde import Encoded
from ..units import MSEC, SEC
from . import events as events_mod
from . import telemetry, tracing
from .telemetry import Series


class Budget(NamedTuple):
    """One :data:`BUDGETS` row.  ``label`` is the ``budget=`` label of
    ``sls.slo.violations`` and prefixes the report's
    ``<label>_target_<unit>`` / ``<label>_violations`` keys; ``series``
    names the per-group sample series and its ``report()`` key;
    ``target`` is the :class:`SLOTargets` field; ``unit`` is ``"ns"``
    or ``"bytes"``; ``burn`` turns on burn rates and alerts."""

    label: str
    series: str
    target: str
    default: int
    unit: str
    burn: bool


BUDGETS: Tuple[Budget, ...] = (
    # One 100 Hz period of recovery-point lag.
    Budget("rpo", "rpo_lag", "rpo_ns", 10 * MSEC, "ns", True),
    # The paper's sub-millisecond stop time (§4.1).
    Budget("stop", "stop", "stop_ns", 1 * MSEC, "ns", False),
    # Cumulative time in degraded mode (memory-only checkpoints /
    # widened interval): five normal checkpoint periods.
    Budget("degraded", "degraded", "degraded_ns", 50 * MSEC, "ns", False),
    # Cluster: commit→write-quorum lag (two checkpoint periods),
    # failover (promote + restore on the new primary), and per-segment
    # repair MTTR — the Aurora ~10 s segment-repair window that bounds
    # durability.
    Budget("quorum", "quorum_lag", "quorum_ns", 20 * MSEC, "ns", True),
    Budget("failover", "failover", "failover_ns", 1 * SEC, "ns", False),
    Budget("repair", "repair_mttr", "repair_segment_ns", 10 * SEC, "ns",
           False),
    # Fencing / reconciliation: winning a quorum epoch bump (a round of
    # small control messages plus one superblock flip per voter), bytes
    # a single heal-time reconciliation may move (the digest exchange
    # should keep this near the real divergence, not the history size),
    # and the time a fenced ex-primary may sit in the stale-primary
    # degraded mode before reconciliation retires it.
    Budget("epoch_bump", "epoch_bump", "epoch_bump_ns", 100 * MSEC, "ns",
           False),
    Budget("reconcile", "reconcile_bytes", "reconcile_bytes",
           4 * 1024 * 1024, "bytes", False),
    Budget("stale_primary", "stale_primary", "stale_primary_ns", 1 * SEC,
           "ns", False),
)
_BY_LABEL: Dict[str, Budget] = {row.label: row for row in BUDGETS}

#: Burn-rate alerting: the recent window of samples the rate is
#: computed over, the minimum samples before alerting (a single bad
#: first commit is noise, not a burn), and the edge-trigger threshold
#: in milli-units (2000 = consuming budget at 2x the sustainable
#: rate — the classic "fast burn" page).
BURN_WINDOW = 32
BURN_MIN_SAMPLES = 4
BURN_ALERT_MILLI = 2000


class SLOTargets(SimpleNamespace):
    """Configurable budgets: one field per :data:`BUDGETS` row, by the
    row's ``target`` name (``SLOTargets(rpo_ns=..., stop_ns=...)``)."""

    def __init__(self, **budgets: int) -> None:
        fields = {row.target: row.default for row in BUDGETS}
        unknown = budgets.keys() - fields.keys()
        if unknown:
            raise TypeError(f"unknown SLO budget {sorted(unknown)[0]!r}")
        super().__init__(**{**fields, **budgets})

    def replace(self, **overrides: int) -> "SLOTargets":
        """A copy with the given budgets overridden."""
        return SLOTargets(**{**vars(self), **overrides})


class _GroupSLO:
    """Per-consistency-group SLO state."""

    def __init__(self) -> None:
        #: One series per budget by its ``series`` name, plus the
        #: budget-less end-to-end commit latency.
        self.series: Dict[str, Series] = {
            name: Series() for name in [b.series for b in BUDGETS] + ["e2e"]}
        #: Capture instant of the newest durable checkpoint.
        self.last_durable_capture: Optional[int] = None
        self.commits = 0
        #: Degraded-mode spells: cumulative total and the start of the
        #: still-open spell (if any).
        self.degraded_total_ns = 0
        self.degraded_since: Optional[int] = None
        #: The flight recorder's encoded snapshot row for this tenant
        #: and the state key it was encoded at (see ``flightrec``).
        self.encoded_row: Optional[Tuple[tuple, Encoded]] = None


class SLOTracker:
    """Derives SLO compliance from the feed the orchestrator and the
    cluster provide."""

    def __init__(self, targets: Optional[SLOTargets] = None) -> None:
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

    def _target(self, group_id: int, row: Budget) -> int:
        return getattr(self.targets_for(group_id), row.target)

    def _group(self, group_id: int) -> _GroupSLO:
        state = self.groups.get(group_id)
        if state is None:
            state = _GroupSLO()
            self.groups[group_id] = state
        return state

    def _violate(self, group_id: int, budget: str) -> None:
        telemetry.registry().counter("sls.slo.violations",
                                     group=group_id,
                                     budget=budget).add(1)

    def observe(self, group_id: int, budget: str, value: int) -> None:
        """Record one sample against the budget with this label and
        count a violation when it is over the group's target."""
        row = _BY_LABEL.get(budget)
        if row is None:
            raise ValueError(f"unknown SLO budget {budget!r}")
        self._group(group_id).series[row.series].observe(value)
        if value > self._target(group_id, row):
            self._violate(group_id, budget)

    # -- burn-rate alerting -------------------------------------------------------

    def burn_rate_milli(self, group_id: int, budget: str) -> int:
        """Budget consumption rate over the last ``BURN_WINDOW`` samples, in
        milli-units: 1000 means the tenant consumes its budget exactly
        as fast as it accrues; 2000 burns it at twice the sustainable
        rate.  0 with no samples."""
        row = _BY_LABEL.get(budget)
        if row is None or not row.burn:
            raise ValueError(f"no burn rate for budget {budget!r}")
        target = self._target(group_id, row)
        recent = self._group(group_id).series[row.series].tail(BURN_WINDOW)
        if not recent or target <= 0:
            return 0
        return sum(recent) * 1000 // (len(recent) * target)

    def _check_burn(self, group_id: int, budget: str, now_ns: int) -> None:
        """Edge-triggered burn-rate alert: emits one ``slo.alert``
        event when a budget's recent burn crosses the threshold, and
        re-arms once it drops back under."""
        series = self._group(group_id).series[_BY_LABEL[budget].series]
        if series.count < BURN_MIN_SAMPLES:
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
                            window=min(series.count, BURN_WINDOW))
            telemetry.registry().counter("sls.slo.alerts",
                                         group=group_id,
                                         budget=budget).add(1)
        self._burning[key] = burning

    def alerts(self, group_id: int, budget: str) -> int:
        return telemetry.registry().value("sls.slo.alerts",
                                          group=group_id, budget=budget)

    # -- the orchestrator and cluster feed ----------------------------------------

    def on_stop_time(self, group_id: int, stop_ns: int) -> None:
        """One checkpoint's quiesce→resume window closed."""
        self.observe(group_id, "stop", stop_ns)

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
        self.observe(group_id, "rpo",
                     commit_ns - (prev if prev is not None else capture_ns))
        state.series["e2e"].observe(commit_ns - capture_ns)
        state.last_durable_capture = capture_ns
        state.commits += 1
        self._check_burn(group_id, "rpo", commit_ns)

    def on_quorum_ack(self, group_id: int, lag_ns: int, now_ns: int) -> None:
        """A checkpoint reached its write quorum ``lag_ns`` after the
        cluster first saw it committed."""
        self.observe(group_id, "quorum", lag_ns)
        self._check_burn(group_id, "quorum", now_ns)

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
        state.series["degraded"].observe(spell)
        budget = self.targets_for(group_id).degraded_ns
        was_over = state.degraded_total_ns - spell > budget
        state.degraded_total_ns += spell
        if state.degraded_total_ns > budget and not was_over:
            self._violate(group_id, "degraded")

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
            if state is None or not state.series["rpo_lag"].count:
                continue
            p99 = state.series["rpo_lag"].percentile(99)
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
        """Per-group SLO summary rows (the ``sls slo`` payload): for
        each :data:`BUDGETS` row its series summary under the series
        name, ``<label>_target_<unit>``, ``<label>_violations`` and,
        for burn-alerting budgets, ``<label>_burn_milli``."""
        rows = []
        for gid, state in sorted(self.groups.items()):
            if group_id not in (None, gid):
                continue
            row: Dict[str, Any] = {
                "group": gid,
                "tenant": self.tenant_names.get(gid),
                "commits": state.commits,
                "alerts": sum(self.alerts(gid, budget.label)
                              for budget in BUDGETS if budget.burn),
                "e2e": state.series["e2e"].summary(),
                "degraded_spells": state.series["degraded"].count,
                "degraded_total_ns": state.degraded_total_ns,
                "degraded_open": state.degraded_since is not None,
            }
            for budget in BUDGETS:
                label = budget.label
                row[budget.series] = state.series[budget.series].summary()
                row[f"{label}_target_{budget.unit}"] = \
                    self._target(gid, budget)
                row[f"{label}_violations"] = self.violations(gid, label)
                if budget.burn:
                    row[f"{label}_burn_milli"] = \
                        self.burn_rate_milli(gid, label)
            rows.append(row)
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
    rows: List[Dict[str, Any]] = [
        {"name": name, **agg, "mean_self_ns": agg["self_ns"] // agg["count"]}
        for name, agg in totals.items()]
    rows.sort(key=lambda row: -row["self_ns"])
    return rows
