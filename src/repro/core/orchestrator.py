"""The SLS orchestrator (§4.1): the module that makes POSIX persistent.

The orchestrator owns consistency groups and runs the checkpoint
pipeline defined in :mod:`.pipeline`:

    quiesce → collapse flushed shadows → system shadowing →
    serialize POSIX objects → seal → resume → asynchronous flush →
    commit

Only the stages before *resume* contribute to application stop time;
the flush overlaps execution thanks to the frozen system shadows.  A
new checkpoint is never initiated while the previous flush is in
flight (§7: a slow store bounds checkpoint frequency, never
correctness).  Per-stage timings land in the telemetry registry
(``sls stat`` reads them back).

``load_aurora`` is the module-load entry point: it formats or recovers
the object store, mounts the Aurora FS, and rebuilds the directory of
restorable applications after a crash.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import (InvalidArgument, MachineCrashed, NoSpace,
                      NoSuchCheckpoint, NotAttached, RetriesExhausted,
                      SLSError, StoreFull)
from ..kernel.fs.vfs import VFS
from ..objstore.oid import CLASS_GROUP, oid_serial
from ..objstore.store import ObjectStore
from ..slsfs.slsfs import SLSFS
from . import events, resilience, slo, telemetry, tracing
from .extsync import ExternalSynchrony
from .faults import InjectedCrash
from .fleet import ADMIT_WIDEN, FleetScheduler
from .group import ConsistencyGroup
from .pipeline import (MODE_DISK, MODE_MEM, CheckpointContext,
                       CheckpointPipeline, CheckpointResult)
from .restore import GroupRestorer, RestoreResult
from .shadowing import REVERSE, ShadowEngine

__all__ = ["MODE_DISK", "MODE_MEM", "CheckpointResult", "Orchestrator",
           "load_aurora"]


class Orchestrator:
    """The single level store control plane for one machine."""

    def __init__(self, machine, store: ObjectStore, slsfs: Optional[SLSFS],
                 collapse_direction: str = REVERSE):
        self.machine = machine
        self.kernel = machine.kernel
        self.store = store
        self.slsfs = slsfs
        self.shadow = ShadowEngine(self.kernel, store, collapse_direction)
        self.extsync = ExternalSynchrony(self.kernel)
        self.pipeline = CheckpointPipeline()
        self.telemetry = telemetry.registry()
        self.slo = slo.SLOTracker()
        # The flight recorder snapshots per-tenant SLO state through
        # the store it rides; give it the live tracker.
        store._slo_tracker = self.slo
        #: The fleet control plane: one EDF queue owns every periodic
        #: checkpoint (admission control, stagger, backpressure,
        #: per-tenant degraded ticks).
        self.fleet = FleetScheduler(self)
        self.groups: Dict[int, ConsistencyGroup] = {}
        #: Called with ``(group, info)`` after a disk checkpoint
        #: commits synchronously — the cluster pump's chance to
        #: replicate the commit before control returns to the caller.
        self.commit_hooks: List = []
        self.kernel.sls = self

    # -- attach / detach ---------------------------------------------------------------

    def attach(self, proc, name: str = "",
               period_ns: Optional[int] = None,
               external_synchrony: bool = False,
               periodic: bool = True,
               history_limit: Optional[int] = None,
               demand_bytes_per_sec: Optional[int] = None,
               admission: str = ADMIT_WIDEN,
               rpo_budget_ns: Optional[int] = None,
               probe_every: Optional[int] = None) -> ConsistencyGroup:
        """``sls attach``: put a process (and its tree) under Aurora.

        ``external_synchrony`` defaults off to mirror the paper's
        evaluated configuration (§8 Limitations); turning it on
        activates the buffer-until-commit path.  ``history_limit``
        bounds the retained execution history (old checkpoints are
        merged away WAFL-style after each commit).

        Periodic groups go through fleet admission control:
        ``demand_bytes_per_sec`` seeds the demand estimate and
        ``admission`` picks the over-capacity policy (``widen``
        stretches the newcomer's period; ``reject`` raises
        :class:`~repro.errors.AdmissionRejected` and leaves nothing
        attached).  ``rpo_budget_ns`` installs the tenant's RPO budget
        (``slo.set_group_targets`` sets any other target);
        ``probe_every`` sets the degraded disk-probe cadence.
        """
        desc_oid = self.store.alloc_oid(CLASS_GROUP)
        group = ConsistencyGroup(
            oid_serial(desc_oid), name=name or proc.name,
            period_ns=period_ns or ConsistencyGroup.DEFAULT_PERIOD,
            external_synchrony=external_synchrony)
        group.desc_oid = desc_oid
        group.history_limit = history_limit
        group.rpo_budget_ns = rpo_budget_ns
        if probe_every is not None:
            if probe_every < 1:
                raise InvalidArgument(f"bad probe cadence {probe_every}")
            group.probe_every = probe_every
        for member in proc.tree():
            group.add_process(member)
        self.groups[group.group_id] = group
        self.slo.tenant_names[group.group_id] = group.name
        if periodic:
            try:
                self.fleet.admit(group,
                                 demand_bytes_per_sec=demand_bytes_per_sec,
                                 policy=admission)
            except Exception:
                # A refused attach leaves no trace: the processes come
                # back out and the group never ran.
                for member in list(group.processes):
                    group.remove_process(member)
                group.attached = False
                self.groups.pop(group.group_id, None)
                raise
        return group

    def detach(self, group: ConsistencyGroup) -> None:
        """``sls detach``: stop persisting; history stays in the store."""
        group.cancel_timer()
        group.attached = False
        for proc in list(group.processes):
            group.remove_process(proc)
        self.extsync.drop_group(group)
        self.groups.pop(group.group_id, None)

    def mark_ephemeral(self, proc) -> None:
        """``sls detach <pid>`` on one member: keep it in the group but
        stop persisting it (§3 ephemeral processes)."""
        if proc.sls_group is None:
            raise NotAttached(f"{proc} is not attached")
        proc.sls_ephemeral = True

    # -- degraded-mode transitions (the fleet scheduler drives the
    # -- periodic ticks; see core/fleet.py) ----------------------------------------------

    def _enter_degraded(self, group: ConsistencyGroup, reason: str,
                        error: Optional[Exception] = None) -> None:
        health = group.health
        now = self.kernel.clock.now()
        if health.degraded:
            health.enter(reason, now)  # reason may change; spell continues
            return
        health.enter(reason, now)
        events.emit(now, events.DEGRADED_ENTER, group=group.group_id,
                    reason=reason,
                    error=(f"{type(error).__name__}: {error}"
                           if error is not None else None))
        self.telemetry.counter("sls.degraded.entries",
                               group=group.group_id, reason=reason).add(1)
        self.slo.on_degraded_enter(group.group_id, now)

    def _exit_degraded(self, group: ConsistencyGroup) -> None:
        health = group.health
        if not health.degraded:
            return
        now = self.kernel.clock.now()
        reason = health.reason
        spell = health.exit(now)
        events.emit(now, events.DEGRADED_EXIT, group=group.group_id,
                    reason=reason, spell_ns=spell)
        self.slo.on_degraded_exit(group.group_id, now)

    def _emergency_gc(self, group: ConsistencyGroup) -> int:
        """ENOSPC pressure valve: merge away the older half of the
        group's history (WAFL-style deletes free COW blocks)."""
        chain = self.store.checkpoints_for(group.group_id,
                                           include_partial=True)
        if not chain:
            return 0
        keep = max(1, len(chain) // 2)
        reclaimed = self.store.retain_last(group.group_id, keep)
        events.emit(self.kernel.clock.now(), events.GC_EMERGENCY,
                    group=group.group_id, reclaimed_bytes=reclaimed,
                    kept=keep)
        self.telemetry.counter("sls.gc.emergency_bytes",
                               group=group.group_id).add(reclaimed)
        return reclaimed

    # -- the checkpoint pipeline --------------------------------------------------------------

    def checkpoint(self, group: ConsistencyGroup, name: str = "",
                   full: bool = False, sync: bool = False,
                   mode: str = MODE_DISK) -> CheckpointResult:
        """Run the staged checkpoint pipeline on ``group``.

        Returns the :class:`CheckpointResult` view over the stage
        trace; per-stage spans are also recorded in the telemetry
        registry.
        """
        if mode not in (MODE_DISK, MODE_MEM):
            raise InvalidArgument(f"bad checkpoint mode {mode}")
        if group.flush_in_progress:
            if not sync:
                raise SLSError("previous checkpoint still flushing")
            self._await_flush(group)
        if mode == MODE_DISK and group.force_full_next:
            # A rolled-back checkpoint collapsed its dirty pages back
            # into the in-memory chain; only a full capture sees them.
            full = True
        ctx = CheckpointContext(self, group, name=name, full=full,
                                sync=sync, mode=mode)
        clock = self.kernel.clock
        with tracing.trace(clock, tracing.CHECKPOINT,
                           group=group.group_id, mode=mode,
                           tenant=group.name) as trace_obj:
            events.emit(clock.now(), events.CKPT_START,
                        group=group.group_id, mode=mode,
                        tenant=group.name)
            try:
                result = self.pipeline.run(ctx)
            except Exception as exc:
                events.emit(clock.now(), events.CKPT_FAIL,
                            group=group.group_id,
                            error=f"{type(exc).__name__}: {exc}")
                if not isinstance(exc, (InjectedCrash, MachineCrashed)):
                    # A storage failure, not a power failure: roll the
                    # group back to a clean pre-checkpoint state.
                    self.rollback_failed_checkpoint(
                        group, getattr(ctx, "txn", None))
                raise
            if mode == MODE_MEM and trace_obj is not None:
                # Nothing flushes: the pipeline's end is the mem-mode
                # checkpoint's terminal point.
                trace_obj.complete = True
        if mode == MODE_DISK:
            group.force_full_next = False
        self.slo.on_stop_time(group.group_id, result.stop_ns)

        group.stats["checkpoints"] += 1
        group.stats["stop_ns_total"] += result.stop_ns
        group.stats["stop_ns_max"] = max(group.stats["stop_ns_max"],
                                         result.stop_ns)
        if mode == MODE_DISK:
            group.stats["pages_flushed"] += result.pages_flushed
            group.stats["bytes_flushed"] += ctx.info.data_bytes
            group.stats["records_written"] += result.records_written
            if getattr(ctx.info, "complete", False):
                for hook in self.commit_hooks:
                    hook(group, ctx.info)
        return result

    #: Sentinel: "leave the group's epoch floor untouched".
    _KEEP_EPOCH = object()

    def rollback_failed_checkpoint(self, group: ConsistencyGroup, txn,
                                   prev_epoch=_KEEP_EPOCH,
                                   error: Optional[Exception] = None) -> None:
        """Unwind group state after a checkpoint failed without a
        crash.

        The store-level abort (freeing the transaction's blocks) has
        either already run or runs here; this method restores the
        *group* invariants so the next checkpoint can proceed: the
        flush gate reopens, sealed external output returns to the open
        buffer, the frozen shadows become collapsible (their content
        is still in memory — durability stays at the previous
        checkpoint), and the next disk checkpoint is forced full so
        the rolled-back dirty pages are not lost to incremental
        capture.  ``error`` is set on the async-flush path, where this
        method is also the failure notification that feeds the
        degraded-mode counters.
        """
        info = getattr(txn, "info", None)
        if info is not None:
            # MemTxn lacks commit/abort state: only real store
            # transactions have blocks to release.
            if (getattr(txn, "committed", False)
                    and not getattr(txn, "aborted", True)
                    and not getattr(info, "complete", False)):
                self.store.abort_checkpoint(txn)
            self.extsync.unseal(group, info.ckpt_id)
        group.flush_in_progress = False
        self.shadow.mark_flushed(group)
        group.force_full_next = True
        # The pipeline advanced last_ckpt_id at submit time; the
        # checkpoint never became durable, so the next one must parent
        # onto the last *complete* checkpoint, not the aborted id.
        group.last_ckpt_id = group.last_complete_id
        if prev_epoch is not self._KEEP_EPOCH:
            # The async path had already advanced the incremental
            # floor on submission; the data never became durable, so
            # the floor must come back down.
            group.ckpt_epoch = prev_epoch
        if error is None:
            return
        clock = self.kernel.clock
        events.emit(clock.now(), events.CKPT_FAIL, group=group.group_id,
                    error=f"{type(error).__name__}: {error}",
                    async_flush=True, detached=not group.attached)
        if not group.attached:
            # The flush outlived a detach: the store-level abort above
            # is all that may happen.  A detached group has no timer,
            # no fleet slot and no live SLO series — entering degraded
            # mode or running emergency GC for it would corrupt the
            # state of a tenant that no longer exists.
            return
        health = group.health
        if isinstance(error, (StoreFull, NoSpace)):
            self._enter_degraded(group, resilience.REASON_ENOSPC, error)
            self._emergency_gc(group)
        elif isinstance(error, RetriesExhausted):
            health.consecutive_failures += 1
            if (health.consecutive_failures
                    >= resilience.DEVICE_FAILURE_THRESHOLD):
                self._enter_degraded(group, resilience.REASON_DEVICE,
                                     error)

    def _await_flush(self, group: ConsistencyGroup) -> None:
        """Run the event loop just far enough for *this group's*
        in-flight flush to finalize.

        Unlike a full ``loop.drain()`` this neither waits on other
        groups' flushes nor trips over periodic checkpoint timers
        (which reschedule forever and would overflow the drain
        limit).  The wait is keyed on the store's pending commit for
        this group.
        """
        while group.flush_in_progress:
            deadline = self.store.pending_commit_deadline(group.group_id)
            if deadline is None:
                raise SLSError(
                    f"group {group.group_id} flush in flight but the "
                    f"store has no pending commit for it")
            self.machine.loop.run_until(deadline)

    def barrier(self, group: ConsistencyGroup) -> int:
        """Wait until the group's newest checkpoint is durable
        (sls_barrier); returns the checkpoint id."""
        if group.flush_in_progress:
            self._await_flush(group)
        if group.last_complete_id is None:
            raise SLSError("no checkpoint has completed yet")
        return group.last_complete_id

    # -- restore ---------------------------------------------------------------------------------

    def restorable_groups(self) -> List[int]:
        """Group ids with at least one complete checkpoint on disk."""
        found = set()
        for info in self.store.checkpoints.values():
            if info.complete and not info.partial \
                    and info.group_id != SLSFS.GROUP_ID:
                found.add(info.group_id)
        return sorted(found)

    def restore(self, group_id: int, ckpt_id: Optional[int] = None,
                lazy: bool = False, periodic: bool = True) -> RestoreResult:
        """``sls restore``: recreate an application from the store."""
        if ckpt_id is None:
            # Partial (sls_memckpt) checkpoints count: the merged view
            # composes them on top of the preceding full checkpoint.
            chain = self.store.checkpoints_for(group_id,
                                               include_partial=True)
            if not chain:
                raise NoSuchCheckpoint(f"group {group_id} has no complete "
                                       f"checkpoint")
            ckpt_id = chain[-1].ckpt_id
        restorer = GroupRestorer(self.kernel, self.store, self.slsfs)
        result = restorer.restore(ckpt_id, lazy=lazy)
        self.groups[result.group.group_id] = result.group
        if periodic:
            self.fleet.admit(result.group)
        return result

    # -- suspend / resume ----------------------------------------------------------------------------

    def suspend(self, group: ConsistencyGroup) -> int:
        """``sls suspend``: final checkpoint, then tear down the
        processes; the application lives on only in the store."""
        # Stop the periodic timer first so no tick fires while we wait
        # out an in-flight flush, then let that flush land before the
        # final full checkpoint opens its transaction.
        group.cancel_timer()
        if group.flush_in_progress:
            self._await_flush(group)
        result = self.checkpoint(group, name="suspend", full=True,
                                 sync=True)
        for proc in list(group.processes):
            proc.exit(0)
        group.suspended = True
        self.groups.pop(group.group_id, None)
        return result.info.ckpt_id

    def resume(self, group_id: int) -> RestoreResult:
        """``sls resume``: bring a suspended application back."""
        return self.restore(group_id)

    # -- listing --------------------------------------------------------------------------------------

    def history(self, group_id: int) -> List[dict]:
        """``sls history``: every retained checkpoint of one group."""
        return [{
            "ckpt_id": info.ckpt_id,
            "name": info.name,
            "time_ns": info.time_ns,
            "partial": info.partial,
            "data_bytes": info.data_bytes,
        } for info in self.store.checkpoints_for(group_id,
                                                 include_partial=True)]

    def ps(self) -> List[dict]:
        """``sls ps``: applications and checkpoints known to Aurora."""
        rows = []
        for group_id in self.restorable_groups():
            chain = self.store.checkpoints_for(group_id)
            live = self.groups.get(group_id)
            rows.append({
                "group_id": group_id,
                "name": live.name if live is not None
                else (chain[-1].name or f"group{group_id}"),
                "attached": live is not None and live.attached,
                "processes": len(live.processes) if live is not None else 0,
                "checkpoints": len(chain),
                "latest_ckpt": chain[-1].ckpt_id if chain else None,
            })
        return rows


def load_aurora(machine) -> Orchestrator:
    """Format-or-recover the store, mount the Aurora FS, build the SLS."""
    kernel = machine.kernel
    store = ObjectStore(machine)
    recovered = store.mount()
    if not recovered:
        store.format()
    slsfs = SLSFS(kernel, store)
    if recovered:
        slsfs.recover()
    kernel.vfs = VFS(kernel, slsfs)
    return Orchestrator(machine, store, slsfs)
