"""The staged checkpoint pipeline (§4.1).

The paper's checkpoint sequence —

    quiesce → collapse flushed shadows → system shadowing →
    serialize POSIX objects → seal → resume → asynchronous flush →
    commit

— is one table, :data:`STAGES`, of ``(name, step, overlap)`` rows
whose steps are this module's functions of one shared
:class:`CheckpointContext`.  Stages up to and including *resume* are
**stop-time** stages (the application is parked at the user/kernel
boundary); *flush* and *commit* are **overlap** stages that run
concurrently with execution.  Stop time versus overlap time is derived
from the stage trace instead of hand-threaded ``t_*`` variables, and
:class:`CheckpointResult` is a view over that trace.

Every mode stages into one transaction type,
:class:`~repro.objstore.store.CheckpointTxn`, whose ``put_pages`` lays
each flush item's runs over what is staged with the one
splice of :mod:`repro.core.runs`.  A mem-mode (stop-time measurement)
checkpoint's transaction is built on an id-less ``CheckpointInfo(-1,
group)`` — it takes no checkpoint id — and is never committed, so it
stages records and pages at the disk path's cost and nothing reaches
the device.  An atomic checkpoint (``sls_memckpt``, §7) targets one
map entry: it parks nothing, shadows and stages only that entry's
object, and commits a *partial* checkpoint that restore composes over
its parent chain — through the same flush, and the same rollback, as
a disk checkpoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Set, Tuple

from ..errors import SLSError
from ..kernel.vm.vmmap import VMMapEntry
from ..objstore.checkpoint import CheckpointInfo
from ..objstore.store import CheckpointTxn
from . import costs, events, faults, telemetry
from .group import ConsistencyGroup
from .quiesce import QuiesceReport, quiesce_group, resume_group
from .serialize import CheckpointSerializer
from .shadowing import FlushItem

if TYPE_CHECKING:
    from .orchestrator import Orchestrator

#: Checkpoint target modes.
MODE_DISK = "disk"   # full pipeline, flushed to the object store
MODE_MEM = "mem"     # stop-time measurement only, nothing flushed
MODE_ATOMIC = "atomic"  # one region, a partial checkpoint (sls_memckpt)


class StageTrace:
    """One stage's slot in a checkpoint's trace."""

    __slots__ = ("name", "start_ns", "end_ns", "overlap")

    def __init__(self, name: str, start_ns: int, end_ns: int,
                 overlap: bool) -> None:
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.overlap = overlap

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:
        kind = "overlap" if self.overlap else "stop"
        return (f"StageTrace({self.name}[{kind}] "
                f"{self.duration_ns} ns)")


class CheckpointContext:
    """Everything the stages share while one checkpoint runs."""

    def __init__(self, sls: "Orchestrator", group: ConsistencyGroup,
                 name: str, full: bool, sync: bool, mode: str,
                 region: Optional[VMMapEntry]) -> None:
        self.sls = sls
        self.machine: Any = sls.machine
        self.kernel: Any = sls.kernel
        self.clock: Any = sls.kernel.clock
        self.store = sls.store
        self.shadow = sls.shadow
        self.extsync = sls.extsync
        self.slsfs = sls.slsfs
        self.group = group
        self.name = name
        self.full = full
        self.sync = sync
        self.mode = mode
        #: The atomic checkpoint's map entry (None in the other modes).
        self.region = region
        #: Filled in by the stages.
        self.quiesce_report: Optional[QuiesceReport] = None
        self.collapse_moved = 0
        self.txn: Optional[CheckpointTxn] = None
        self.flush_items: List[FlushItem] = []
        #: The committed checkpoint (disk and atomic mode, once
        #: :func:`flush` ran).
        self.info: Optional[CheckpointInfo] = None
        self.trace: List[StageTrace] = []
        #: Incremental-serialization accounting (filled by :func:`serialize`).
        self.records_written = 0
        self.records_skipped = 0
        #: Epoch floor to install once :func:`flush` submits the commit;
        #: None until :func:`serialize` snapshots it.
        self.new_epoch_floor: Optional[int] = None


def quiesce(ctx: CheckpointContext) -> None:
    """Park every group thread at the user/kernel boundary (§5.1); an
    atomic checkpoint parks none."""
    if ctx.mode != MODE_ATOMIC:
        ctx.quiesce_report = quiesce_group(ctx.kernel, ctx.group)


def collapse(ctx: CheckpointContext) -> None:
    """Collapse frozen shadows whose flush completed (§6)."""
    ctx.collapse_moved = ctx.shadow.collapse_completed(ctx.group)


def shadow(ctx: CheckpointContext) -> None:
    """Open the transaction and take the system shadows (§6) — of the
    region's object alone for an atomic checkpoint."""
    group = ctx.group
    if ctx.mode == MODE_MEM:
        ctx.txn = CheckpointTxn(ctx.store, CheckpointInfo(-1, group.group_id))
    else:
        ctx.txn = ctx.store.begin_checkpoint(
            group.group_id, name=ctx.name, parent=group.last_ckpt_id,
            partial=ctx.mode == MODE_ATOMIC)
    if ctx.mode == MODE_ATOMIC:
        assert ctx.region is not None, "an atomic checkpoint has a region"
        ctx.flush_items = [ctx.shadow.shadow_region(
            group, ctx.region.vmobject, full=ctx.full)]
    else:
        ctx.flush_items = ctx.shadow.shadow_group(
            group, full=ctx.full, mem=ctx.mode == MODE_MEM)


def serialize(ctx: CheckpointContext) -> None:
    """Serialize the POSIX object graph into the transaction (§5)."""
    txn = ctx.txn
    assert txn is not None, "the shadow stage opens the transaction"
    if ctx.mode == MODE_ATOMIC:
        # The region's record and runs are the whole partial
        # checkpoint: no POSIX walk and no live set (restore composes
        # it over the parent chain).
        for item in ctx.flush_items:
            txn.put_object(item.oid, "vmobject", item.record)
            item.stage(txn)
        ctx.records_written = len(ctx.flush_items)
        ctx.clock.advance(costs.CKPT_ATOMIC_BASE)
        return
    # Incremental serialization: skip records unchanged since the
    # group's epoch floor.  ``full=True`` (and the first checkpoint
    # of a chain, floor None) serializes everything.
    floor = None if ctx.full else ctx.group.ckpt_epoch
    # A clean object may only be skipped when the parent chain can
    # still resolve its record; without that set (legacy chains,
    # a GC'd parent) incremental skipping is disabled for safety.
    prior_live: Optional[Set[int]] = None
    if floor is not None and ctx.group.last_ckpt_id is not None:
        try:
            prior_live = ctx.store.effective_live_oids(
                ctx.group.last_ckpt_id)
        except SLSError:
            prior_live = None
    serializer = CheckpointSerializer(ctx.kernel, ctx.group,
                                      ctx.store, txn,
                                      epoch_floor=floor,
                                      prior_live=prior_live)
    serializer.serialize_all()
    live = serializer.live_oids
    for item in ctx.flush_items:
        txn.put_object(item.oid, "vmobject", item.record)
        item.stage(txn)
        live.add(item.oid)
    # Every tracked memory object stays live while its track
    # exists, whether or not it was dirtied this period.
    live.update(ctx.group.tracks.keys())
    ctx.records_written = (serializer.records_written +
                           len(ctx.flush_items))
    ctx.records_skipped = serializer.records_skipped
    last = ctx.group.last_ckpt_id
    parent = (ctx.store.checkpoints.get(last)
              if ctx.mode == MODE_DISK and last is not None else None)
    if parent is not None and parent.live_oids == live:
        # Nothing entered or left the group: share the parent's
        # set, so its OID runs are not sorted out again.
        txn.info.share_live_oids(parent)
    else:
        txn.info.live_oids = live
    txn.info.records_skipped = ctx.records_skipped
    if ctx.mode == MODE_DISK:
        # Snapshot the epoch under quiescence; flush installs it as
        # the group's floor only once the commit is submitted, so a
        # failed flush never loses dirty state.
        ctx.new_epoch_floor = ctx.kernel.close_epoch()
    ctx.clock.advance(costs.CKPT_ORCH_BASE if ctx.mode == MODE_DISK
                      else costs.CKPT_ATOMIC_BASE)


def seal(ctx: CheckpointContext) -> None:
    """Tie buffered external output to this checkpoint (§3)."""
    if ctx.mode == MODE_DISK:
        assert ctx.txn is not None
        ctx.extsync.seal(ctx.group, ctx.txn.info.ckpt_id)


def resume(ctx: CheckpointContext) -> None:
    """Release the parked threads; stop time ends here."""
    if ctx.mode != MODE_ATOMIC:
        resume_group(ctx.kernel, ctx.group)


def flush(ctx: CheckpointContext) -> None:
    """Kick off the asynchronous flush (overlaps execution, §4.1).

    Mem mode has nothing to flush: the shadows are immediately
    collapsible.  Disk and atomic mode hand the transaction to the
    store, which submits the data writes now and finalizes the commit
    (metadata, for disk mode the history trim past ``history_limit``,
    one flip) when they land.  A partial checkpoint never trims: the
    full checkpoint it composes over must stay.
    """
    group = ctx.group
    if ctx.mode == MODE_MEM:
        ctx.shadow.mark_flushed(group)
        return
    group.flush_in_progress = True
    kernel, store, engine = ctx.kernel, ctx.store, ctx.shadow
    extsync = ctx.extsync
    # Quiesce start: the instant whose application state this
    # checkpoint captures (the SLO tracker's recovery-point
    # reference).
    capture_ns = ctx.trace[0].start_ns if ctx.trace else kernel.clock.now()
    slo_tracker = ctx.sls.slo

    def on_complete(info: CheckpointInfo) -> None:
        # The flip landed and marked what this checkpoint flushed
        # clean.
        group.flush_in_progress = False
        group.last_complete_id = info.ckpt_id
        # A flush may outlive a detach; the commit still lands in
        # the store (history is kept), but a detached group's SLO
        # series must not absorb the orphan's samples.
        if group.attached:
            slo_tracker.on_commit(group.group_id, info.ckpt_id,
                                  capture_ns, kernel.clock.now())
        engine.mark_flushed(group)
        extsync.release(info.ckpt_id)
        if kernel.pageout.memory_pressure():
            # Freshly flushed pages are clean: reclaim them
            # without IO (§6 Memory Overcommitment).
            objects: List[Any] = []
            for track in group.tracks.values():
                objects.extend(track.active.chain())
            kernel.pageout.run_pageout(objects, store=store)

    prev_epoch = group.ckpt_epoch
    txn = ctx.txn
    assert txn is not None

    def on_failure(exc: Exception) -> None:
        # An async flush died after submission (retries exhausted
        # during finalize): the store already aborted the txn; the
        # orchestrator unwinds the group-level state.
        ctx.sls.rollback_failed_checkpoint(group, txn,
                                           prev_epoch=prev_epoch,
                                           error=exc)

    info = ctx.info = store.commit(txn, sync=ctx.sync,
                                   on_complete=on_complete,
                                   on_failure=on_failure,
                                   keep=(group.history_limit
                                         if ctx.mode == MODE_DISK else None))
    group.last_ckpt_id = info.ckpt_id
    if ctx.new_epoch_floor is not None:
        # The commit was accepted (no ENOSPC / injected fault on
        # submission): subsequent checkpoints may skip objects
        # unchanged since this epoch.
        group.ckpt_epoch = ctx.new_epoch_floor
        # The dirty log keeps only what a memo's replay may read.
        kernel.prune_dirty_log(min(
            (other.ckpt_epoch for other in ctx.sls.groups.values()
             if other.walk_memos and other.ckpt_epoch is not None),
            default=ctx.new_epoch_floor))
        events.emit(ctx.clock.now(), events.EPOCH_ADVANCE,
                    group=group.group_id, epoch=ctx.new_epoch_floor,
                    ckpt=info.ckpt_id)


def commit(ctx: CheckpointContext) -> None:
    """Co-commit dependent state on the checkpoint cadence (§5.2).

    The store's own metadata commit rides the event loop (it fires
    when the flush's data writes land); this stage commits file-system
    state alongside so file data stays checkpoint-consistent.
    """
    if ctx.mode == MODE_DISK and ctx.slsfs is not None \
            and ctx.slsfs.has_dirty():
        ctx.slsfs.checkpoint(sync=ctx.sync)


#: The paper's §4.1 pipeline, in order: ``(name, step, overlap)``.
#: A stage with ``overlap`` False is stop time (the application is
#: parked); one with True runs concurrently with execution.
STAGES: Tuple[Tuple[str, Callable[[CheckpointContext], None], bool],
              ...] = (
    ("quiesce", quiesce, False),
    ("collapse", collapse, False),
    ("shadow", shadow, False),
    ("serialize", serialize, False),
    ("seal", seal, False),
    ("resume", resume, False),
    ("flush", flush, True),
    ("commit", commit, True),
)

#: Canonical stage-name order (used by ``sls stat`` and benchmarks).
STAGE_ORDER = tuple(name for name, _step, _overlap in STAGES)

#: Names of the stages that contribute to application stop time.
STOP_STAGES = tuple(name for name, _step, overlap in STAGES if not overlap)


class CheckpointResult:
    """Timing view over one checkpoint's stage trace.

    Benchmarks read the derived ``stop_ns`` / ``quiesce_ns`` /
    ``shadow_ns`` / ``serialize_ns`` fields; :meth:`stage_ns` exposes
    any stage's duration directly.  ``info`` is the checkpoint a disk
    or atomic (partial) checkpoint committed; a mem-mode one has none.
    """

    def __init__(self, ctx: CheckpointContext) -> None:
        txn = ctx.txn
        assert txn is not None
        self.info = txn.info if ctx.mode != MODE_MEM else None
        self.mode = ctx.mode
        self.stages: List[StageTrace] = list(ctx.trace)
        self.quiesce_ns = self.stage_ns("quiesce")
        # The shadow phase of the old monolith spanned collapse +
        # shadow creation; keep the field's meaning stable.
        self.shadow_ns = self.stage_ns("collapse") + self.stage_ns("shadow")
        self.serialize_ns = self.stage_ns("serialize")
        stop = [t for t in ctx.trace if not t.overlap]
        self.stop_ns = stop[-1].end_ns - stop[0].start_ns
        self.pages_flushed = sum(item.page_count()
                                 for item in ctx.flush_items)
        self.bytes_staged = txn.staged_bytes()
        #: Object records staged vs. skipped as unchanged (incremental
        #: kernel-state checkpoints).
        self.records_written = ctx.records_written
        self.records_skipped = ctx.records_skipped

    def stage_ns(self, name: str) -> int:
        """Total duration of the named stage (0 when absent)."""
        return sum(t.duration_ns for t in self.stages if t.name == name)

    def overlap_ns(self) -> int:
        """Time spent in the overlap (flush/commit) stages.  For an
        asynchronous checkpoint this is only the submission cost; a
        ``sync=True`` checkpoint shows the full flush-to-durable
        time."""
        return sum(t.duration_ns for t in self.stages if t.overlap)

    def __repr__(self) -> str:
        from ..units import fmt_time
        ckpt = self.info.ckpt_id if self.info is not None else "-"
        return (f"CheckpointResult(id={ckpt}, mode={self.mode}, "
                f"stop={fmt_time(self.stop_ns)}, "
                f"{self.pages_flushed} pages)")


class CheckpointPipeline:
    """Runs :data:`STAGES` in order and records per-stage spans."""

    def __init__(self) -> None:
        self.telemetry = telemetry.registry()

    def run(self, ctx: CheckpointContext) -> CheckpointResult:
        clock = ctx.clock
        # The fault plan sees every stage boundary: "before" each
        # stage plus "after" the last one — N+1 crash points per
        # checkpoint, enumerable by the crash-schedule explorer.
        plan = ctx.machine.fault_plan
        for name, step, overlap in STAGES:
            if plan is not None:
                plan.on_boundary(faults.STAGE, name, faults.BEFORE)
            # Open the stage span as a context so serializer / store /
            # device spans recorded inside nest under it in the
            # checkpoint's trace tree (span close records into the same
            # ``ckpt.<stage>`` histogram as before).
            span = self.telemetry.span(clock, f"ckpt.{name}",
                                       group=ctx.group.group_id)
            with span:
                step(ctx)
            ctx.trace.append(StageTrace(name, span.start_ns, clock.now(),
                                        overlap))
        if plan is not None:
            plan.on_boundary(faults.STAGE, STAGE_ORDER[-1], faults.AFTER)
        return CheckpointResult(ctx)
