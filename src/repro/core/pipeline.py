"""The staged checkpoint pipeline (§4.1).

The paper's checkpoint sequence —

    quiesce → collapse flushed shadows → system shadowing →
    serialize POSIX objects → seal → resume → asynchronous flush →
    commit

— is expressed as an ordered list of :class:`Stage` objects sharing a
:class:`CheckpointContext`.  Stages up to and including *resume* are
**stop-time** stages (the application is parked at the user/kernel
boundary); *flush* and *commit* are **overlap** stages that run
concurrently with execution.  Stop time versus overlap time is derived
from the stage trace instead of hand-threaded ``t_*`` variables, and
:class:`CheckpointResult` is a view over that trace.

The :class:`Txn` protocol is the formal transaction interface both
:class:`~repro.objstore.store.CheckpointTxn` and the in-memory
:class:`MemTxn` implement, so the mem-mode (stop-time measurement)
path is no longer a duck-type.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from ..errors import SLSError
from ..hw.memory import Page
from ..objstore import records
from ..units import PAGE_SIZE
from . import costs, events, telemetry
from .quiesce import quiesce_group, resume_group
from .serialize import CheckpointSerializer

#: Checkpoint target modes.
MODE_DISK = "disk"   # full pipeline, flushed to the object store
MODE_MEM = "mem"     # stop-time measurement only, nothing flushed


@runtime_checkable
class Txn(Protocol):
    """What the pipeline requires of a checkpoint transaction."""

    info: Any

    def put_object(self, oid: int, otype: str, state: Any) -> None:
        """Stage one serialized object record."""

    def put_pages(self, oid: int, pages: Dict[int, Page]) -> None:
        """Stage dirty pages for a memory/file object."""

    def staged_bytes(self) -> int:
        """Bytes this transaction would write (records + pages)."""


class MemTxn:
    """In-memory transaction for non-flushed (mem-mode) checkpoints.

    Implements :class:`Txn` with the same record-staging cost model as
    the store transaction, but nothing ever reaches the device.
    """

    class _Info:
        ckpt_id = -1
        data_bytes = 0
        live_oids = None
        records_skipped = 0

    def __init__(self, store):
        self.store = store
        self.info = self._Info()
        self.records: Dict[int, bytes] = {}
        self.pages: Dict[int, Dict[int, Page]] = {}

    def put_object(self, oid: int, otype: str, state: Any) -> None:
        self.store.clock.advance(costs.STORE_RECORD_STAGE)
        self.records[oid] = records.encode_object(oid, otype, state)

    def put_pages(self, oid: int, pages: Dict[int, Page]) -> None:
        if not pages:
            return
        self.pages.setdefault(oid, {}).update(pages)

    def staged_bytes(self) -> int:
        total = sum(len(data) for data in self.records.values())
        total += sum(len(pages) * PAGE_SIZE
                     for pages in self.pages.values())
        return total


class StageTrace:
    """One stage's slot in a checkpoint's trace."""

    __slots__ = ("name", "start_ns", "end_ns", "overlap")

    def __init__(self, name: str, start_ns: int, end_ns: int,
                 overlap: bool):
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

    def __init__(self, sls, group, name: str = "", full: bool = False,
                 sync: bool = False, mode: str = MODE_DISK):
        self.sls = sls
        self.machine = sls.machine
        self.kernel = sls.kernel
        self.clock = sls.kernel.clock
        self.store = sls.store
        self.shadow = sls.shadow
        self.extsync = sls.extsync
        self.slsfs = sls.slsfs
        self.group = group
        self.name = name
        self.full = full
        self.sync = sync
        self.mode = mode
        #: Filled in by the stages.
        self.quiesce_report = None
        self.collapse_moved = 0
        self.txn: Optional[Txn] = None
        self.flush_items: List = []
        self.info = None
        self.trace: List[StageTrace] = []
        #: Incremental-serialization accounting (filled by Serialize).
        self.records_written = 0
        self.records_skipped = 0
        #: Epoch floor to install once this checkpoint's commit is
        #: submitted (Flush); None until Serialize snapshots it.
        self.new_epoch_floor: Optional[int] = None

    def stop_time_ns(self) -> int:
        """Elapsed time across the stop-time stages recorded so far."""
        stop = [t for t in self.trace if not t.overlap]
        if not stop:
            return 0
        return stop[-1].end_ns - stop[0].start_ns


class Stage:
    """One step of the checkpoint pipeline."""

    name = "stage"
    #: False: contributes to application stop time.  True: runs
    #: concurrently with execution (after resume).
    overlap = False

    def run(self, ctx: CheckpointContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Stage {self.name}>"


class Quiesce(Stage):
    """Park every group thread at the user/kernel boundary (§5.1)."""

    name = "quiesce"

    def run(self, ctx: CheckpointContext) -> None:
        ctx.quiesce_report = quiesce_group(ctx.kernel, ctx.group)


class CollapseFlushed(Stage):
    """Collapse frozen shadows whose flush completed (§6)."""

    name = "collapse"

    def run(self, ctx: CheckpointContext) -> None:
        ctx.collapse_moved = ctx.shadow.collapse_completed(ctx.group)


class Shadow(Stage):
    """Open the transaction and take the system shadows (§6)."""

    name = "shadow"

    def run(self, ctx: CheckpointContext) -> None:
        if ctx.mode == MODE_MEM:
            ctx.txn = MemTxn(ctx.store)
        else:
            ctx.txn = ctx.store.begin_checkpoint(
                ctx.group.group_id, name=ctx.name,
                parent=ctx.group.last_ckpt_id)
        ctx.flush_items = ctx.shadow.shadow_group(ctx.group,
                                                  full=ctx.full)


class Serialize(Stage):
    """Serialize the POSIX object graph into the transaction (§5)."""

    name = "serialize"

    def run(self, ctx: CheckpointContext) -> None:
        # Incremental serialization: skip records unchanged since the
        # group's epoch floor.  ``full=True`` (and the first checkpoint
        # of a chain, floor None) serializes everything.
        floor = None if ctx.full else ctx.group.ckpt_epoch
        # A clean object may only be skipped when the parent chain can
        # still resolve its record; without that set (legacy chains,
        # a GC'd parent) incremental skipping is disabled for safety.
        prior_live = None
        if floor is not None and ctx.group.last_ckpt_id is not None:
            try:
                prior_live = ctx.store.effective_live_oids(
                    ctx.group.last_ckpt_id)
            except SLSError:
                prior_live = None
        serializer = CheckpointSerializer(ctx.kernel, ctx.group,
                                          ctx.store, ctx.txn,
                                          epoch_floor=floor,
                                          prior_live=prior_live)
        serializer.serialize_all()
        live = serializer.live_oids
        for item in ctx.flush_items:
            ctx.txn.put_object(item.oid, "vmobject", item.record)
            ctx.txn.put_pages(item.oid, item.pages)
            live.add(item.oid)
        # Every tracked memory object stays live while its track
        # exists, whether or not it was dirtied this period.
        live.update(ctx.group.tracks.keys())
        ctx.records_written = (serializer.records_written +
                               len(ctx.flush_items))
        ctx.records_skipped = serializer.records_skipped
        parent = (ctx.store.checkpoints.get(ctx.group.last_ckpt_id)
                  if ctx.mode == MODE_DISK else None)
        if parent is not None and parent.live_oids == live:
            # Nothing entered or left the group: share the parent's
            # set, so its OID runs are not sorted out again.
            ctx.txn.info.share_live_oids(parent)
        else:
            ctx.txn.info.live_oids = live
        ctx.txn.info.records_skipped = ctx.records_skipped
        if ctx.mode == MODE_DISK:
            # Snapshot the epoch under quiescence; Flush installs it as
            # the group's floor only once the commit is submitted, so a
            # failed flush never loses dirty state.
            ctx.new_epoch_floor = ctx.kernel.dirty_epoch
            ctx.kernel.dirty_epoch += 1
        ctx.clock.advance(costs.CKPT_ORCH_BASE if ctx.mode == MODE_DISK
                          else costs.CKPT_ATOMIC_BASE)


class Seal(Stage):
    """Tie buffered external output to this checkpoint (§3)."""

    name = "seal"

    def run(self, ctx: CheckpointContext) -> None:
        if ctx.mode == MODE_DISK:
            ctx.extsync.seal(ctx.group, ctx.txn.info.ckpt_id)


class Resume(Stage):
    """Release the parked threads; stop time ends here."""

    name = "resume"

    def run(self, ctx: CheckpointContext) -> None:
        resume_group(ctx.kernel, ctx.group)


class Flush(Stage):
    """Kick off the asynchronous flush (overlaps execution, §4.1).

    Mem mode has nothing to flush: the shadows are immediately
    collapsible.  Disk mode hands the transaction to the store, which
    submits the data writes now and finalizes the commit (metadata +
    superblock flip) when they land.
    """

    name = "flush"
    overlap = True

    def run(self, ctx: CheckpointContext) -> None:
        group = ctx.group
        if ctx.mode == MODE_MEM:
            ctx.shadow.mark_flushed(group)
            return
        group.flush_in_progress = True
        kernel, store, shadow = ctx.kernel, ctx.store, ctx.shadow
        extsync = ctx.extsync
        # Quiesce start: the instant whose application state this
        # checkpoint captures (the SLO tracker's recovery-point
        # reference).
        capture_ns = ctx.trace[0].start_ns if ctx.trace else kernel.clock.now()
        slo_tracker = getattr(ctx.sls, "slo", None)

        def on_complete(info):
            group.flush_in_progress = False
            group.last_complete_id = info.ckpt_id
            # A flush may outlive a detach; the commit still lands in
            # the store (history is kept), but a detached group's SLO
            # series must not absorb the orphan's samples.
            if slo_tracker is not None and group.attached:
                slo_tracker.on_commit(group.group_id, info.ckpt_id,
                                      capture_ns, kernel.clock.now())
            shadow.mark_flushed(group)
            extsync.release(info.ckpt_id)
            if group.history_limit is not None:
                store.retain_last(group.group_id, group.history_limit)
            if kernel.pageout.memory_pressure():
                # Freshly flushed pages are clean: reclaim them
                # without IO (§6 Memory Overcommitment).
                objects = []
                for track in group.tracks.values():
                    objects.extend(track.active.chain())
                kernel.pageout.run_pageout(objects, store=store)

        prev_epoch = group.ckpt_epoch
        txn = ctx.txn

        def on_failure(exc):
            # An async flush died after submission (retries exhausted
            # during finalize): the store already aborted the txn; the
            # orchestrator unwinds the group-level state.
            ctx.sls.rollback_failed_checkpoint(group, txn,
                                               prev_epoch=prev_epoch,
                                               error=exc)

        ctx.info = store.commit(ctx.txn, sync=ctx.sync,
                                on_complete=on_complete,
                                on_failure=on_failure)
        group.last_ckpt_id = ctx.info.ckpt_id
        if ctx.new_epoch_floor is not None:
            # The commit was accepted (no ENOSPC / injected fault on
            # submission): subsequent checkpoints may skip objects
            # unchanged since this epoch.
            group.ckpt_epoch = ctx.new_epoch_floor
            events.emit(ctx.clock.now(), events.EPOCH_ADVANCE,
                        group=group.group_id, epoch=ctx.new_epoch_floor,
                        ckpt=ctx.info.ckpt_id)


class Commit(Stage):
    """Co-commit dependent state on the checkpoint cadence (§5.2).

    The store's own metadata commit rides the event loop (it fires
    when the flush's data writes land); this stage commits file-system
    state alongside so file data stays checkpoint-consistent.
    """

    name = "commit"
    overlap = True

    def run(self, ctx: CheckpointContext) -> None:
        if ctx.mode == MODE_DISK and ctx.slsfs is not None \
                and ctx.slsfs.has_dirty():
            ctx.slsfs.checkpoint(sync=ctx.sync)


#: The paper's §4.1 pipeline, in order.
DEFAULT_STAGES = (Quiesce(), CollapseFlushed(), Shadow(), Serialize(),
                  Seal(), Resume(), Flush(), Commit())

#: Canonical stage-name order (used by ``sls stat`` and benchmarks).
STAGE_ORDER = tuple(stage.name for stage in DEFAULT_STAGES)

#: Names of the stages that contribute to application stop time.
STOP_STAGES = tuple(s.name for s in DEFAULT_STAGES if not s.overlap)


class CheckpointResult:
    """Timing view over one checkpoint's stage trace.

    Benchmarks read the derived ``stop_ns`` / ``quiesce_ns`` /
    ``shadow_ns`` / ``serialize_ns`` fields; :meth:`stage_ns` exposes
    any stage's duration directly.  Results built outside the pipeline
    (``sls_memckpt``) carry no trace and fill the fields by hand.
    """

    def __init__(self, info, mode: str,
                 stages: Optional[List[StageTrace]] = None):
        self.info = info
        self.mode = mode
        self.stages: List[StageTrace] = list(stages or [])
        self.stop_ns = 0
        self.quiesce_ns = 0
        self.shadow_ns = 0
        self.serialize_ns = 0
        self.pages_flushed = 0
        self.bytes_staged = 0
        #: Object records staged vs. skipped as unchanged (incremental
        #: kernel-state checkpoints).
        self.records_written = 0
        self.records_skipped = 0

    @classmethod
    def from_context(cls, ctx: CheckpointContext) -> "CheckpointResult":
        result = cls(ctx.txn.info if ctx.mode == MODE_DISK else None,
                     ctx.mode, ctx.trace)
        result.quiesce_ns = result.stage_ns("quiesce")
        # The shadow phase of the old monolith spanned collapse +
        # shadow creation; keep the field's meaning stable.
        result.shadow_ns = (result.stage_ns("collapse") +
                            result.stage_ns("shadow"))
        result.serialize_ns = result.stage_ns("serialize")
        result.stop_ns = ctx.stop_time_ns()
        result.pages_flushed = sum(len(item.pages)
                                   for item in ctx.flush_items)
        result.bytes_staged = ctx.txn.staged_bytes()
        result.records_written = ctx.records_written
        result.records_skipped = ctx.records_skipped
        return result

    def stage_ns(self, name: str) -> int:
        """Total duration of the named stage (0 when absent)."""
        return sum(t.duration_ns for t in self.stages if t.name == name)

    def stop_time_ns(self) -> int:
        """Stop time derived from the stage trace."""
        stop = [t for t in self.stages if not t.overlap]
        if not stop:
            return self.stop_ns
        return stop[-1].end_ns - stop[0].start_ns

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
    """Runs the ordered stage list and records per-stage spans."""

    def __init__(self) -> None:
        self.stages: List[Stage] = list(DEFAULT_STAGES)
        self.telemetry = telemetry.registry()

    def run(self, ctx: CheckpointContext) -> CheckpointResult:
        clock = ctx.clock
        # The fault plan sees every stage boundary: "before" each
        # stage plus "after" the last one — N+1 crash points per
        # checkpoint, enumerable by the crash-schedule explorer.
        plan = getattr(ctx.machine, "fault_plan", None)
        last = len(self.stages) - 1
        for index, stage in enumerate(self.stages):
            if plan is not None:
                plan.on_stage(stage.name, "before")
            # Open the stage span as a context so serializer / store /
            # device spans recorded inside nest under it in the
            # checkpoint's trace tree (span close records into the same
            # ``ckpt.<stage>`` histogram as before).
            span = self.telemetry.span(clock, f"ckpt.{stage.name}",
                                       group=ctx.group.group_id)
            with span:
                stage.run(ctx)
            ctx.trace.append(StageTrace(stage.name, span.start_ns,
                                        clock.now(), stage.overlap))
            if plan is not None and index == last:
                plan.on_stage(stage.name, "after")
        return CheckpointResult.from_context(ctx)
