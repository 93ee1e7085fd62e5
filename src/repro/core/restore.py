"""Restoring applications from the store (§4, §5).

A restore reads the merged view of a checkpoint chain, recreates every
object, and *links* them back up — the inverse of the POSIX object
model's decomposition.  Because sharing was never flattened at
checkpoint time, it needs no inference here either: two fd slots that
referenced one OpenFile reference one recreated OpenFile.

Full restores insert every page eagerly (Table 6's Full rows,
~230 ns/page); lazy restores recreate only the OS state and register
page locators with the pageout daemon, so pages stream in on first
touch through the unified swap path (§6 "The swap integration enables
lazy restores").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import RestoreError
from ..hw.memory import Page
from ..kernel.aio import AIO_READ
from ..kernel.proc.process import Process
from ..kernel.proc.signals import SIGCHLD, SIGSLSRESTORE
from ..kernel.vm.vmobject import VMObject
from ..objstore.checkpoint import NO_PAGES, PageRuns, run_locators
from ..objstore.oid import CLASS_MEMORY, oid_class
from . import costs, events, telemetry, tracing
from .group import ConsistencyGroup, ObjectTrack
from .objmodel import (FILE, OBJECT_TYPES, SEGMENT, SHELL, ObjectType,
                       cost_of)

if TYPE_CHECKING:
    from ..objstore.store import ObjectStore


@dataclass
class RestoreResult:
    """What a restore produced, with its timing breakdown."""

    group: ConsistencyGroup
    processes: List[Process]
    ckpt_id: int
    lazy: bool
    elapsed_ns: int
    pages_restored: int
    pages_lazy: int
    #: Device time reading records/pages, and page-insert time —
    #: elapsed minus both is the OS-state-only cost (Table 6's "Mem"
    #: restore row).
    io_ns: int = 0
    insert_ns: int = 0

    @property
    def root(self) -> Process:
        """The restored application's root process."""
        return self.processes[0]


class GroupRestorer:
    """Recreates one consistency group from a checkpoint."""

    def __init__(self, kernel: Any, store: "ObjectStore",
                 slsfs: Optional[Any] = None) -> None:
        self.kernel = kernel
        self.store = store
        self.slsfs = slsfs
        #: What the rows' build functions read: every rebuilt object by
        #: OID, the merged view, the mode, the group and its sessions.
        self.objects: Dict[int, Any] = {}
        self.decoded: Dict[int, Tuple[str, Any]] = {}   # oid -> (type, state)
        self.page_locs: Dict[int, PageRuns] = {}
        self.lazy = False
        self.group: Any = None
        self.sessions: Dict[int, Any] = {}
        self.pgroups: Dict[int, Any] = {}
        self.by_local_pid: Dict[int, Process] = {}
        self.pages_restored = 0
        self.pages_lazy = 0
        self.io_ns = 0              # see RestoreResult
        self.insert_ns = 0

    # -- entry point ----------------------------------------------------------------

    def restore(self, ckpt_id: int, lazy: bool = False) -> RestoreResult:
        """Recreate the group from ``ckpt_id``; returns the result."""
        with tracing.trace(self.kernel.clock, tracing.RESTORE,
                           ckpt=ckpt_id) as trace_obj:
            result = self._restore_one(ckpt_id, lazy, trace_obj)
            if trace_obj is not None:
                trace_obj.complete = True
            events.emit(self.kernel.clock.now(), events.RESTORE_DONE,
                        group=result.group.group_id, ckpt=ckpt_id,
                        lazy=lazy, pages_eager=result.pages_restored,
                        pages_lazy=result.pages_lazy)
        return result

    def _restore_one(self, ckpt_id: int, lazy: bool,
                     trace_obj: Optional[tracing.Trace]) -> RestoreResult:
        registry = telemetry.registry()
        clock = self.kernel.clock
        start = clock.now()
        with registry.span(clock, "restore.read", ckpt=ckpt_id):
            record_extents, page_locs = self.store.merged_view(ckpt_id)
            io_start = clock.now()
            decoded = self.store.read_object_records(
                record_extents,
                fallbacks=self.store.record_fallbacks(ckpt_id,
                                                      record_extents))
            self.io_ns += clock.now() - io_start

        descriptors = [(oid, state) for oid, (otype, state)
                       in decoded.items() if otype == "group"]
        if not descriptors:
            raise RestoreError(f"checkpoint {ckpt_id} has no group record")
        desc_oid, desc = descriptors[-1]
        self.decoded, self.page_locs, self.lazy = decoded, page_locs, lazy
        group = self.group = self.build_object(
            desc_oid, OBJECT_TYPES["group"], desc)
        group.desc_oid = desc_oid
        group.last_ckpt_id = group.last_complete_id = ckpt_id
        if trace_obj is not None:
            trace_obj.labels["group"] = group.group_id

        with registry.span(clock, "restore.build", group=group.group_id):
            # One walk of the records per declared phase, then the links.
            for phase in (SHELL, SEGMENT, FILE):
                for oid, (otype, state) in decoded.items():
                    if OBJECT_TYPES[otype].phase == phase:
                        self.build_object(oid, OBJECT_TYPES[otype], state)
            for oid, (otype, state) in decoded.items():
                link = OBJECT_TYPES[otype].link
                if link is not None:
                    link(self, self.objects[oid], state)
            processes = self._create_processes(desc)
            self._register_tracks(group)
            # Pending reads recorded at checkpoint time are reissued so
            # the application finds them completed as expected (§5.3).
            for read in desc.get("aio", {}).get("reads", []):
                self.kernel.aio.submit(AIO_READ, None, read["offset"],
                                       read["length"])
            self._post_restore_signals(desc, processes)

        elapsed = clock.now() - start
        registry.record_span("restore.group", start, clock.now(),
                             group=group.group_id)
        registry.counter("sls.restore.pages_eager",
                         group=group.group_id).add(self.pages_restored)
        registry.counter("sls.restore.pages_lazy",
                         group=group.group_id).add(self.pages_lazy)
        return RestoreResult(group, processes, ckpt_id, lazy, elapsed,
                             self.pages_restored, self.pages_lazy,
                             io_ns=self.io_ns, insert_ns=self.insert_ns)

    # -- building -----------------------------------------------------------------------

    def build_object(self, oid: int, row: ObjectType,
                     state: Dict[str, Any]) -> Any:
        """Rebuild one record through its row, charging the row's
        restore cost (Table 4, right column)."""
        cost = cost_of(row.restore_cost, state)
        if not row.cost_after_build:
            self.kernel.clock.advance(cost)
        obj = self.objects[oid] = row.build(self, oid, state)
        if row.cost_after_build:
            self.kernel.clock.advance(cost)
        return obj

    def populate_pages(self, obj: VMObject, oid: int, lazy: bool) -> None:
        """Insert the merged view's pages of ``oid`` into ``obj`` — or,
        lazily, leave them with the pageout daemon to fault in."""
        locators = self.page_locs.get(oid, NO_PAGES)
        if lazy:
            if locators:
                self.kernel.pageout.evicted.setdefault(obj.kid, {}).update(
                    locators.items())
            self.pages_lazy += len(locators)
            return
        clock = self.kernel.clock
        start = clock.now()
        for run in locators.runs:
            first, count = run[1], run[2]
            if run[0] == "syn":
                # A synthetic run is one slab: the seeds are a
                # progression, so no locator is ever materialised.
                seed0, step = run[3], run[4]
                obj.insert_pages({first + i: Page(seed=seed0 + step * i)
                                  for i in range(count)})
            else:
                # Real pages keep the per-page read accounting: one
                # device read per page through the store's retry policy.
                for pindex, locator in run_locators(run):
                    obj.insert_page(pindex, self.store.fetch_page(locator))
            clock.advance(costs.RESTORE_PAGE_INSERT * count)
            self.pages_restored += count
        self.insert_ns += clock.now() - start

    # -- processes -------------------------------------------------------------------------

    def _create_processes(self, desc: Dict[str, Any]) -> List[Process]:
        """Build the member processes, parents before children."""
        # The descriptor written at this checkpoint is authoritative:
        # records of members that exited earlier still sit in the
        # merged view (incremental deltas never erase), but they must
        # not come back to life.
        members = set(desc.get("member_oids", []))
        by_pid = {state["local_pid"]: (oid, state)
                  for oid, (otype, state) in self.decoded.items()
                  if otype == "proc" and oid in members}
        processes: List[Process] = []
        for pid in sorted(by_pid):
            pending: List[int] = []     # unbuilt ancestors, child first
            while pid in by_pid and pid not in self.by_local_pid \
                    and pid not in pending:
                pending.append(pid)
                pid = by_pid[pid][1]["parent_local_pid"]
            for pid in reversed(pending):
                oid, state = by_pid[pid]
                processes.append(
                    self.build_object(oid, OBJECT_TYPES["proc"], state))
        if not processes:
            raise RestoreError("checkpoint contains no processes")
        return processes

    # -- shadow tracks --------------------------------------------------------------------

    def _register_tracks(self, group: ConsistencyGroup) -> None:
        """Re-arm system shadowing so the next checkpoint flushes only
        post-restore dirt: each restored object gets a fresh shadow."""
        by_object = [proc.vmspace.entries_by_object()
                     for proc in group.processes]
        for oid, obj in self.objects.items():
            if not isinstance(obj, VMObject) \
                    or oid_class(oid) != CLASS_MEMORY:
                continue
            group.oid_map[obj.kid] = oid
            shadow = obj.shadow(name=f"sys:{obj.name}")
            shadow.sls_oid = oid
            # Repoint every entry mapping the restored base.
            for entries in by_object:
                for entry in entries.get(obj.kid, ()):
                    entry.set_object(shadow)
            segment = self.kernel.shm_backmap.get(obj.kid)
            if segment is not None:
                segment.replace_object(shadow)
            group.oid_map[shadow.kid] = oid
            track = ObjectTrack(oid, shadow)
            track.new = False
            group.tracks[oid] = track

    # -- signals ------------------------------------------------------------------------------

    def _post_restore_signals(self, desc: Dict[str, Any],
                              processes: List[Process]) -> None:
        for entry in desc.get("ephemeral_pids", []):
            parent = self.by_local_pid.get(entry.get("parent_local_pid"))
            if parent is not None:
                # The ephemeral child is gone; to the parent it looks
                # like the child exited (§3).
                parent.post_signal(SIGCHLD)
        for proc in processes:
            proc.post_signal(SIGSLSRESTORE)
