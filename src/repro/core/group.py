"""Consistency groups (§3).

A consistency group is the unit of atomic persistence: a set of
processes checkpointed together, typically one application or
container.  External synchrony applies only to communication leaving
the group.  Processes forked by members join automatically; *ephemeral*
members participate in the group's lifetime but are not persisted — at
restore their parent receives SIGCHLD as if the child had exited (§3).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set

from ..errors import AlreadyAttached
from ..kernel.proc.pid import IDVirtualization
from ..kernel.proc.process import Process
from ..units import MSEC
from . import telemetry
from .resilience import DEFAULT_PROBE_EVERY, GroupHealth


class ObjectTrack:
    """Shadow-cycle state of one logical (on-disk) VM object."""

    __slots__ = ("oid", "active", "frozen", "flushed", "new", "unsaved")

    def __init__(self, oid: int, active: Any) -> None:
        self.oid = oid
        #: The live top of the chain (the shadow taking new writes).
        self.active = active
        #: The previous top, frozen while its pages flush to storage.
        self.frozen: Any = None
        #: Whether the frozen shadow's flush has completed (it will be
        #: collapsed into its parent at the next checkpoint, §6).
        self.flushed = False
        #: True until the first checkpoint captures the base content.
        self.new = True
        #: Set by a ``mode="mem"`` checkpoint, which marks nothing
        #: clean: the next disk checkpoint flushes every dirty piece of
        #: the chain segment, not only the top's.
        self.unsaved = False


class ConsistencyGroup:
    """One atomically persisted set of processes."""

    #: Default checkpoint period: 100x per second (§3).
    DEFAULT_PERIOD = 10 * MSEC

    def __init__(self, group_id: int, name: str = "",
                 period_ns: int = DEFAULT_PERIOD,
                 *, external_synchrony: bool) -> None:
        self.group_id = group_id
        self.name = name or f"group{group_id}"
        self.period_ns = period_ns
        self.external_synchrony = external_synchrony
        self.processes: List[Process] = []
        #: Kernel object kid -> on-disk OID (the POSIX object map,
        #: §5.2: "a mapping of each object's address in the kernel to
        #: a 64-bit on-disk object identifier").
        self.oid_map: Dict[int, int] = {}
        #: What the serializer's last walk of each member fd table
        #: learned (a ``serialize.WalkMemo``), keyed by the table's
        #: kid; rebuilt by every full walk, dropped with the table.
        self.walk_memos: Dict[int, Any] = {}
        #: Logical-object shadow cycles, keyed by OID.
        self.tracks: Dict[int, ObjectTrack] = {}
        #: Local (checkpoint-time) <-> global ID mapping after restore.
        self.idmap = IDVirtualization()
        #: The newest checkpoint ids.
        self.last_ckpt_id: Optional[int] = None
        self.last_complete_id: Optional[int] = None
        #: Kernel mutation epoch captured by the group's last flushed
        #: checkpoint: the serializer skips objects at or below this
        #: floor.  None until the first disk checkpoint commits (and
        #: again after restore), which forces a full serialization.
        self.ckpt_epoch: Optional[int] = None
        #: Members that exited since the previous checkpoint (their
        #: OIDs must stop being serialized).
        self.departed: Set[int] = set()
        #: Periodic checkpointing handle (orchestrator-owned).
        self.timer: Any = None
        self.attached = True
        #: OID of the group's descriptor record in the store.
        self.desc_oid: Optional[int] = None
        #: Keep at most this many checkpoints of history (None =
        #: unlimited, "only limited by the available storage", §7).
        self.history_limit: Optional[int] = None
        #: True while a checkpoint's flush is still in flight; Aurora
        #: waits for it before initiating another checkpoint (§7).
        self.flush_in_progress = False
        self.suspended = False
        #: Degraded-mode state machine (orchestrator-driven).
        self.health = GroupHealth()
        #: Set when a checkpoint rolled back: the next disk checkpoint
        #: must be full, because the aborted checkpoint's dirty pages
        #: were collapsed back into the in-memory chain and an
        #: incremental capture would miss them.
        self.force_full_next = False
        #: Per-tenant degraded-probe cadence: while degraded for
        #: ENOSPC, every Nth tick is a disk probe (the rest stay
        #: memory-only).  Fleet-surfaced (``sls fleet``).
        self.probe_every = DEFAULT_PROBE_EVERY
        #: Fleet backpressure: the scheduler stretches an over-budget
        #: tenant's effective period by this factor (1 = as requested).
        self.backpressure_factor = 1
        #: EWMA demand/service estimates maintained by the fleet
        #: scheduler: dirty bytes a disk checkpoint writes, and the
        #: sim-time one dispatch occupies the control plane.  Zero
        #: until the first observation (the scheduler seeds admission
        #: with a conservative default).
        self.demand_bytes_per_ckpt = 0
        self.service_ns_est = 0
        #: Per-tenant RPO budget; ``None`` inherits the tracker-wide
        #: default.  Registered with the SLO tracker at admission.
        self.rpo_budget_ns: Optional[int] = None
        #: Fleet scheduling counters.
        self.dispatches = 0
        self.deadline_misses = 0
        self.flush_skips = 0
        #: Aggregate statistics for benchmarks — a view over telemetry
        #: counters, so the numbers are also queryable per group from
        #: the registry (``sls stat``).
        self.stats = telemetry.StatsView(
            "sls.group", labels={"group": group_id},
            keys=("checkpoints", "stop_ns_total", "stop_ns_max",
                  "pages_flushed", "bytes_flushed", "records_written"))

    def cancel_timer(self) -> None:
        """Stop periodic checkpointing (no-op without a timer)."""
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    # -- membership ----------------------------------------------------------------

    def add_process(self, proc: Process) -> None:
        """Attach one process (``Orchestrator.mark_ephemeral`` is how a
        member becomes ephemeral afterwards)."""
        if proc.sls_group is not None:
            raise AlreadyAttached(f"{proc} already in a group")
        proc.sls_group = self
        proc.sls_ephemeral = False
        self.processes.append(proc)

    def adopt(self, child: Process) -> None:
        """fork() inside the group: the child joins automatically."""
        if child.sls_group is self:
            return
        child.sls_group = self
        child.sls_ephemeral = False
        self.processes.append(child)

    def remove_process(self, proc: Process) -> None:
        """Detach a process from the group."""
        if proc in self.processes:
            self.processes.remove(proc)
        proc.sls_group = None

    def on_member_exit(self, proc: Process) -> None:
        """A member died: stop persisting it."""
        self.departed.add(proc.pid)
        self.remove_process(proc)

    def persistent_processes(self) -> List[Process]:
        """Running, non-ephemeral members."""
        return [p for p in self.processes if not p.sls_ephemeral
                and p.state == "running"]

    def all_threads(self) -> Iterator[Any]:
        """Every thread of every running member."""
        for proc in self.processes:
            if proc.state != "running":
                continue
            for thread in proc.threads:
                yield thread

    # -- OID management -----------------------------------------------------------------

    def oid_for(self, kobj: Any, store: Any, obj_class: int) -> int:
        """Stable on-disk identity for a kernel object."""
        oid = self.oid_map.get(kobj.kid)
        if oid is None:
            oid = store.alloc_oid(obj_class)
            self.oid_map[kobj.kid] = oid
        return oid

    def __repr__(self) -> str:
        return (f"ConsistencyGroup(id={self.group_id}, {self.name!r}, "
                f"{len(self.processes)} procs, "
                f"period={self.period_ns // MSEC}ms)")
