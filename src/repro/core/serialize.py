"""The checkpoint serializer: one visit per kernel object (§5).

Every kernel object reachable from a consistency group is serialized
into its own on-disk record, exactly once per checkpoint, keyed by the
group's kernel-address→OID map.  Sharing needs no inference: two fd
table slots naming one OpenFile produce one record; two OpenFiles over
one vnode produce two file records referencing one vnode record — the
POSIX object model of §5.2.  What a visit captures and charges is the
object type's row in :mod:`~repro.core.objmodel` (Table 4).

Incremental checkpoints: when ``epoch_floor`` is set, objects whose
``dirty_epoch`` is at or below the floor stay live (and their dirty
children are reached) but their unchanged records are not re-written —
the restore path resolves them from older deltas via
:meth:`~repro.objstore.store.ObjectStore.merged_view` — and charge
nothing: the cost of an incremental checkpoint is proportional to the
dirty set, which is the point.  The live OID set (:attr:`live_oids`)
is recorded per checkpoint so a delta can distinguish "unchanged" from
"deleted".  Processes and the group descriptor are always
re-serialized: their records embed per-thread CPU state that changes
every instant.  An fd table whose slot layout did not change replays
its last walk (:class:`WalkMemo`), visiting only the slots the
kernel's dirty log names since the floor.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Any, Dict, List, Optional, Set

from ..kernel.fs.file import DTYPE_VNODE
from ..objstore.oid import CLASS_POSIX
from . import costs, telemetry
from .objmodel import OBJECT_TYPES, ObjectType, cost_of


class WalkMemo:
    """What one full walk of an fd table learned (DESIGN.md §11), kept
    per group and table kid (``group.walk_memos``) and replayed while
    ``layout_gen`` matches.  Columnar, nothing per slot: the population
    of long-lived tracked objects sets the cyclic collector's schedule.
    """

    __slots__ = ("layout_gen", "fds", "files", "kids", "slots", "always",
                 "oids", "checked", "live")

    def __init__(self, fdtable: Any, fds: Dict[str, int],
                 oid_map: Dict[int, int], live: Set[int]) -> None:
        #: The record's ``{"fds": ...}`` body and the files in slot order
        #: (``OpenFile.fobj`` never rebinds while a slot holds one).
        self.layout_gen, self.fds = fdtable.layout_gen, fds
        files = self.files = [file for _, file in fdtable.items()]
        #: The vnode-backed slots' file and vnode kids (the kernel's ints),
        #: sorted, beside the slot each names; the slots every replay visits.
        backed = [pos for pos, file in enumerate(files)
                  if file.ftype == DTYPE_VNODE]
        kids = ([files[pos].kid for pos in backed]
                + [files[pos].fobj.kid for pos in backed])
        order = sorted(range(len(kids)), key=kids.__getitem__)
        self.kids = [kids[i] for i in order]
        self.slots = array("q", [backed[i % len(backed)] for i in order])
        self.always = array("q", [pos for pos, file in enumerate(files)
                                  if file.ftype != DTYPE_VNODE])
        #: Their OIDs and live sets known to hold them (read-only once
        #: committed): the parent's a replay checked, the last pass's.
        self.oids = {oid_map[kid] for kid in self.kids}
        self.checked, self.live = None, weakref.ref(live)

    def stamped_slots(self, kernel: Any, floor: int) -> Optional[List[int]]:
        """The slots a replay from ``floor`` visits, in order: ``always``
        and those logged above it; None once the log is pruned past it."""
        hits = kernel.stamped_since(floor, self.kids)
        return None if hits is None else sorted(
            {self.slots[i] for i in hits}.union(self.always))


class CheckpointSerializer:
    """Serializes one consistency group's OS state into a txn."""

    def __init__(self, kernel: Any, group: Any, store: Any, txn: Any,
                 epoch_floor: Optional[int] = None,
                 prior_live: Optional[Set[int]] = None) -> None:
        self.kernel = kernel
        self.group = group
        self.store = store
        self.txn = txn
        #: Objects whose ``dirty_epoch`` ≤ the floor were captured by a
        #: previous checkpoint of this chain; None forces a full pass.
        self.epoch_floor = epoch_floor
        #: OIDs resolvable from the parent's chain (:meth:`_skippable`).
        self.prior_live = prior_live
        #: OIDs visited in this pass: one by one, and replays' in bulk.
        self._done: Set[int] = set()
        self._bulk: List[Set[int]] = []
        #: Every OID the walk reached — the checkpoint's live set.
        self.live_oids: Set[int] = set()
        #: Records actually staged vs. skipped as unchanged.
        self.records_written = 0
        self.records_skipped = 0
        #: Fd-table slots accounted from a memo vs. visited, and the
        #: tables walked in full, by reason the replay was not taken.
        self.slots_replayed = 0
        self.slots_walked = 0
        self.full_walks: Dict[str, int] = {}

    # -- helpers -----------------------------------------------------------------

    def _oid(self, kobj: Any, obj_class: int = CLASS_POSIX) -> int:
        oid = self.group.oid_for(kobj, self.store, obj_class)
        self.live_oids.add(oid)
        return oid

    def _first(self, oid: int) -> bool:
        return oid not in self._done and (
            not self._bulk or all(oid not in oids for oids in self._bulk))

    def _skippable(self, kobj: Any, oid: int) -> bool:
        """Unchanged since the floor AND resolvable from the parent
        chain: an object that predates the floor but was unreachable at
        the previous checkpoint (a closed-then-reopened file's vnode)
        has no on-disk record for the merged view to resolve."""
        floor = self.epoch_floor
        return (floor is not None and kobj.dirty_epoch <= floor
                and self.prior_live is not None and oid in self.prior_live)

    def _put(self, oid: int, otype: str, state: Dict[str, Any]) -> None:
        self.txn.put_object(oid, otype, state)
        self.records_written += 1

    def _span(self, otype: str) -> Any:
        """A ``serialize.<otype>`` child of the checkpoint's serialize
        stage (recording reads the clock, never advances it)."""
        return telemetry.registry().span(self.kernel.clock,
                                         f"serialize.{otype}",
                                         group=self.group.group_id)

    # -- the one visit ----------------------------------------------------------------

    def serialize_object(self, kobj: Any) -> int:
        """Visit one object behind an fd or a map entry; returns its
        OID.  Its ``obj_type``'s row says what a visit does — never the
        ``ftype`` of the file that led here (a SysV segment has none)."""
        row = OBJECT_TYPES[kobj.obj_type]
        oid = self._oid(kobj, row.oid_class)
        first = self._first(oid)
        skip = self._skippable(kobj, oid)
        if row.quiet and (skip or not first):
            return self._visit(row, kobj, oid, first, skip)
        with self._span(row.otype):
            return self._visit(row, kobj, oid, first, skip)

    serialize_file = serialize_object   # the name visits are counted on

    def _visit(self, row: ObjectType, kobj: Any, oid: int, first: bool,
               skip: bool, kids: Any = None) -> int:
        """A visit once the OID is taken: children on the first visit
        whether or not the record is clean, then the charge and the
        record of a changed object (a clean one never builds its state)."""
        if first:
            self._done.add(oid)
            if row.children is not None:
                kids = row.children(self, kobj)
        if skip:
            self.records_skipped += first
        elif first or row.per_file:
            self.kernel.clock.advance(cost_of(row.ckpt_cost, kobj))
            if first:
                self._put(oid, row.otype, row.capture(self, kobj, kids))
                if row.after is not None:
                    row.after(self, kobj, oid)
        return oid

    # -- top level --------------------------------------------------------------------

    def serialize_all(self) -> Dict[str, Any]:
        """Serialize the whole group; returns the group descriptor."""
        members = self.group.persistent_processes()
        member_oids = [self.serialize_process(proc) for proc in members]
        descriptor = OBJECT_TYPES["group"].capture(self, self.group,
                                                   member_oids)
        self._put(self.group.desc_oid, "group", descriptor)
        if self.group.desc_oid is not None:
            self.live_oids.add(self.group.desc_oid)
        # A memo dies with its table: an exited member's is dropped.
        memos = self.group.walk_memos
        for kid in memos.keys() - {proc.fdtable.kid for proc in members}:
            del memos[kid]
        registry = telemetry.registry()
        gid = self.group.group_id
        for name, value in (("records", self.records_written),
                            ("records_skipped", self.records_skipped),
                            ("slots_replayed", self.slots_replayed),
                            ("slots_walked", self.slots_walked)):
            registry.counter(f"sls.serialize.{name}", group=gid).add(value)
        for reason, tables in self.full_walks.items():
            registry.counter("sls.serialize.full_walks", group=gid,
                             reason=reason).add(tables)
        return descriptor

    # -- hand-written visits: both take their OID last -----------------------------------------

    def serialize_process(self, proc: Any) -> int:
        """One process, always dirty (thread CPU state mutates on every
        quiesce).  It takes its OID after everything it reaches:
        allocation order is on media."""
        row = OBJECT_TYPES["proc"]
        with self._span("proc"):
            self.kernel.clock.advance(cost_of(row.ckpt_cost, proc))
            state = row.capture(self, proc, None)
            oid = self._oid(proc)
            self._done.add(oid)
            self._put(oid, "proc", state)
            return oid

    def serialize_fdtable(self, fdtable: Any) -> int:
        """The fd table: slot -> OpenFile OID (sharing preserved); its
        own record is skipped when clean, its slots are walked first."""
        with self._span("fdtable"):
            fds = self._walk_slots(fdtable)
            oid = self._oid(fdtable)
            return self._visit(OBJECT_TYPES["fdtable"], fdtable, oid,
                               self._first(oid),
                               self._skippable(fdtable, oid), fds)

    def _walk_slots(self, fdtable: Any) -> Dict[str, int]:
        """Visit the table's files; returns the record's ``fds``.

        An unchanged layout replays the memo (DESIGN.md §11): it visits
        :meth:`WalkMemo.stamped_slots`, each charged ``CKPT_FILE_DESC``
        *before* its visit as the full walk charges it, and accounts the
        rest in bulk — live, and skipped once each less what this pass
        visited.  A failed precondition takes the full walk below.
        """
        clock = self.kernel.clock
        floor, prior_live = self.epoch_floor, self.prior_live
        memo = self.group.walk_memos.get(fdtable.kid)
        if floor is None:
            blocker = "no_floor"
        elif prior_live is None:
            blocker = "parent_live_unresolvable"
        elif memo is None or memo.layout_gen != fdtable.layout_gen:
            blocker = "layout_changed"
        elif (prior_live is not memo.checked and prior_live is not memo.live()
              and not prior_live.issuperset(memo.oids)):
            blocker = "not_in_prior_live"
        elif (visit := memo.stamped_slots(self.kernel, floor)) is None:
            blocker = "log_pruned"
        else:
            charged = 0
            for pos in visit:
                clock.advance((pos + 1 - charged) * costs.CKPT_FILE_DESC)
                charged = pos + 1
                self.serialize_file(memo.files[pos])
            clock.advance((len(memo.files) - charged) * costs.CKPT_FILE_DESC)
            seen = memo.oids & self._done
            for oids in self._bulk:
                seen |= memo.oids & oids
            self.records_skipped += len(memo.oids) - len(seen)
            self._bulk.append(memo.oids)
            self.live_oids |= memo.oids
            self.slots_walked += len(visit)
            self.slots_replayed += len(memo.files) - len(visit)
            memo.checked, memo.live = prior_live, weakref.ref(self.live_oids)
            return memo.fds
        self.full_walks[blocker] = self.full_walks.get(blocker, 0) + 1
        fds: Dict[str, int] = {}
        for fd, file in fdtable.items():
            clock.advance(costs.CKPT_FILE_DESC)
            fds[str(fd)] = self.serialize_file(file)
        self.slots_walked += len(fds)
        self.group.walk_memos[fdtable.kid] = WalkMemo(
            fdtable, fds, self.group.oid_map, self.live_oids)
        return fds
