"""Per-POSIX-object checkpoint serializers (§5).

Every kernel object reachable from a consistency group is serialized
into its own on-disk record, exactly once per checkpoint, keyed by the
group's kernel-address→OID map.  Sharing needs no inference: two fd
table slots naming one OpenFile produce one record; two OpenFiles over
one vnode produce two file records referencing one vnode record — the
POSIX object model of §5.2.

Incremental checkpoints: when ``epoch_floor`` is set, objects whose
``dirty_epoch`` is at or below the floor stay live (and their dirty
children are reached) but their unchanged records are not re-written —
the restore path resolves them from older deltas via
:meth:`~repro.objstore.store.ObjectStore.merged_view`.  The live OID
set (:attr:`live_oids`) is recorded per checkpoint so a delta can
distinguish "unchanged" from "deleted".  Processes and the group
descriptor are always re-serialized: their records embed per-thread
CPU state that changes every instant.  An fd table whose slot layout
did not change is not re-walked either: its last walk is replayed
(:class:`WalkMemo`) and only the slots that can have changed are
visited.

Each serializer charges the calibrated cost from Table 4; the costs
module documents the calibration.  Skipped objects charge nothing —
the per-object cost of an incremental checkpoint is proportional to
the dirty set, which is the point.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Set

from ..errors import InvalidArgument, PermissionDenied
from ..kernel.fs.file import (DTYPE_DEVICE, DTYPE_KQUEUE, DTYPE_PIPE,
                              DTYPE_PTS, DTYPE_SHM, DTYPE_SOCKET,
                              DTYPE_VNODE, OpenFile)
from ..kernel.ipc.devfs import DEVICE_WHITELIST
from ..objstore.oid import CLASS_FILE, CLASS_POSIX
from . import costs, telemetry


def _traced(otype: str) -> Callable:
    """Wrap a serializer method in a ``serialize.<otype>`` span so each
    serialized object becomes a child of the checkpoint's serialize
    stage in the causal trace (recording reads the clock, never
    advances it)."""
    def wrap(method: Callable) -> Callable:
        @functools.wraps(method)
        def inner(self, *args, **kwargs):
            with telemetry.registry().span(self.kernel.clock,
                                           f"serialize.{otype}",
                                           group=self.group.group_id):
                return method(self, *args, **kwargs)
        return inner
    return wrap


class WalkMemo:
    """What one full walk of an fd table learned, kept per group and
    table kid (``group.walk_memos``) and replayed by
    :meth:`CheckpointSerializer.serialize_fdtable` while ``layout_gen``
    matches.  Columnar on purpose — two slot-ordered lists, one dict,
    one set, nothing per slot: the memo is long-lived, and the
    population of long-lived tracked objects sets the cyclic
    collector's schedule.  The columns cannot go stale:
    ``OpenFile.fobj`` is assigned once and cleared only in
    ``destroy()``, and a slot holds a reference.
    """

    __slots__ = ("layout_gen", "fds", "files", "vnodes", "oids")

    def __init__(self, layout_gen: int, fds: Dict[str, int],
                 files: List[OpenFile], vnodes: List[Any],
                 oids: Set[int]) -> None:
        self.layout_gen = layout_gen
        #: The table record's ``{"fds": ...}`` body.
        self.fds = fds
        #: ``vnodes[i]`` is the vnode behind ``files[i]``; None marks a
        #: slot the replay always visits (pipe, socket, kqueue, pty,
        #: shm, device: each opens a span even when clean, unix sockets
        #: chase in-flight descriptors, shm adds its ``vm_oid``).
        self.files = files
        self.vnodes = vnodes
        #: File and vnode OIDs of the vnode-backed slots.
        self.oids = oids


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
        #: OIDs resolvable from the parent checkpoint's chain.  A clean
        #: object may only be skipped when its record is actually
        #: reachable there: an object that predates the floor but was
        #: unreachable at the previous checkpoint (a closed-then-
        #: reopened file's vnode) has no on-disk record to resolve.
        self.prior_live = prior_live
        #: OIDs already visited in this pass (dedup).
        self._done: Set[int] = set()
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

    def _skippable(self, kobj: Any, oid: int) -> bool:
        """Unchanged since the floor AND resolvable from the parent
        chain.  Cleanliness alone is not enough: an object that
        predates the floor but was unreachable at the previous
        checkpoint (a closed-then-reopened file's vnode) has no
        on-disk record for the merged view to resolve."""
        floor = self.epoch_floor
        return (floor is not None and kobj.dirty_epoch <= floor
                and self.prior_live is not None and oid in self.prior_live)

    def _put(self, oid: int, otype: str, state: Dict[str, Any]) -> None:
        self.txn.put_object(oid, otype, state)
        self.records_written += 1

    def _put_once(self, kobj: Any, otype: str,
                  build: Callable[[], Dict[str, Any]], cost: int = 0,
                  force: bool = False) -> int:
        """Stage ``kobj``'s record unless it is clean or already done.
        The skip decision is taken once, before ``build`` runs: a clean
        object never builds its state.  ``cost`` is charged on every
        visit of a changed object (a pipe is reached through both of
        its ends); the record is staged on the first."""
        oid = self._oid(kobj)
        skip = not force and self._skippable(kobj, oid)
        if cost and not skip:
            self.kernel.clock.advance(cost)
        if oid not in self._done:
            self._done.add(oid)
            if skip:
                self.records_skipped += 1
            else:
                self._put(oid, otype, build())
        return oid

    # -- top level --------------------------------------------------------------------

    def serialize_all(self) -> Dict[str, Any]:
        """Serialize the whole group; returns the group descriptor."""
        members = self.group.persistent_processes()
        member_oids = [self.serialize_process(proc) for proc in members]
        ephemeral_pids = [
            {"local_pid": p.local_pid,
             "parent_local_pid": (p.parent.local_pid
                                  if p.parent is not None and
                                  p.parent.sls_group is self.group else None)}
            for p in self.group.processes if p.sls_ephemeral
        ]
        descriptor = {
            "group_id": self.group.group_id,
            "name": self.group.name,
            "period_ns": self.group.period_ns,
            "external_synchrony": self.group.external_synchrony,
            "member_oids": member_oids,
            "ephemeral_pids": ephemeral_pids,
            # In-flight asynchronous IO (§5.3): pending reads are
            # recorded for reissue at restore; pending writes gate the
            # checkpoint's completion (the orchestrator waits on the
            # barrier); failures are recorded as-is.
            "aio": self.kernel.aio.quiesce(),
        }
        # The descriptor is always-dirty: member lists and aio state
        # are recomputed every checkpoint.
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

    # -- processes ---------------------------------------------------------------------

    @_traced("proc")
    def serialize_process(self, proc: Any) -> int:
        """One process: identity, threads, map entries, fd table.

        Processes are always-dirty: thread CPU state mutates on every
        quiesce, so there is nothing to skip.
        """
        self.kernel.clock.advance(costs.CKPT_PROC_BASE)
        threads = []
        for thread in proc.threads:
            self.kernel.clock.advance(costs.CKPT_THREAD)
            threads.append({
                "local_tid": thread.local_tid,
                "cpu": thread.cpu_state.snapshot(),
                "signals": thread.signals.snapshot(),
                "priority": thread.sched_priority,
                "syscall_restarted": thread.syscall_restarted,
            })
        entries = []
        for entry in proc.vmspace.map:
            self.kernel.clock.advance(costs.CKPT_VMENTRY)
            entries.append(self.serialize_entry(entry))
        fdtable_oid = self.serialize_fdtable(proc.fdtable)
        parent = proc.parent
        parent_local = parent.local_pid if parent is not None \
            and parent.sls_group is self.group else None
        state = {
            "local_pid": proc.local_pid,
            "name": proc.name,
            "parent_local_pid": parent_local,
            "pgid": proc.pgroup.pgid,
            "sid": proc.pgroup.session.sid,
            "cwd": proc.cwd,
            "threads": threads,
            "entries": entries,
            "fdtable_oid": fdtable_oid,
        }
        return self._put_once(proc, "proc", lambda: state, force=True)

    def serialize_entry(self, entry: Any) -> Dict[str, Any]:
        """One vm_map_entry: range, protection, object reference."""
        obj = entry.vmobject
        segment = self.kernel.shm_backmap.get(obj.kid)
        if segment is not None:
            # A mapped shared-memory segment is a first-class object
            # even when no descriptor references it (shmat with the
            # fd long closed).
            self.serialize_shm(segment)
        if obj.kind == "device":
            # Mapped devices (HPET, vDSO) are recreated from the
            # restore-time machine, not persisted (§5.3).
            vm_oid = None
        elif obj.sls_oid is not None:
            vm_oid = obj.sls_oid
            self.live_oids.add(vm_oid)
        else:
            vm_oid = None
        return {
            "start_page": entry.start_page,
            "npages": entry.npages,
            "protection": entry.protection,
            "inheritance": entry.inheritance,
            "needs_copy": entry.needs_copy,
            "sls_excluded": entry.sls_excluded,
            "name": entry.name,
            "vm_oid": vm_oid,
            "kind": obj.kind,
        }

    # -- descriptors ----------------------------------------------------------------------

    @_traced("fdtable")
    def serialize_fdtable(self, fdtable: Any) -> int:
        """The fd table: slot -> OpenFile OID (sharing preserved).

        A table whose slot layout did not change replays its last walk
        (:class:`WalkMemo`): only the slots whose file or vnode was
        stamped since the floor, and the not vnode-backed ones, are
        visited; the rest are accounted in bulk — live, and skipped
        once each (``- _done``: an object shared with another table or
        in flight over a socket counts once, as the per-object check
        does).  ``CKPT_FILE_DESC`` is charged per slot *before* the
        slot's visit, so the spans a visit opens read the clock the
        slot-by-slot walk showed them.  The superset test is the second
        half of :meth:`_skippable` for every memoised object at once:
        a rollback, a forced full checkpoint, a restored group and an
        unresolvable parent all end in the full walk below, which
        rebuilds the memo.
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
        elif not prior_live.issuperset(memo.oids):
            blocker = "not_in_prior_live"
        else:
            visit = [pos for pos, (file, vnode)
                     in enumerate(zip(memo.files, memo.vnodes))
                     if vnode is None or file.dirty_epoch > floor
                     or vnode.dirty_epoch > floor]
            charged = 0
            for pos in visit:
                clock.advance((pos + 1 - charged) * costs.CKPT_FILE_DESC)
                charged = pos + 1
                self.serialize_file(memo.files[pos])
            clock.advance((len(memo.files) - charged) * costs.CKPT_FILE_DESC)
            rest = memo.oids - self._done
            self.records_skipped += len(rest)
            self._done |= rest
            self.live_oids |= memo.oids
            self.slots_walked += len(visit)
            self.slots_replayed += len(memo.files) - len(visit)
            return self._put_once(fdtable, "fdtable",
                                  lambda: {"fds": memo.fds})
        self.full_walks[blocker] = self.full_walks.get(blocker, 0) + 1
        fds: Dict[str, int] = {}
        files: List[OpenFile] = []
        vnodes: List[Any] = []
        oids: Set[int] = set()
        for fd, file in fdtable.items():
            clock.advance(costs.CKPT_FILE_DESC)
            oid = fds[str(fd)] = self.serialize_file(file)
            files.append(file)
            if file.ftype == DTYPE_VNODE:
                vnodes.append(file.fobj)
                oids.add(oid)
                oids.add(self.group.oid_map[file.fobj.kid])
            else:
                vnodes.append(None)
        self.slots_walked += len(files)
        self.group.walk_memos[fdtable.kid] = WalkMemo(
            fdtable.layout_gen, fds, files, vnodes, oids)
        return self._put_once(fdtable, "fdtable", lambda: {"fds": fds})

    def serialize_file(self, file: OpenFile) -> int:
        """One OpenFile: mode, offset, underlying object reference.

        The clean-skip decision is taken *before* the tracing span and
        the state dict are built: a clean descriptor costs one epoch
        check, not a span record.  The underlying object is always
        visited (it carries its own dirty epoch and must stay in the
        live set).
        """
        oid = self._oid(file)
        if oid in self._done:
            return oid
        if self._skippable(file, oid):
            self._done.add(oid)
            self.records_skipped += 1
            self.serialize_fobj(file.fobj, file.ftype)
            return oid
        with telemetry.registry().span(self.kernel.clock, "serialize.file",
                                       group=self.group.group_id):
            state = {
                "ftype": file.ftype,
                "flags": file.flags,
                "offset": file.offset,
                "sls_nosync": file.sls_nosync,
                "fobj_oid": self.serialize_fobj(file.fobj, file.ftype),
            }
            return self._put_once(file, "file", lambda: state, force=True)

    def serialize_fobj(self, fobj: Any, ftype: str) -> int:
        """Dispatch to the type-specific object serializer."""
        if ftype == DTYPE_VNODE:
            return self.serialize_vnode(fobj)
        if ftype == DTYPE_PIPE:
            return self.serialize_pipe(fobj)
        if ftype == DTYPE_SOCKET:
            return self.serialize_socket(fobj)
        if ftype == DTYPE_KQUEUE:
            return self.serialize_kqueue(fobj)
        if ftype == DTYPE_PTS:
            return self.serialize_pty(fobj)
        if ftype == DTYPE_SHM:
            return self.serialize_shm(fobj)
        if ftype == DTYPE_DEVICE:
            return self.serialize_device(fobj)
        raise InvalidArgument(f"no serializer for {ftype}")

    # -- individual object types (Table 4) ------------------------------------------------------

    def serialize_vnode(self, vnode: Any) -> int:
        """Vnodes are checkpointed as an inode reference — no namei or
        name-cache walk (§5.2), hence Table 4's 1.7 µs.  Clean vnodes
        skip before the span is opened, like :meth:`serialize_file`."""
        oid = self._oid(vnode, CLASS_FILE)
        if oid in self._done:
            return oid
        self._done.add(oid)
        if self._skippable(vnode, oid):
            self.records_skipped += 1
            return oid
        with telemetry.registry().span(self.kernel.clock, "serialize.vnode",
                                       group=self.group.group_id):
            self.kernel.clock.advance(costs.CKPT_VNODE)
            self._put(oid, "vnode", {
                "inode": vnode.inode,
                "fs_type": vnode.fs.fs_type,
                "vtype": vnode.vtype,
                "size": vnode.size,
                "link_count": vnode.link_count,
            })
            if vnode.fs.fs_type != "slsfs" and vnode.vmobject is not None:
                # Volatile filesystems get their data embedded in the
                # checkpoint; the Aurora FS persists data itself.
                self.txn.put_pages(oid, dict(vnode.vmobject.pages))
        return oid

    @_traced("pipe")
    def serialize_pipe(self, pipe: Any) -> int:
        """A pipe: buffer contents + endpoint liveness (Table 4)."""
        return self._put_once(pipe, "pipe", lambda: {
            "buffer": bytes(pipe.buffer),
            "capacity": pipe.capacity,
            "read_open": pipe.read_open,
            "write_open": pipe.write_open,
        }, costs.CKPT_PIPE)

    def serialize_socket(self, sock: Any) -> int:
        """Dispatch UNIX/UDP/TCP socket serialization."""
        if sock.obj_type == "unixsock":
            return self.serialize_unix_socket(sock)
        if sock.obj_type == "udpsock":
            return self.serialize_udp(sock)
        if sock.obj_type == "tcpsock":
            return self.serialize_tcp(sock)
        raise InvalidArgument(f"unknown socket type {sock.obj_type}")

    @_traced("unixsock")
    def serialize_unix_socket(self, sock: Any) -> int:
        """UNIX sockets: the buffer is *parsed* for control messages so
        every in-flight descriptor is chased and persisted (§5.3).

        The chase runs even for a clean socket: an in-flight file is
        live (and possibly dirty) whether or not the queue changed."""
        oid = self._oid(sock)
        if oid in self._done:
            return oid
        self._done.add(oid)
        messages = []
        for message in sock.buffer:
            entry = {"data": message.data, "file_oids": [], "creds": None}
            if message.control is not None:
                entry["file_oids"] = [self.serialize_file(f)
                                      for f in message.control.files]
                if message.control.creds is not None:
                    entry["creds"] = list(message.control.creds)
            messages.append(entry)
        if self._skippable(sock, oid):
            self.records_skipped += 1
            return oid
        self.kernel.clock.advance(costs.CKPT_SOCKET)
        peer_oid = None
        if sock.peer is not None:
            peer_oid = self.group.oid_map.get(sock.peer.kid)
            if peer_oid is None:
                peer_oid = self._oid(sock.peer)
        self._put(oid, "unixsock", {
            "sock_type": sock.sock_type,
            "address": sock.address,
            "listening": sock.listening,
            "messages": messages,
            "peer_oid": peer_oid,
            "options": dict(sock.options),
        })
        return oid

    @_traced("udpsock")
    def serialize_udp(self, sock: Any) -> int:
        """A UDP socket: binding, options, queued datagrams (§5.3)."""
        return self._put_once(sock, "udpsock", lambda: {
            "laddr": sock.laddr,
            "lport": sock.lport,
            "options": dict(sock.options),
            "datagrams": [{"source": list(d.source), "payload": d.payload}
                          for d in sock.rcvqueue],
        }, costs.CKPT_SOCKET)

    @_traced("tcpsock")
    def serialize_tcp(self, sock: Any) -> int:
        """TCP: 5-tuple, sequence numbers, options and buffers; the
        accept queue is deliberately omitted — clients see a dropped
        SYN and retry (§5.3)."""
        peer = sock.peer
        return self._put_once(sock, "tcpsock", lambda: {
            "state": sock.state,
            "laddr": sock.laddr,
            "lport": sock.lport,
            "raddr": sock.raddr,
            "rport": sock.rport,
            "snd_nxt": sock.snd_nxt,
            "rcv_nxt": sock.rcv_nxt,
            "options": dict(sock.options),
            "sndbuf": sock.sndbuf.snapshot(),
            "rcvbuf": sock.rcvbuf.snapshot(),
            "dropped_accepts": len(sock.accept_queue),
            "peer_oid": (self.group.oid_map.get(peer.kid)
                         if peer is not None else None),
        }, costs.CKPT_SOCKET)

    @_traced("kqueue")
    def serialize_kqueue(self, kq: Any) -> int:
        """Cost scales with registered events: each knote is locked and
        serialized (Table 4: 35.2 µs for 1024 events)."""
        return self._put_once(kq, "kqueue", lambda: {
            "events": [{"ident": e.ident, "filter": e.filter,
                        "flags": e.flags, "fflags": e.fflags,
                        "data": e.data, "udata": e.udata}
                       for e in kq.events()],
        }, costs.CKPT_KQUEUE_BASE + len(kq) * costs.CKPT_KEVENT_EACH)

    @_traced("pty")
    def serialize_pty(self, pty: Any) -> int:
        """A pseudoterminal: termios + both direction buffers."""
        return self._put_once(pty, "pty", lambda: {
            "unit": pty.unit,
            "termios": {k: v for k, v in pty.termios.items()},
            "to_slave": bytes(pty._to_slave),
            "to_master": bytes(pty._to_master),
        }, costs.CKPT_PTY)

    @_traced("shm")
    def serialize_shm(self, segment: Any) -> int:
        """POSIX shm is direct; SysV requires scanning the global
        namespace table (Table 4: 14.9 µs vs 4.5 µs)."""
        oid = self._oid(segment)
        if oid in self._done:
            if segment.vmobject.sls_oid is not None:
                self.live_oids.add(segment.vmobject.sls_oid)
            return oid
        self._done.add(oid)
        if self._skippable(segment, oid) \
                and segment.vmobject.sls_oid is not None:
            self.live_oids.add(segment.vmobject.sls_oid)
            self.records_skipped += 1
            return oid
        if segment.flavor == "sysv":
            self.kernel.clock.advance(
                costs.CKPT_SHM_SYSV_BASE +
                self.kernel.sysv_shm.nslots *
                costs.CKPT_SHM_SYSV_SCAN_PER_SLOT)
        else:
            self.kernel.clock.advance(costs.CKPT_SHM_POSIX)
        vm_oid = segment.vmobject.sls_oid
        pages = None
        if vm_oid is None:
            # Held open but never mapped by the group: persist the
            # content directly under a memory OID.
            from ..objstore.oid import CLASS_MEMORY
            vm_oid = self.group.oid_for(segment.vmobject, self.store,
                                        CLASS_MEMORY)
            segment.vmobject.sls_oid = vm_oid
            pages = dict(segment.vmobject.pages)
        self.live_oids.add(vm_oid)
        self._put(oid, "shm", {
            "name": segment.name,
            "size": segment.size,
            "flavor": segment.flavor,
            "key": getattr(segment, "key", None),
            "vm_oid": vm_oid,
        })
        if pages is not None:
            self._put(vm_oid, "vmobject", {
                "size_pages": segment.vmobject.size_pages,
                "kind": "anonymous",
                "name": segment.vmobject.name,
                "backing_oid": None,
            })
            self.txn.put_pages(vm_oid, pages)
        return oid

    @_traced("device")
    def serialize_device(self, device: Any) -> int:
        """A whitelisted device: name only (recreated at restore)."""
        if device.name not in DEVICE_WHITELIST:
            raise PermissionDenied(
                f"device {device.name!r} cannot be persisted")
        return self._put_once(device, "device", lambda: {"name": device.name},
                              costs.CKPT_PIPE)  # trivial record
