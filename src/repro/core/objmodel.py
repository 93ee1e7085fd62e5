"""The POSIX object model as one table (§5; DESIGN §5.20).

Every kernel object POSIX implies is a first-class object in the store,
and every record type is one row of :data:`OBJECT_TYPES`: how a live
object is captured and what that costs (Table 4, left column), how its
record is rebuilt and linked and what that costs (right column).  The
serializer's one visit and the restorer's phase walk read the row; a
new type is one row here plus one case in ``tests/test_objmodel.py``.

Three types stay hand-written where the table would make them worse:
a process takes its OID after everything it reaches and is rebuilt
parents-first, an fd table's walk is the serializer's ``WalkMemo``
replay and its install belongs to its process, and the group
descriptor is written last and read first.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple,
                    Optional, Tuple, Union)

from ..errors import PermissionDenied, RestoreError
from ..kernel.fs.file import OpenFile
from ..kernel.ipc.devfs import DEVICE_WHITELIST, DeviceFile
from ..kernel.ipc.kqueue import KEvent, KQueue
from ..kernel.ipc.pipe import Pipe
from ..kernel.ipc.pty import Pty
from ..kernel.ipc.shm import SharedMemorySegment
from ..kernel.ipc.unixsock import ControlMessage, Message, UnixSocket
from ..kernel.net.tcp import TCP_ESTABLISHED, TCP_LISTEN, TCPSocket
from ..kernel.net.udp import UDPSocket
from ..kernel.proc.process import Process
from ..kernel.proc.session import ProcessGroup, Session
from ..kernel.vm.vmobject import VMObject
from ..objstore.oid import CLASS_FILE, CLASS_GROUP, CLASS_MEMORY, CLASS_POSIX
from ..units import PAGE_SIZE, pages_of
from . import costs
from .group import ConsistencyGroup
from .shadowing import object_record

if TYPE_CHECKING:
    from .restore import GroupRestorer as Rst
    from .serialize import CheckpointSerializer as Ser

State = Dict[str, Any]
Cost = Union[int, Callable[[Any], int]]

#: Build phases, in order: a segment needs its VM object, a file its
#: underlying object.  Links run after the last; ``None`` is built by
#: its owner (the group first, a process parents-first, its fd table).
SHELL, SEGMENT, FILE = range(3)


class ObjectType(NamedTuple):
    """One row; DESIGN §5.20 has the why of every field and quirk."""

    otype: str                      # == ``KObject.obj_type``
    #: ``capture(ser, kobj, kids)`` → the record's state dict.
    capture: Callable[["Ser", Any, Any], State]
    #: ``build(rst, oid, state)`` → the live object.
    build: Callable[["Rst", int, State], Any]
    #: Table 4: ns or ``f(kobj)`` per dirty visit, ns or ``f(state)``.
    ckpt_cost: Cost = 0
    restore_cost: Cost = 0
    oid_class: int = CLASS_POSIX
    phase: Optional[int] = None
    #: ``link(rst, obj, state)``: references resolved once all exist.
    link: Optional[Callable[["Rst", Any, State], None]] = None
    #: Captured fields restore deliberately does not read.
    ignored: Tuple[str, ...] = ()
    #: ``children(ser, kobj)`` → kids: what the object keeps live,
    #: visited on its first visit even when its own record is clean.
    children: Optional[Callable[["Ser", Any], Any]] = None
    #: ``after(ser, kobj, oid)``: records staged behind the object's own.
    after: Optional[Callable[["Ser", Any, int], None]] = None
    #: Charged on every visit (a pipe is reached through both ends).
    per_file: bool = False
    #: Clean or revisited, it opens no ``serialize.<otype>`` span.
    quiet: bool = False
    #: The restore cost is charged after ``build``, not before.
    cost_after_build: bool = False


def cost_of(cost: Cost, subject: Any) -> int:
    """A row's cost for one object (checkpoint) or record (restore)."""
    return cost(subject) if callable(cost) else cost


def _vmobject_build(rst: "Rst", oid: int, state: State) -> VMObject:
    obj = VMObject(rst.kernel, state["size_pages"], kind="anonymous",
                   name=state["name"])
    obj.sls_oid = oid
    rst.populate_pages(obj, oid, rst.lazy)
    return obj


def _vmobject_link(rst: "Rst", obj: VMObject, state: State) -> None:
    """Relink the persisted VM object hierarchy (§6 "Checkpointing the
    VM"): COW relationships survive the restore."""
    if state.get("backing_oid") is None:
        return
    backing = rst.objects.get(state["backing_oid"])
    if backing is None:
        raise RestoreError(f"VM object {obj.sls_oid} references missing "
                           f"backing {state['backing_oid']}")
    backing.ref()
    backing.shadow_count += 1
    obj.backing = backing


# -- memory objects, vnodes and open files --------------------------------------------------------

def _vnode_capture(ser: "Ser", vnode: Any, _kids: None) -> State:
    """An inode reference — no namei or name-cache walk (§5.2), hence
    Table 4's 1.7 µs."""
    if vnode.fs.fs_type != "slsfs" and vnode.vmobject is not None:
        # Volatile filesystems get their data embedded in the
        # checkpoint; the Aurora FS persists data itself.
        ser.txn.put_pages(ser.group.oid_map[vnode.kid],
                          vnode.vmobject.content(), vnode.vmobject)
    return {
        "inode": vnode.inode,
        "fs_type": vnode.fs.fs_type,
        "vtype": vnode.vtype,
        "size": vnode.size,
        "link_count": vnode.link_count,
    }


def _vnode_build(rst: "Rst", oid: int, state: State) -> Any:
    if state["fs_type"] == "slsfs":
        if rst.slsfs is None:
            raise RestoreError("checkpoint references the Aurora FS "
                               "but no slsfs is mounted")
        return rst.slsfs.vnode_for_restore(state["inode"], oid, state)
    # Volatile fs: recreate the vnode with embedded data.
    vnode = rst.kernel.vfs.rootfs.alloc_vnode(state["vtype"])
    vnode.link_count = state["link_count"]
    vnode.size = state["size"]
    vnode.mark_dirty()
    if vnode.vmobject is not None:
        vnode.vmobject.grow(pages_of(state["size"]))
        rst.populate_pages(vnode.vmobject, oid, lazy=False)
    return vnode


def _file_capture(_ser: "Ser", file: OpenFile, fobj_oid: int) -> State:
    return {
        "ftype": file.ftype,
        "flags": file.flags,
        "offset": file.offset,
        "sls_nosync": file.sls_nosync,
        "fobj_oid": fobj_oid,
    }


def _file_build(rst: "Rst", oid: int, state: State) -> OpenFile:
    fobj = rst.objects.get(state["fobj_oid"])
    if fobj is None:
        raise RestoreError(f"file {oid} references missing object "
                           f"{state['fobj_oid']}")
    file = OpenFile(rst.kernel, fobj, state["ftype"], state["flags"])
    file.offset = state["offset"]
    file.sls_nosync = state["sls_nosync"]
    return file


# -- pipes, kqueues, ptys, devices ---------------------------------------------------

def _pipe_capture(_ser: "Ser", pipe: Pipe, _kids: None) -> State:
    return {
        "buffer": bytes(pipe.buffer),
        "capacity": pipe.capacity,
        "read_open": pipe.read_open,
        "write_open": pipe.write_open,
    }


def _pipe_build(rst: "Rst", _oid: int, state: State) -> Pipe:
    pipe = Pipe(rst.kernel, state["capacity"])
    pipe.buffer = bytearray(state["buffer"])
    pipe.read_open = state["read_open"]
    pipe.write_open = state["write_open"]
    return pipe


_KNOTE = ("ident", "filter", "flags", "fflags", "data", "udata")


def _kqueue_capture(_ser: "Ser", kq: KQueue, _kids: None) -> State:
    return {"events": [{field: getattr(e, field) for field in _KNOTE}
                       for e in kq.events()]}


def _kqueue_build(rst: "Rst", _oid: int, state: State) -> KQueue:
    kq = KQueue(rst.kernel)
    for e in state["events"]:
        kq.register(KEvent(*(e[field] for field in _KNOTE)))
    return kq


def _pty_capture(_ser: "Ser", pty: Pty, _kids: None) -> State:
    return {
        "unit": pty.unit,
        "termios": dict(pty.termios),
        "to_slave": bytes(pty._to_slave),
        "to_master": bytes(pty._to_master),
    }


def _pty_build(rst: "Rst", _oid: int, state: State) -> Pty:
    kernel = rst.kernel
    pty = Pty(kernel, kernel._next_pty_unit)    # not the captured unit
    kernel._next_pty_unit += 1
    pty.termios = dict(state["termios"])
    pty._to_slave = bytearray(state["to_slave"])
    pty._to_master = bytearray(state["to_master"])
    return pty


def _device_capture(_ser: "Ser", device: DeviceFile, _kids: None) -> State:
    if device.name not in DEVICE_WHITELIST:
        raise PermissionDenied(f"device {device.name!r} cannot be persisted")
    return {"name": device.name}


# -- sockets and shared memory ----------------------------------------------------

def _unix_inflight(ser: "Ser", sock: UnixSocket) -> List[State]:
    """The buffer is *parsed* for control messages so every in-flight
    descriptor is chased and persisted (§5.3) — for a clean socket too:
    an in-flight file is live (and possibly dirty) either way."""
    messages = []
    for message in sock.buffer:
        entry: State = {"data": message.data, "file_oids": [], "creds": None}
        if message.control is not None:
            entry["file_oids"] = [ser.serialize_file(f)
                                  for f in message.control.files]
            if message.control.creds is not None:
                entry["creds"] = list(message.control.creds)
        messages.append(entry)
    return messages


def _unix_capture(ser: "Ser", sock: UnixSocket, messages: List[State]) -> State:
    peer_oid = None
    if sock.peer is not None:
        peer_oid = ser.group.oid_map.get(sock.peer.kid)
        if peer_oid is None:
            peer_oid = ser._oid(sock.peer)
    return {
        "sock_type": sock.sock_type,
        "address": sock.address,
        "listening": sock.listening,
        "messages": messages,
        "peer_oid": peer_oid,
        "options": dict(sock.options),
    }


def _unix_build(rst: "Rst", _oid: int, state: State) -> UnixSocket:
    sock = UnixSocket(rst.kernel, state["sock_type"])
    sock.options = dict(state["options"])
    if state["address"] is not None:
        sock.bind(state["address"])
    if state["listening"]:
        sock.listen()
    return sock


def _unix_link(rst: "Rst", sock: UnixSocket, state: State) -> None:
    peer = rst.objects.get(state["peer_oid"])
    if isinstance(peer, UnixSocket):
        sock.peer = peer
    for message in state["messages"]:
        control = None
        if message["file_oids"] or message["creds"]:
            files = [rst.objects[foid].ref() for foid in message["file_oids"]]
            creds = tuple(message["creds"]) if message["creds"] else None
            control = ControlMessage(files, creds)
        sock.buffer.append(Message(message["data"], control))
        sock.buffer_bytes += len(message["data"])


def _udp_capture(_ser: "Ser", sock: UDPSocket, _kids: None) -> State:
    return {
        "laddr": sock.laddr,
        "lport": sock.lport,
        "options": dict(sock.options),
        "datagrams": [{"source": list(d.source), "payload": d.payload}
                      for d in sock.rcvqueue],
    }


def _udp_build(rst: "Rst", _oid: int, state: State) -> UDPSocket:
    udp = UDPSocket(rst.kernel)
    udp.options = dict(state["options"])
    if state["lport"] is not None:
        udp.bind(state["laddr"], state["lport"])
    for dgram in state["datagrams"]:
        udp.enqueue(tuple(dgram["source"]), dgram["payload"])
    return udp


def _tcp_capture(ser: "Ser", sock: TCPSocket, _kids: None) -> State:
    """5-tuple, sequence numbers, options and buffers; the accept
    queue is deliberately omitted — pending clients see a dropped SYN
    and retry (§5.3)."""
    peer = sock.peer
    return {
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
        "peer_oid": (ser.group.oid_map.get(peer.kid)
                     if peer is not None else None),
    }


def _tcp_build(rst: "Rst", _oid: int, state: State) -> TCPSocket:
    sock = TCPSocket(rst.kernel)
    sock.options = dict(state["options"])
    sock.snd_nxt = state["snd_nxt"]
    sock.rcv_nxt = state["rcv_nxt"]
    sock.sndbuf.restore(state["sndbuf"])
    sock.rcvbuf.restore(state["rcvbuf"])
    if state["state"] == TCP_LISTEN:
        sock.bind(state["laddr"], state["lport"])
        sock.listen()
    elif state["state"] == TCP_ESTABLISHED:
        sock.state = TCP_ESTABLISHED
        sock.laddr, sock.lport = state["laddr"], state["lport"]
        sock.raddr, sock.rport = state["raddr"], state["rport"]
    return sock


def _tcp_link(rst: "Rst", sock: TCPSocket, state: State) -> None:
    peer = rst.objects.get(state.get("peer_oid"))
    if state["state"] == TCP_ESTABLISHED and isinstance(peer, TCPSocket):
        sock.peer = peer


def _shm_backing(ser: "Ser", segment: SharedMemorySegment) -> Optional[int]:
    """The backing object stays live with its segment; None until the
    group maps it (or the first capture gives it an OID)."""
    vm_oid = segment.vmobject.sls_oid
    if vm_oid is not None:
        ser.live_oids.add(vm_oid)
    return vm_oid


def _shm_ckpt_cost(segment: SharedMemorySegment) -> int:
    """POSIX shm is direct; SysV requires scanning the global namespace
    table (Table 4: 14.9 µs vs 4.5 µs)."""
    if segment.flavor == "sysv":
        return (costs.CKPT_SHM_SYSV_BASE + segment.kernel.sysv_shm.nslots *
                costs.CKPT_SHM_SYSV_SCAN_PER_SLOT)
    return costs.CKPT_SHM_POSIX


def _shm_capture(ser: "Ser", segment: SharedMemorySegment,
                 vm_oid: Optional[int]) -> State:
    if vm_oid is None:      # never mapped by the group: _shm_unmapped
        vm_oid = ser._oid(segment.vmobject, CLASS_MEMORY)
    return {
        "name": segment.name,
        "size": segment.size,
        "flavor": segment.flavor,
        "key": getattr(segment, "key", None),
        "vm_oid": vm_oid,
    }


def _shm_unmapped(ser: "Ser", segment: SharedMemorySegment, _oid: int) -> None:
    """Held open but never mapped: the content is persisted directly
    under a memory OID, behind the segment's record."""
    obj = segment.vmobject
    if obj.sls_oid is None:
        obj.sls_oid = ser.group.oid_map[obj.kid]
        ser._put(obj.sls_oid, "vmobject", object_record(obj))
        ser.txn.put_pages(obj.sls_oid, obj.content(), obj)


def _shm_build(rst: "Rst", _oid: int, state: State) -> SharedMemorySegment:
    kernel = rst.kernel
    segment: Any = SharedMemorySegment(kernel, state["name"], state["size"],
                                       state["flavor"])
    vm_obj = rst.objects.get(state["vm_oid"])
    if vm_obj is not None:
        segment.replace_object(vm_obj)
    if state["flavor"] == "posix":
        kernel.posix_shm._segments[state["name"]] = segment
    elif state["key"] is not None:
        registry = kernel.sysv_shm
        segment.shmid = registry._next_id
        registry._next_id += 1
        segment.key = state["key"]
        registry._by_key[segment.key] = segment.shmid
        registry._slots[segment.shmid] = segment
    return segment


# -- processes (threads, map entries, fd-table install) and the group ------------------------------

def _entry_capture(ser: "Ser", entry: Any) -> State:
    """One vm_map_entry: range, protection, object reference."""
    obj = entry.vmobject
    segment = ser.kernel.shm_backmap.get(obj.kid)
    if segment is not None:
        # A mapped shared-memory segment is a first-class object even
        # when no descriptor references it (shmat, the fd long closed).
        ser.serialize_object(segment)
    # Mapped devices (HPET, vDSO) are recreated from the restore-time
    # machine, not persisted (§5.3).
    vm_oid = None if obj.kind == "device" else obj.sls_oid
    if vm_oid is not None:
        ser.live_oids.add(vm_oid)
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


def _proc_capture(ser: "Ser", proc: Process, _kids: None) -> State:
    clock = ser.kernel.clock
    threads = []
    for thread in proc.threads:
        clock.advance(costs.CKPT_THREAD)
        threads.append({
            "local_tid": thread.local_tid,
            "cpu": thread.cpu_state.snapshot(),
            "signals": thread.signals.snapshot(),
            "priority": thread.sched_priority,
            "syscall_restarted": thread.syscall_restarted,
        })
    entries = []
    for entry in proc.vmspace.map:
        clock.advance(costs.CKPT_VMENTRY)
        entries.append(_entry_capture(ser, entry))
    parent = proc.parent
    return {
        "local_pid": proc.local_pid,
        "name": proc.name,
        "parent_local_pid": (parent.local_pid if parent is not None and
                             parent.sls_group is ser.group else None),
        "pgid": proc.pgroup.pgid,
        "sid": proc.pgroup.session.sid,
        "cwd": proc.cwd,
        "threads": threads,
        "entries": entries,
        "fdtable_oid": ser.serialize_fdtable(proc.fdtable),
    }


def _proc_build(rst: "Rst", oid: int, state: State) -> Process:
    kernel, group = rst.kernel, rst.group
    local_pid = state["local_pid"]
    if kernel.pid_alloc.reserve(local_pid):
        global_pid = local_pid
    else:
        global_pid = kernel.pid_alloc.allocate()
        group.idmap.bind(local_pid, global_pid)
    sid, pgid = state["sid"], state["pgid"]
    if sid not in rst.sessions:
        rst.sessions[sid] = Session(kernel, sid)
    if pgid not in rst.pgroups:
        rst.pgroups[pgid] = ProcessGroup(kernel, pgid, rst.sessions[sid])
    proc = Process(kernel, global_pid, name=state["name"],
                   parent=rst.by_local_pid.get(state["parent_local_pid"]),
                   pgroup=rst.pgroups[pgid])
    proc.local_pid = local_pid
    proc.cwd = state["cwd"]
    for rec in state["entries"]:
        _entry_build(rst, proc, rec)
    otype, table = rst.decoded[state["fdtable_oid"]]
    if otype != "fdtable":
        raise RestoreError(f"{state['fdtable_oid']} is not an fd table")
    for fd_str, file_oid in table["fds"].items():
        file = rst.objects.get(file_oid)
        if not isinstance(file, OpenFile):
            raise RestoreError(f"fd {fd_str} references non-file {file_oid}")
        kernel.clock.advance(costs.RESTORE_FILE_DESC)
        proc.fdtable.install(file, fd=int(fd_str))
    for index, record in enumerate(state["threads"]):
        kernel.clock.advance(costs.RESTORE_THREAD)
        thread = proc.threads[0] if index == 0 else proc.add_thread()
        local_tid = record["local_tid"]
        if thread.tid != local_tid:
            if kernel.tid_alloc.reserve(local_tid):
                kernel.tid_alloc.release(thread.tid)
                thread.tid = local_tid
            else:
                group.idmap.bind(local_tid, thread.tid)
        thread.local_tid = local_tid
        thread.cpu_state.restore(record["cpu"])
        thread.signals.restore(record["signals"])
        thread.sched_priority = record["priority"]
        thread.syscall_restarted = record["syscall_restarted"]
    group.add_process(proc)
    kernel.register_process(proc)
    group.oid_map[proc.kid] = oid
    rst.by_local_pid[local_pid] = proc
    return proc


def _entry_build(rst: "Rst", proc: Process, rec: State) -> None:
    device = None
    if rec["name"] == "vdso":
        obj = rst.kernel.vdso.vmobject      # the *current* boot's (§5.3)
    elif rec["kind"] == "device":
        device = DeviceFile(rst.kernel, "hpet")
        obj = device.vmobject
    else:
        obj = rst.objects.get(rec["vm_oid"])
        if obj is None:
            raise RestoreError("entry references missing VM object "
                               f"{rec['vm_oid']}")
    proc.vmspace.mmap(rec["npages"] * PAGE_SIZE,
                      protection=rec["protection"],
                      inheritance=rec["inheritance"], vmobject=obj,
                      fixed_page=rec["start_page"], name=rec["name"])
    if device is not None:
        device.unref()
    elif rec["name"] != "vdso":
        entry = proc.vmspace.map.lookup(rec["start_page"])
        assert entry is not None    # mapped just above
        entry.needs_copy = rec["needs_copy"]
        entry.sls_excluded = rec["sls_excluded"]


def _group_capture(ser: "Ser", group: ConsistencyGroup,
                   member_oids: List[int]) -> State:
    """Always dirty: member lists and aio state are recomputed every
    checkpoint."""
    return {
        "group_id": group.group_id,
        "name": group.name,
        "period_ns": group.period_ns,
        "external_synchrony": group.external_synchrony,
        "member_oids": member_oids,
        "ephemeral_pids": [
            {"local_pid": p.local_pid,
             "parent_local_pid": (p.parent.local_pid
                                  if p.parent is not None and
                                  p.parent.sls_group is group else None)}
            for p in group.processes if p.sls_ephemeral],
        # In-flight asynchronous IO (§5.3): pending reads are recorded
        # for reissue at restore; pending writes gate the checkpoint's
        # completion (the orchestrator waits on the barrier); failures
        # are recorded as-is.
        "aio": ser.kernel.aio.quiesce(),
    }


# -- the table ---------------------------------------------------------------------------

_PIPE = ObjectType("pipe", _pipe_capture, _pipe_build, costs.CKPT_PIPE,
                   costs.RESTORE_PIPE, phase=SHELL, per_file=True)
#: Table 4 has one "sockets" line for the three families.
_SOCKET = (costs.CKPT_SOCKET, costs.RESTORE_SOCKET)

OBJECT_TYPES: Dict[str, ObjectType] = {row.otype: row for row in (
    # Written by ``serialize_all`` under ``group.desc_oid``, read first.
    ObjectType("group", _group_capture, lambda rst, oid, desc: ConsistencyGroup(
        desc["group_id"], name=desc["name"], period_ns=desc["period_ns"],
        external_synchrony=desc["external_synchrony"]), oid_class=CLASS_GROUP),
    # Hand-written (module docstring).  Thread and map-entry terms are
    # charged as each is captured or rebuilt; fd-table slots charge
    # ``CKPT_FILE_DESC`` in the walk and ``RESTORE_FILE_DESC`` at install.
    ObjectType("proc", _proc_capture, _proc_build,
               costs.CKPT_PROC_BASE, costs.RESTORE_PROC_BASE),
    ObjectType("fdtable", lambda ser, table, fds: {"fds": fds},
               lambda rst, oid, state: None),   # installed by its process
    ObjectType("file", _file_capture, _file_build, phase=FILE, quiet=True,
               children=lambda ser, file: ser.serialize_object(file.fobj)),
    ObjectType("vnode", _vnode_capture, _vnode_build, costs.CKPT_VNODE,
               costs.RESTORE_VNODE, CLASS_FILE, SHELL, quiet=True),
    # Captured and charged by the shadow pass, this type's visit.
    ObjectType("vmobject", lambda ser, top, kids: object_record(top),
               _vmobject_build, costs.CKPT_VMOBJECT, costs.RESTORE_VMOBJECT,
               CLASS_MEMORY, SHELL, _vmobject_link, ignored=("kind",),
               cost_after_build=True),
    _PIPE,
    # Each knote is locked and serialized (Table 4: 35.2 µs for 1024).
    ObjectType("kqueue", _kqueue_capture, _kqueue_build,
               lambda kq: (costs.CKPT_KQUEUE_BASE +
                           len(kq) * costs.CKPT_KEVENT_EACH),
               costs.RESTORE_KQUEUE, phase=SHELL, per_file=True),
    # Recreating the devfs node takes device locks (Table 4: 30.2 µs).
    ObjectType("pty", _pty_capture, _pty_build, costs.CKPT_PTY,
               costs.RESTORE_PTY, phase=SHELL, ignored=("unit",),
               per_file=True),
    # No Table 4 line: a whitelisted name, charged as a pipe's trivial
    # record and recreated from the restore-time machine for nothing.
    ObjectType("device", _device_capture,
               lambda rst, oid, state: DeviceFile(rst.kernel, state["name"]),
               _PIPE.ckpt_cost, 0, phase=SHELL, per_file=True),
    ObjectType("unixsock", _unix_capture, _unix_build, *_SOCKET, phase=SHELL,
               link=_unix_link, children=_unix_inflight),
    ObjectType("udpsock", _udp_capture, _udp_build, *_SOCKET, phase=SHELL,
               per_file=True),
    ObjectType("tcpsock", _tcp_capture, _tcp_build, *_SOCKET, phase=SHELL,
               link=_tcp_link, ignored=("dropped_accepts",), per_file=True),
    ObjectType("shm", _shm_capture, _shm_build, _shm_ckpt_cost,
               lambda state: (costs.RESTORE_SHM_SYSV
                              if state["flavor"] == "sysv"
                              else costs.RESTORE_SHM_POSIX),
               phase=SEGMENT, children=_shm_backing, after=_shm_unmapped),
)}
