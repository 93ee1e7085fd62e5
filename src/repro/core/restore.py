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

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import RestoreError
from ..hw.memory import Page
from ..kernel.fs.file import OpenFile
from ..kernel.ipc.devfs import DeviceFile
from ..kernel.ipc.kqueue import KEvent, KQueue
from ..kernel.ipc.pipe import Pipe
from ..kernel.ipc.pty import Pty
from ..kernel.ipc.shm import SharedMemorySegment
from ..kernel.ipc.unixsock import ControlMessage, Message, UnixSocket
from ..kernel.net.tcp import TCPSocket, TCP_ESTABLISHED, TCP_LISTEN
from ..kernel.net.udp import UDPSocket
from ..kernel.proc.process import Process
from ..kernel.proc.session import ProcessGroup, Session
from ..kernel.proc.signals import SIGCHLD, SIGSLSRESTORE
from ..kernel.vm.vmobject import VMObject
from ..objstore.checkpoint import NO_PAGES, PageRuns, run_locators
from ..objstore.oid import CLASS_MEMORY, oid_class
from ..units import PAGE_SIZE, pages_of
from . import costs, events, telemetry, tracing
from .group import ConsistencyGroup, ObjectTrack

if TYPE_CHECKING:
    from ..objstore.store import ObjectStore

#: Decoded object records of a merged view: oid -> (type, state).
Decoded = Dict[int, Tuple[str, Any]]


class RestoreResult:
    """What a restore produced, with its timing breakdown."""

    def __init__(self, group: ConsistencyGroup, processes: List[Process],
                 ckpt_id: int, lazy: bool, elapsed_ns: int,
                 pages_restored: int, pages_lazy: int,
                 io_ns: int = 0, insert_ns: int = 0) -> None:
        self.group = group
        self.processes = processes
        self.ckpt_id = ckpt_id
        self.lazy = lazy
        self.elapsed_ns = elapsed_ns
        self.pages_restored = pages_restored
        self.pages_lazy = pages_lazy
        #: Device time reading records/pages, and page-insert time —
        #: elapsed minus both is the OS-state-only cost.
        self.io_ns = io_ns
        self.insert_ns = insert_ns

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
        self.objects: Dict[int, Any] = {}
        self.pages_restored = 0
        self.pages_lazy = 0
        #: Time spent reading records/pages from the store (device IO)
        #: and inserting pages — subtracting both from the elapsed time
        #: gives the OS-state-only cost (Table 6's "Mem" restore row).
        self.io_ns = 0
        self.insert_ns = 0

    # -- entry point ----------------------------------------------------------------

    def restore(self, ckpt_id: int, lazy: bool = False) -> RestoreResult:
        """Recreate the group from ``ckpt_id``; returns the result."""
        with tracing.trace(self.kernel.clock, tracing.RESTORE,
                           ckpt=ckpt_id) as trace_obj:
            result = self._restore_traced(ckpt_id, lazy, trace_obj)
            if trace_obj is not None:
                trace_obj.complete = True
            events.emit(self.kernel.clock.now(), events.RESTORE_DONE,
                        group=result.group.group_id, ckpt=ckpt_id,
                        lazy=lazy, pages_eager=result.pages_restored,
                        pages_lazy=result.pages_lazy)
        return result

    def _restore_traced(self, ckpt_id: int, lazy: bool,
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

        descriptor = None
        for oid, (otype, state) in decoded.items():
            if otype == "group":
                descriptor = (oid, state)
        if descriptor is None:
            raise RestoreError(f"checkpoint {ckpt_id} has no group record")
        desc_oid, desc = descriptor

        group = ConsistencyGroup(desc["group_id"], name=desc["name"],
                                 period_ns=desc["period_ns"],
                                 external_synchrony=desc["external_synchrony"])
        group.desc_oid = desc_oid
        group.last_ckpt_id = ckpt_id
        group.last_complete_id = ckpt_id
        if trace_obj is not None:
            trace_obj.labels["group"] = group.group_id

        with registry.span(clock, "restore.build", group=group.group_id):
            self._create_shells(decoded, page_locs, lazy)
            self._link_backings(decoded)
            self._create_files(decoded)
            self._link_sockets(decoded)
            processes = self._create_processes(decoded, desc, group)
            self._register_tracks(decoded, group)
            self._reissue_aio(desc)
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

    # -- phase A: object shells --------------------------------------------------------

    def _create_shells(self, decoded: Decoded,
                       page_locs: Dict[int, PageRuns], lazy: bool) -> None:
        kernel = self.kernel
        for oid, (otype, state) in decoded.items():
            if otype == "vmobject":
                obj = VMObject(kernel, state["size_pages"],
                               kind="anonymous", name=state["name"])
                obj.sls_oid = oid
                self._populate_pages(obj, page_locs.get(oid, NO_PAGES), lazy)
                kernel.clock.advance(costs.RESTORE_VMOBJECT)
                self.objects[oid] = obj
            elif otype == "vnode":
                self.objects[oid] = self._restore_vnode(oid, state,
                                                        page_locs)
            elif otype == "pipe":
                kernel.clock.advance(costs.RESTORE_PIPE)
                pipe = Pipe(kernel, state["capacity"])
                pipe.buffer = bytearray(state["buffer"])
                pipe.read_open = state["read_open"]
                pipe.write_open = state["write_open"]
                self.objects[oid] = pipe
            elif otype == "unixsock":
                kernel.clock.advance(costs.RESTORE_SOCKET)
                sock = UnixSocket(kernel, state["sock_type"])
                sock.options = dict(state["options"])
                if state["address"] is not None:
                    sock.bind(state["address"])
                if state["listening"]:
                    sock.listen()
                self.objects[oid] = sock
            elif otype == "udpsock":
                kernel.clock.advance(costs.RESTORE_SOCKET)
                udp = UDPSocket(kernel)
                udp.options = dict(state["options"])
                if state["lport"] is not None:
                    udp.bind(state["laddr"], state["lport"])
                for dgram in state["datagrams"]:
                    udp.enqueue(tuple(dgram["source"]), dgram["payload"])
                self.objects[oid] = udp
            elif otype == "tcpsock":
                kernel.clock.advance(costs.RESTORE_SOCKET)
                self.objects[oid] = self._restore_tcp(state)
            elif otype == "kqueue":
                kernel.clock.advance(costs.RESTORE_KQUEUE)
                kq = KQueue(kernel)
                for e in state["events"]:
                    kq.register(KEvent(e["ident"], e["filter"], e["flags"],
                                       e["fflags"], e["data"], e["udata"]))
                self.objects[oid] = kq
            elif otype == "pty":
                # Recreating the devfs node takes device locks — the
                # reason Table 4's pty restore costs 30.2 us.
                kernel.clock.advance(costs.RESTORE_PTY)
                pty = Pty(kernel, kernel._next_pty_unit)
                kernel._next_pty_unit += 1
                pty.termios = dict(state["termios"])
                pty._to_slave = bytearray(state["to_slave"])
                pty._to_master = bytearray(state["to_master"])
                self.objects[oid] = pty
            elif otype == "device":
                self.objects[oid] = DeviceFile(kernel, state["name"])

        # Shm segments need their vm objects first.
        for oid, (otype, state) in decoded.items():
            if otype != "shm":
                continue
            self.kernel.clock.advance(
                costs.RESTORE_SHM_SYSV if state["flavor"] == "sysv"
                else costs.RESTORE_SHM_POSIX)
            segment: Any = SharedMemorySegment(self.kernel, state["name"],
                                               state["size"], state["flavor"])
            vm_obj = self.objects.get(state["vm_oid"])
            if vm_obj is not None:
                segment.replace_object(vm_obj)
            if state["flavor"] == "posix":
                self.kernel.posix_shm._segments[state["name"]] = segment
            elif state["key"] is not None:
                registry = self.kernel.sysv_shm
                shmid = registry._next_id
                registry._next_id += 1
                segment.shmid = shmid
                segment.key = state["key"]
                registry._by_key[state["key"]] = shmid
                registry._slots[shmid] = segment
            self.objects[oid] = segment

    def _populate_pages(self, obj: VMObject, locators: PageRuns,
                        lazy: bool) -> None:
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

    def _link_backings(self, decoded: Decoded) -> None:
        """Relink the persisted VM object hierarchy (§6 "Checkpointing
        the VM"): COW relationships survive the restore."""
        for oid, (otype, state) in decoded.items():
            if otype != "vmobject" or state.get("backing_oid") is None:
                continue
            obj = self.objects[oid]
            backing = self.objects.get(state["backing_oid"])
            if backing is None:
                raise RestoreError(
                    f"VM object {oid} references missing backing "
                    f"{state['backing_oid']}")
            backing.ref()
            backing.shadow_count += 1
            obj.backing = backing

    def _restore_vnode(self, oid: int, state: Dict[str, Any],
                       page_locs: Dict[int, PageRuns]) -> Any:
        if state["fs_type"] == "slsfs":
            if self.slsfs is None:
                raise RestoreError("checkpoint references the Aurora FS "
                                   "but no slsfs is mounted")
            self.kernel.clock.advance(costs.RESTORE_VNODE)
            return self.slsfs.vnode_for_restore(state["inode"], oid, state)
        # Volatile fs: recreate the vnode with embedded data.
        self.kernel.clock.advance(costs.RESTORE_VNODE)
        rootfs = self.kernel.vfs.rootfs
        vnode = rootfs.alloc_vnode(state["vtype"])
        vnode.link_count = state["link_count"]
        vnode.size = state["size"]
        vnode.mark_dirty()
        if vnode.vmobject is not None:
            vnode.vmobject.grow(pages_of(state["size"]))
            self._populate_pages(vnode.vmobject,
                                 page_locs.get(oid, NO_PAGES), lazy=False)
        return vnode

    def _restore_tcp(self, state: dict) -> TCPSocket:
        sock = TCPSocket(self.kernel)
        sock.options = dict(state["options"])
        sock.snd_nxt = state["snd_nxt"]
        sock.rcv_nxt = state["rcv_nxt"]
        sock.sndbuf.restore(state["sndbuf"])
        sock.rcvbuf.restore(state["rcvbuf"])
        if state["state"] == TCP_LISTEN:
            sock.bind(state["laddr"], state["lport"])
            sock.listen()
            # Accept queue intentionally NOT restored (§5.3): pending
            # clients look like a dropped SYN and will retry.
        elif state["state"] == TCP_ESTABLISHED:
            sock.state = TCP_ESTABLISHED
            sock.laddr, sock.lport = state["laddr"], state["lport"]
            sock.raddr, sock.rport = state["raddr"], state["rport"]
        return sock

    # -- phase B: open files ----------------------------------------------------------------

    def _create_files(self, decoded: Decoded) -> None:
        for oid, (otype, state) in decoded.items():
            if otype != "file":
                continue
            fobj = self.objects.get(state["fobj_oid"])
            if fobj is None:
                raise RestoreError(
                    f"file {oid} references missing object "
                    f"{state['fobj_oid']}")
            file = OpenFile(self.kernel, fobj, state["ftype"],
                            state["flags"])
            file.offset = state["offset"]
            file.sls_nosync = state["sls_nosync"]
            self.objects[oid] = file

    # -- phase C: socket linking ----------------------------------------------------------------

    def _link_sockets(self, decoded: Decoded) -> None:
        for oid, (otype, state) in decoded.items():
            obj = self.objects.get(oid)
            if otype == "unixsock":
                peer = self.objects.get(state["peer_oid"]) \
                    if state["peer_oid"] is not None else None
                if isinstance(peer, UnixSocket):
                    obj.peer = peer
                for message in state["messages"]:
                    control = None
                    if message["file_oids"] or message["creds"]:
                        files = [self.objects[foid]
                                 for foid in message["file_oids"]]
                        for file in files:
                            file.ref()
                        creds = tuple(message["creds"]) \
                            if message["creds"] else None
                        control = ControlMessage(files=[], creds=creds)
                        control.files = files
                    obj.buffer.append(Message(message["data"], control))
                    obj.buffer_bytes += len(message["data"])
            elif otype == "tcpsock" and state["state"] == TCP_ESTABLISHED:
                peer_oid = state.get("peer_oid")
                if peer_oid is not None:
                    peer = self.objects.get(peer_oid)
                    if isinstance(peer, TCPSocket):
                        obj.peer = peer

    # -- phase D: processes -------------------------------------------------------------------------

    def _create_processes(self, decoded: Decoded, desc: Dict[str, Any],
                          group: ConsistencyGroup) -> List[Process]:
        kernel = self.kernel
        # The descriptor written at this checkpoint is authoritative:
        # records of members that exited earlier still sit in the
        # merged view (incremental deltas never erase), but they must
        # not come back to life.
        members = set(desc.get("member_oids", []))
        proc_records = [(oid, state) for oid, (otype, state)
                        in decoded.items()
                        if otype == "proc" and oid in members]
        # Parents before children.
        by_pid = {state["local_pid"]: (oid, state)
                  for oid, state in proc_records}
        ordered: List[Tuple[int, dict]] = []
        seen = set()

        def place(pid: int) -> None:
            if pid in seen or pid not in by_pid:
                return
            seen.add(pid)
            _oid, state = by_pid[pid]
            parent = state["parent_local_pid"]
            if parent is not None:
                place(parent)
            ordered.append(by_pid[pid])

        for pid in sorted(by_pid):
            place(pid)

        sessions: Dict[int, Session] = {}
        pgroups: Dict[int, ProcessGroup] = {}
        restored: Dict[int, Process] = {}
        processes: List[Process] = []
        for oid, state in ordered:
            kernel.clock.advance(costs.RESTORE_PROC_BASE)
            local_pid = state["local_pid"]
            if kernel.pid_alloc.reserve(local_pid):
                global_pid = local_pid
            else:
                global_pid = kernel.pid_alloc.allocate()
                group.idmap.bind(local_pid, global_pid)

            sid = state["sid"]
            if sid not in sessions:
                sessions[sid] = Session(kernel, sid)
            pgid = state["pgid"]
            if pgid not in pgroups:
                pgroups[pgid] = ProcessGroup(kernel, pgid, sessions[sid])

            parent = restored.get(state["parent_local_pid"]) \
                if state["parent_local_pid"] is not None else None
            proc = Process(kernel, global_pid, name=state["name"],
                           parent=parent, pgroup=pgroups[pgid])
            proc.local_pid = local_pid
            proc.cwd = state["cwd"]
            self._restore_vmspace(proc, state["entries"])
            self._restore_fdtable(proc, decoded, state["fdtable_oid"])
            self._restore_threads(proc, state["threads"], group)
            group.add_process(proc)
            kernel.register_process(proc)
            group.oid_map[proc.kid] = oid
            restored[local_pid] = proc
            processes.append(proc)
        if not processes:
            raise RestoreError("checkpoint contains no processes")
        return processes

    def _restore_vmspace(self, proc: Process, entries: List[dict]) -> None:
        for entry_rec in entries:
            if entry_rec["name"] == "vdso" or entry_rec["kind"] == "device":
                if entry_rec["name"] == "vdso":
                    # Inject the *current* boot's vDSO (§5.3).
                    proc.vmspace.mmap(
                        entry_rec["npages"] * PAGE_SIZE,
                        protection=entry_rec["protection"],
                        inheritance=entry_rec["inheritance"],
                        vmobject=self.kernel.vdso.vmobject,
                        fixed_page=entry_rec["start_page"], name="vdso")
                else:
                    device = DeviceFile(self.kernel, "hpet")
                    proc.vmspace.mmap(
                        entry_rec["npages"] * PAGE_SIZE,
                        protection=entry_rec["protection"],
                        inheritance=entry_rec["inheritance"],
                        vmobject=device.vmobject,
                        fixed_page=entry_rec["start_page"],
                        name=entry_rec["name"])
                    device.unref()
                continue
            vm_oid = entry_rec["vm_oid"]
            obj = self.objects.get(vm_oid)
            if obj is None:
                raise RestoreError(f"entry references missing VM object "
                                   f"{vm_oid}")
            proc.vmspace.mmap(entry_rec["npages"] * PAGE_SIZE,
                              protection=entry_rec["protection"],
                              inheritance=entry_rec["inheritance"],
                              vmobject=obj,
                              fixed_page=entry_rec["start_page"],
                              name=entry_rec["name"])
            entry = proc.vmspace.map.lookup(entry_rec["start_page"])
            assert entry is not None    # mapped just above
            entry.needs_copy = entry_rec["needs_copy"]
            entry.sls_excluded = entry_rec["sls_excluded"]

    def _restore_fdtable(self, proc: Process, decoded: Decoded,
                         fdtable_oid: int) -> None:
        otype, state = decoded[fdtable_oid]
        if otype != "fdtable":
            raise RestoreError(f"{fdtable_oid} is not an fd table")
        for fd_str, file_oid in state["fds"].items():
            file = self.objects.get(file_oid)
            if not isinstance(file, OpenFile):
                raise RestoreError(f"fd {fd_str} references non-file "
                                   f"{file_oid}")
            self.kernel.clock.advance(costs.RESTORE_FILE_DESC)
            proc.fdtable.install(file, fd=int(fd_str))

    def _restore_threads(self, proc: Process, thread_records: List[dict],
                         group: ConsistencyGroup) -> None:
        kernel = self.kernel
        for index, record in enumerate(thread_records):
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

    # -- phase E: shadow tracks --------------------------------------------------------------------

    def _register_tracks(self, decoded: Decoded,
                         group: ConsistencyGroup) -> None:
        """Re-arm system shadowing so the next checkpoint flushes only
        post-restore dirt: each restored object gets a fresh shadow."""
        by_object = [proc.vmspace.entries_by_object()
                     for proc in group.processes]
        for oid, obj in self.objects.items():
            if not isinstance(obj, VMObject):
                continue
            if oid_class(oid) != CLASS_MEMORY:
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

    # -- phase F: signals ------------------------------------------------------------------------------

    def _reissue_aio(self, desc: Dict[str, Any]) -> int:
        """Pending reads recorded at checkpoint time are reissued so
        the application finds them completed as expected (§5.3)."""
        from ..kernel.aio import AIO_READ

        reissued = 0
        for read in desc.get("aio", {}).get("reads", []):
            self.kernel.aio.submit(AIO_READ, None, read["offset"],
                                   read["length"])
            reissued += 1
        return reissued

    def _post_restore_signals(self, desc: Dict[str, Any],
                              processes: List[Process]) -> None:
        by_local = {p.local_pid: p for p in processes}
        for entry in desc.get("ephemeral_pids", []):
            parent = by_local.get(entry.get("parent_local_pid"))
            if parent is not None:
                # The ephemeral child is gone; to the parent it looks
                # like the child exited (§3).
                parent.post_signal(SIGCHLD)
        for proc in processes:
            proc.post_signal(SIGSLSRESTORE)
