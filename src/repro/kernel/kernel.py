"""The kernel facade: boots the subsystems, exposes the syscall API.

A :class:`Kernel` is one boot of a :class:`~repro.machine.Machine`.
It owns every volatile structure — processes, address spaces, fd
tables, socket namespaces — all of which vanish on
:meth:`~repro.machine.Machine.crash`.  Only the simulated NVMe array
(and therefore the Aurora object store) survives across boots, which
is the entire point of the single level store.

The syscall-style methods (``open``, ``pipe``, ``shm_open``...) take
the calling :class:`~repro.kernel.proc.process.Process` first, return
what the real call returns, raise :class:`~repro.errors.KernelError`
subclasses for failures, and charge the fixed syscall crossing cost.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core import costs
from ..errors import BadFileDescriptor, InvalidArgument, MachineCrashed
from ..units import PAGE_SIZE, pages_of
from .aio import AIOQueue
from .fs.file import (OpenFile, O_APPEND, O_CREAT, O_RDONLY, O_RDWR, O_TRUNC,
                      O_WRONLY, DTYPE_DEVICE, DTYPE_KQUEUE, DTYPE_PIPE,
                      DTYPE_PTS, DTYPE_SHM, DTYPE_SOCKET, DTYPE_VNODE)
from .fs.filesystem import Filesystem, MemFS
from .fs.vfs import VFS
from .ipc.devfs import DeviceFile, VDSO
from .ipc.kqueue import KQueue
from .ipc.pipe import Pipe
from .ipc.pty import Pty
from .ipc.shm import PosixShmRegistry, SysVShmRegistry
from .ipc.unixsock import UnixSocket
from .kobject import KIDAllocator
from .net.tcp import TCPSocket
from .net.udp import UDPSocket
from .proc.pid import PIDAllocator
from .proc.process import Process
from .swap import PageoutDaemon
from .vm.vmmap import INHERIT_SHARE, PROT_READ
from ..hw.cpu import CPUSet
from ..hw.memory import PhysicalMemory


class Kernel:
    """One booted kernel instance."""

    def __init__(self, machine, rootfs: Optional[Filesystem] = None,
                 boot_id: int = 1):
        self.machine = machine
        self.clock = machine.clock
        self.loop = machine.loop
        self.boot_id = boot_id
        self.rng = random.Random(0xA0207A + boot_id)
        self.crashed = False

        #: Global mutation epoch for incremental checkpoints (§6).
        #: Every mutating kernel path stamps the touched object via
        #: :meth:`~repro.kernel.kobject.KObject.mark_dirty`; the
        #: serializer skips objects at or below a group's checkpoint
        #: floor.  Set before any KObject exists so creation stamps
        #: are well defined.
        self.dirty_epoch = 1

        # Hardware views.
        self.physmem = PhysicalMemory(machine.ram_bytes)
        self.cpus = CPUSet(self.clock, machine.ncpus)
        self.storage = machine.storage

        # Object identity and ID allocation.
        self._kids = KIDAllocator()
        self.pid_alloc = PIDAllocator()
        self.tid_alloc = PIDAllocator(first=100000, limit=999999)

        # Global namespaces.
        self.processes: Dict[int, Process] = {}
        self.unix_bindings: Dict[str, UnixSocket] = {}
        self.port_bindings: Dict[Tuple[str, str, int], object] = {}
        self.shm_backmap: Dict[int, object] = {}
        self.posix_shm = PosixShmRegistry(self)
        self.sysv_shm = SysVShmRegistry(self, nslots=costs.SYSV_NAMESPACE_SLOTS)
        self._next_pty_unit = 0

        # Subsystems.
        self.vfs = VFS(self, rootfs if rootfs is not None else MemFS(self))
        self.aio = AIOQueue(self)
        self.pageout = PageoutDaemon(self)
        self.vdso = VDSO(self)

        # PID 1.
        self.initproc: Optional[Process] = None
        self.initproc = self.spawn("init", pid=1)

        #: Set by the SLS orchestrator when Aurora is loaded.
        self.sls = None

    # -- object identity ----------------------------------------------------------

    def next_kid(self) -> int:
        """Next kernel-object identity (unique per boot)."""
        return self._kids.next()

    def check_alive(self) -> None:
        """Raise MachineCrashed if this kernel has been crashed."""
        if self.crashed:
            raise MachineCrashed("kernel has crashed")

    def _charge_syscall(self) -> None:
        self.check_alive()
        self.clock.advance(costs.SYSCALL_OVERHEAD)

    # -- processes -------------------------------------------------------------------

    def spawn(self, name: str, parent: Optional[Process] = None,
              pid: Optional[int] = None) -> Process:
        """Create a fresh process (fork+exec shorthand for tests/apps)."""
        self.check_alive()
        if pid is None:
            pid = self.pid_alloc.allocate()
        elif not self.pid_alloc.reserve(pid):
            raise InvalidArgument(f"pid {pid} in use")
        proc = Process(self, pid, name=name, parent=parent)
        self.processes[pid] = proc
        return proc

    def fork(self, proc: Process, name: str = "") -> Process:
        """fork(2): duplicate a process (COW memory, shared files)."""
        self._charge_syscall()
        child = proc.fork(name=name)
        self.processes[child.pid] = child
        return child

    def kill(self, sender: Process, target_pid: int, signo: int) -> None:
        """Deliver a signal, resolving virtualized PIDs (§5.3).

        A restored process addresses others by the IDs it saw at
        checkpoint time (its *local* PIDs); the group's virtualization
        table maps them to the system-visible IDs.  Negative pids
        signal the whole (local) process group.
        """
        self._charge_syscall()
        group = sender.sls_group
        if target_pid < 0:
            pgid = -target_pid
            for proc in self.live_processes():
                if proc.pgroup.pgid == pgid:
                    proc.post_signal(signo)
            return
        resolved = group.idmap.to_global(target_pid) if group is not None \
            else target_pid
        self.process(resolved).post_signal(signo)

    def waitpid(self, parent: Process, target_pid: int) -> Tuple[int, int]:
        """Reap a zombie child; returns (local pid, exit status)."""
        self._charge_syscall()
        group = parent.sls_group
        resolved = group.idmap.to_global(target_pid) if group is not None \
            else target_pid
        for child in list(parent.children):
            if child.pid == resolved and child.state == "zombie":
                status = parent.reap(child)
                return child.local_pid, status
        from ..errors import NoSuchProcess
        raise NoSuchProcess(f"no zombie child with pid {target_pid}")

    def register_process(self, proc: Process) -> None:
        """Used by restore to install a recreated process."""
        self.processes[proc.pid] = proc

    def forget_process(self, proc: Process) -> None:
        """Drop a reaped process from the pid table."""
        self.processes.pop(proc.pid, None)

    def process(self, pid: int) -> Process:
        """Look up a live process by global pid."""
        try:
            return self.processes[pid]
        except KeyError:
            from ..errors import NoSuchProcess
            raise NoSuchProcess(f"pid {pid}")

    def live_processes(self) -> List[Process]:
        """Every process that is neither zombie nor reaped."""
        return [p for p in self.processes.values()
                if p.state not in ("zombie", "dead")]

    # -- files -------------------------------------------------------------------------

    def open(self, proc: Process, path: str, flags: int = O_RDWR) -> int:
        """open(2): resolve or create a file; returns an fd."""
        self._charge_syscall()
        if flags & O_CREAT and not self.vfs.exists(path):
            vnode = self.vfs.create(path)
        else:
            vnode = self.vfs.namei(path)
        if flags & O_TRUNC:
            vnode.truncate(0)
        file = OpenFile(self, vnode, DTYPE_VNODE, flags)
        fd = proc.fdtable.install(file)
        file.unref()
        return fd

    def read(self, proc: Process, fd: int, nbytes: int) -> bytes:
        """read(2): file/pipe/device/socket read at the fd's semantics."""
        self._charge_syscall()
        file = proc.fdtable.get(fd)
        if file.ftype == DTYPE_VNODE:
            data = file.vnode.read(file.offset, nbytes)
            if data:
                file.offset += len(data)
                file.mark_dirty()
            return data
        if file.ftype == DTYPE_PIPE:
            return file.fobj.read(nbytes)
        if file.ftype == DTYPE_DEVICE:
            return file.fobj.read(nbytes)
        if file.ftype == DTYPE_SOCKET:
            fobj = file.fobj
            if fobj.obj_type == "tcpsock":
                return fobj.recv(nbytes)
            if fobj.obj_type == "unixsock":
                return fobj.recv()
        raise InvalidArgument(f"read not supported on {file.ftype}")

    def write(self, proc: Process, fd: int, data: bytes) -> int:
        """write(2): files, pipes, devices and sockets (with external-synchrony interception for attached groups)."""
        self._charge_syscall()
        file = proc.fdtable.get(fd)
        if file.ftype == DTYPE_VNODE:
            if file.flags & O_APPEND:
                file.offset = file.vnode.size
            written = file.vnode.write(file.offset, data)
            file.offset += written
            file.mark_dirty()
            return written
        if file.ftype == DTYPE_PIPE:
            return file.fobj.write(data)
        if file.ftype == DTYPE_DEVICE:
            return file.fobj.write(data)
        if file.ftype == DTYPE_SOCKET:
            written = file.fobj.send(data)
            # External synchrony: output leaving a consistency group is
            # withheld until the state producing it is persistent (§3).
            group = proc.sls_group
            if (self.sls is not None and group is not None
                    and group.external_synchrony):
                self.sls.extsync.buffer_send(group, written,
                                             nosync=file.sls_nosync)
            return written
        raise InvalidArgument(f"write not supported on {file.ftype}")

    def lseek(self, proc: Process, fd: int, offset: int) -> int:
        """lseek(2): set the open file description's offset."""
        self._charge_syscall()
        file = proc.fdtable.get(fd)
        if offset < 0:
            raise InvalidArgument("negative offset")
        file.offset = offset
        file.mark_dirty()
        return offset

    def fsync(self, proc: Process, fd: int) -> None:
        """fsync(2): cost depends entirely on the mounted filesystem."""
        self._charge_syscall()
        file = proc.fdtable.get(fd)
        if file.ftype != DTYPE_VNODE:
            raise InvalidArgument("fsync on non-vnode")
        file.vnode.fs.on_fsync(file.vnode)

    def close(self, proc: Process, fd: int) -> None:
        """close(2): drop the fd; the OpenFile dies with its last ref."""
        self._charge_syscall()
        proc.fdtable.close(fd)

    def dup(self, proc: Process, fd: int) -> int:
        """dup(2): a second fd sharing the same OpenFile (and offset)."""
        self._charge_syscall()
        return proc.fdtable.dup(fd)

    def unlink(self, proc: Process, path: str) -> None:
        """unlink(2): remove a name; open files keep the vnode alive."""
        self._charge_syscall()
        self.vfs.unlink(path)

    def mkdir(self, proc: Process, path: str) -> None:
        """mkdir(2)."""
        self._charge_syscall()
        self.vfs.mkdir(path)

    def mmap_file(self, proc: Process, fd: int, nbytes: int,
                  shared: bool = True) -> int:
        """Map a file's vnode object into the address space."""
        self._charge_syscall()
        file = proc.fdtable.get(fd)
        vnode = file.vnode
        assert vnode.vmobject is not None
        vnode.vmobject.grow(pages_of(nbytes))
        from .vm.vmmap import INHERIT_COPY
        inheritance = INHERIT_SHARE if shared else INHERIT_COPY
        addr = proc.vmspace.mmap(nbytes, vmobject=vnode.vmobject,
                                 inheritance=inheritance,
                                 name=f"file:{vnode.inode}")
        if not shared:
            entry = proc.vmspace.entry_at(addr)
            entry.needs_copy = True  # MAP_PRIVATE
        return addr

    # -- pipes ----------------------------------------------------------------------------

    def pipe(self, proc: Process) -> Tuple[int, int]:
        """pipe(2): one pipe object behind a read fd and a write fd."""
        self._charge_syscall()
        pipe_obj = Pipe(self)
        rfile = OpenFile(self, pipe_obj, DTYPE_PIPE, O_RDONLY)
        wfile = OpenFile(self, pipe_obj, DTYPE_PIPE, O_WRONLY)
        pipe_obj.unref()  # the two OpenFiles hold the references now
        rfd = proc.fdtable.install(rfile)
        wfd = proc.fdtable.install(wfile)
        rfile.unref()
        wfile.unref()
        return rfd, wfd

    # -- UNIX sockets -----------------------------------------------------------------------

    def unix_socket(self, proc: Process, sock_type: str = "stream") -> int:
        """socket(AF_UNIX): a fresh UNIX domain socket fd."""
        self._charge_syscall()
        sock = UnixSocket(self, sock_type)
        file = OpenFile(self, sock, DTYPE_SOCKET)
        sock.unref()
        fd = proc.fdtable.install(file)
        file.unref()
        return fd

    def socketpair(self, proc: Process) -> Tuple[int, int]:
        """socketpair(2): two connected UNIX sockets."""
        self._charge_syscall()
        left, right = UnixSocket.socketpair(self)
        lfile = OpenFile(self, left, DTYPE_SOCKET)
        rfile = OpenFile(self, right, DTYPE_SOCKET)
        left.unref()
        right.unref()
        lfd = proc.fdtable.install(lfile)
        rfd = proc.fdtable.install(rfile)
        lfile.unref()
        rfile.unref()
        return lfd, rfd

    def sock_of(self, proc: Process, fd: int):
        """The socket object behind a socket fd (test/app helper)."""
        file = proc.fdtable.get(fd)
        if file.ftype != DTYPE_SOCKET:
            raise BadFileDescriptor(f"fd {fd} is not a socket")
        return file.fobj

    # -- network sockets --------------------------------------------------------------------

    def udp_socket(self, proc: Process) -> int:
        """socket(AF_INET, SOCK_DGRAM)."""
        self._charge_syscall()
        sock = UDPSocket(self)
        file = OpenFile(self, sock, DTYPE_SOCKET)
        sock.unref()
        fd = proc.fdtable.install(file)
        file.unref()
        return fd

    def tcp_socket(self, proc: Process) -> int:
        """socket(AF_INET, SOCK_STREAM)."""
        self._charge_syscall()
        sock = TCPSocket(self)
        file = OpenFile(self, sock, DTYPE_SOCKET)
        sock.unref()
        fd = proc.fdtable.install(file)
        file.unref()
        return fd

    def accept(self, proc: Process, fd: int) -> int:
        """Accept a pending connection; returns the new socket's fd."""
        self._charge_syscall()
        listener = self.sock_of(proc, fd)
        accepted = listener.accept()
        file = OpenFile(self, accepted, DTYPE_SOCKET)
        newfd = proc.fdtable.install(file)
        file.unref()
        return newfd

    # -- kqueue ---------------------------------------------------------------------------------

    def kqueue(self, proc: Process) -> int:
        """kqueue(2): a kernel event queue fd."""
        self._charge_syscall()
        kq = KQueue(self)
        file = OpenFile(self, kq, DTYPE_KQUEUE)
        kq.unref()
        fd = proc.fdtable.install(file)
        file.unref()
        return fd

    # -- shared memory ----------------------------------------------------------------------------

    def shm_open(self, proc: Process, name: str, size: int) -> int:
        """shm_open(3): create/open a POSIX shared memory object."""
        self._charge_syscall()
        segment = self.posix_shm.open(name, size, create=True)
        file = OpenFile(self, segment, DTYPE_SHM)
        fd = proc.fdtable.install(file)
        file.unref()
        return fd

    def shm_mmap(self, proc: Process, fd: int) -> int:
        """Map a POSIX shm descriptor (MAP_SHARED)."""
        self._charge_syscall()
        file = proc.fdtable.get(fd)
        if file.ftype != DTYPE_SHM:
            raise BadFileDescriptor(f"fd {fd} is not a shm descriptor")
        segment = file.fobj
        return proc.vmspace.mmap(segment.size, vmobject=segment.vmobject,
                                 inheritance=INHERIT_SHARE,
                                 name=f"shm:{segment.name}")

    def shmget(self, key: int, size: int, create: bool = True) -> int:
        """shmget(2): find or create a System V segment by key."""
        self.check_alive()
        return self.sysv_shm.shmget(key, size, create=create)

    def shmat(self, proc: Process, shmid: int) -> int:
        """shmat(2): map a System V segment by shmid."""
        self._charge_syscall()
        segment = self.sysv_shm.segment(shmid)
        return proc.vmspace.mmap(segment.size, vmobject=segment.vmobject,
                                 inheritance=INHERIT_SHARE,
                                 name=f"shm:{segment.name}")

    # -- pseudoterminals ------------------------------------------------------------------------------

    def open_pty(self, proc: Process) -> Tuple[int, int]:
        """posix_openpt + open slave; returns (master fd, slave fd)."""
        self._charge_syscall()
        pty = Pty(self, self._next_pty_unit)
        self._next_pty_unit += 1
        master = OpenFile(self, pty, DTYPE_PTS, O_RDWR)
        slave = OpenFile(self, pty, DTYPE_PTS, O_RDWR)
        pty.unref()
        mfd = proc.fdtable.install(master)
        sfd = proc.fdtable.install(slave)
        master.unref()
        slave.unref()
        return mfd, sfd

    # -- devices ------------------------------------------------------------------------------------------

    def open_device(self, proc: Process, name: str) -> int:
        """Open a whitelisted device node."""
        self._charge_syscall()
        device = DeviceFile(self, name)
        file = OpenFile(self, device, DTYPE_DEVICE)
        device.unref()
        fd = proc.fdtable.install(file)
        file.unref()
        return fd

    def map_hpet(self, proc: Process) -> int:
        """Map the HPET registers read-only (§5.3)."""
        self._charge_syscall()
        device = DeviceFile(self, "hpet")
        assert device.vmobject is not None
        addr = proc.vmspace.mmap(PAGE_SIZE, protection=PROT_READ,
                                 vmobject=device.vmobject,
                                 inheritance=INHERIT_SHARE, name="hpet")
        device.unref()
        return addr

    # -- crash --------------------------------------------------------------------------------------------

    def mark_crashed(self) -> None:
        """Flip the crash flag; every further syscall raises."""
        self.crashed = True
