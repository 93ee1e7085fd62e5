"""Processes: the unit POSIX organizes everything else around.

A process bundles an address space, an fd table, threads, signal
routing, and its position in the process tree / group / session
hierarchy.  ``fork`` duplicates it with the exact sharing semantics
Aurora must preserve across checkpoints: COW memory, *shared* OpenFile
descriptions, inherited group/session membership.
"""

from __future__ import annotations

from typing import List, Optional

from ...errors import InvalidArgument, NoSuchProcess
from ..kobject import KObject
from ..fs.file import FDTable
from ..vm.vmspace import VMSpace
from .session import ProcessGroup, Session
from .signals import SIGCHLD, SIGCONT, SIGKILL, SIGSTOP
from .thread import Thread

#: Process lifecycle states.
RUNNING = "running"
STOPPED = "stopped"
ZOMBIE = "zombie"
DEAD = "dead"
#: Suspended into the store by ``sls suspend`` (not schedulable).
SUSPENDED = "suspended"


class Process(KObject):
    """One process: vmspace + fdtable + threads + tree position."""

    obj_type = "proc"

    def __init__(self, kernel, pid: int, name: str = "",
                 parent: Optional["Process"] = None,
                 vmspace: Optional[VMSpace] = None,
                 fdtable: Optional[FDTable] = None,
                 pgroup: Optional[ProcessGroup] = None):
        super().__init__(kernel)
        self.pid = pid
        #: Application-visible pid (differs from ``pid`` after restore).
        self.local_pid = pid
        self.name = name or f"proc{pid}"
        self.parent = parent
        self.children: List[Process] = []
        self.vmspace = vmspace if vmspace is not None else VMSpace(kernel)
        self.fdtable = fdtable if fdtable is not None else FDTable(kernel)
        self.threads: List[Thread] = []
        self.state = RUNNING
        self.exit_status: Optional[int] = None
        self.cwd = "/"
        #: Part of a consistency group but not persisted (§3).
        self.sls_ephemeral = False
        #: The consistency group this process is attached to, if any.
        self.sls_group = None
        if pgroup is None:
            session = Session(kernel, sid=pid)
            pgroup = ProcessGroup(kernel, pgid=pid, session=session)
        self.pgroup = pgroup
        pgroup.add(self)
        if parent is not None:
            parent.children.append(self)
        # Every process starts with one thread.
        self.add_thread()

    # -- threads -----------------------------------------------------------------

    def add_thread(self) -> Thread:
        """Create one more kernel thread in this process."""
        tid = self.kernel.tid_alloc.allocate()
        thread = Thread(self.kernel, self, tid)
        self.threads.append(thread)
        self.mark_dirty()
        return thread

    @property
    def main_thread(self) -> Thread:
        """Thread 0 (signal delivery target)."""
        if not self.threads:
            raise InvalidArgument(f"{self} has no threads")
        return self.threads[0]

    # -- signals ------------------------------------------------------------------

    def post_signal(self, signo: int) -> None:
        """Route a signal to the process (delivered to thread 0, as
        the common single-handler case)."""
        if self.state in (ZOMBIE, DEAD):
            return
        if signo == SIGKILL:
            self.exit(status=-SIGKILL)
            return
        if signo == SIGSTOP:
            self.state = STOPPED
            return
        if signo == SIGCONT and self.state == STOPPED:
            self.state = RUNNING
            self.mark_dirty()
            return
        self.main_thread.signals.post(signo)
        self.mark_dirty()

    def dispatch_signals(self) -> List[int]:
        """Run handlers for every deliverable pending signal."""
        delivered = []
        for thread in self.threads:
            delivered.extend(thread.signals.dispatch())
        return delivered

    # -- fork / exit / wait -----------------------------------------------------------

    def fork(self, name: str = "") -> "Process":
        """Duplicate this process (COW memory, shared OpenFiles)."""
        pid = self.kernel.pid_alloc.allocate()
        child = Process(
            self.kernel, pid,
            name=name or f"{self.name}-child",
            parent=self,
            vmspace=self.vmspace.fork(),
            fdtable=self.fdtable.fork_copy(),
            pgroup=self.pgroup,
        )
        # Child inherits the parent's signal mask and cwd.
        child.main_thread.signals.mask = set(self.main_thread.signals.mask)
        child.cwd = self.cwd
        self.mark_dirty()
        if self.sls_group is not None:
            # Children born into a consistency group stay in it (§3).
            self.sls_group.adopt(child)
        return child

    def exit(self, status: int = 0) -> None:
        """Terminate: free resources, reparent children, notify parent."""
        if self.state in (ZOMBIE, DEAD):
            return
        self.exit_status = status
        for thread in self.threads:
            self.kernel.tid_alloc.release(thread.tid)
            thread.unref()
        self.threads = []
        self.fdtable.close_all()
        self.vmspace.destroy()
        # Orphans are reparented to init (pid 1) if it exists.
        for child in self.children:
            child.parent = self.kernel.initproc \
                if self.kernel.initproc is not self else None
        self.children = []
        self.pgroup.remove(self)
        self.state = ZOMBIE
        self.mark_dirty()
        if self.parent is not None and self.parent.state == RUNNING:
            self.parent.post_signal(SIGCHLD)
        if self.sls_group is not None:
            self.sls_group.on_member_exit(self)

    def reap(self, child: "Process") -> int:
        """``waitpid``: collect a zombie child's status."""
        if child not in self.children and child.parent is not self:
            raise NoSuchProcess(f"{child} is not a child of {self}")
        if child.state != ZOMBIE:
            raise InvalidArgument(f"{child} has not exited")
        status = child.exit_status if child.exit_status is not None else 0
        child.state = DEAD
        if child in self.children:
            self.children.remove(child)
        self.kernel.pid_alloc.release(child.pid)
        self.kernel.forget_process(child)
        return status

    # -- introspection ---------------------------------------------------------------

    def tree(self) -> List["Process"]:
        """This process and all live descendants, preorder."""
        out = [self]
        for child in self.children:
            out.extend(child.tree())
        return out

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, {self.name!r}, {self.state})"
