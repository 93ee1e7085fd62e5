"""Process groups and sessions (§5.1: "Aurora must also recreate the
process groups and sessions that were present at checkpoint time.
These groupings are used for job control, signals, and sandboxing.")
"""

from __future__ import annotations

from typing import List

from ..kobject import KObject


class ProcessGroup(KObject):
    """A job-control process group."""

    obj_type = "pgroup"

    def __init__(self, kernel, pgid: int, session: "Session"):
        super().__init__(kernel)
        self.pgid = pgid
        self.session = session
        self.members: List[object] = []
        session.groups.append(self)

    def add(self, proc) -> None:
        """Add a member process."""
        if proc not in self.members:
            self.members.append(proc)

    def remove(self, proc) -> None:
        """Remove a member; empty groups dissolve."""
        if proc in self.members:
            self.members.remove(proc)
        if not self.members:
            self.session.groups.remove(self)
            self.unref()

    def signal_all(self, signo: int) -> int:
        """Deliver a signal to every member (kill(-pgid, sig))."""
        for proc in list(self.members):
            proc.post_signal(signo)
        return len(self.members)

    def __repr__(self) -> str:
        return f"ProcessGroup(pgid={self.pgid}, n={len(self.members)})"


class Session(KObject):
    """A login session: a set of process groups plus a controlling tty."""

    obj_type = "session"

    def __init__(self, kernel, sid: int):
        super().__init__(kernel)
        self.sid = sid
        self.groups: List[ProcessGroup] = []
        #: Controlling terminal (a pty slave vnode-ish object) or None.
        self.controlling_tty = None

    def __repr__(self) -> str:
        return f"Session(sid={self.sid}, groups={len(self.groups)})"
