"""Signal numbers, masks and pending sets.

Only the slice of POSIX signals the reproduction exercises: job
control, child notification (Aurora delivers SIGCHLD to the parent of
an ephemeral process dropped at restore, §3) and the Aurora-specific
restore signal applications use to fix up runtime state after a
restore (§3 "applications fix up runtime state inside of an Aurora
specific signal handler").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

SIGINT = 2
SIGKILL = 9
SIGUSR1 = 10
SIGUSR2 = 12
SIGTERM = 15
SIGCHLD = 20
SIGSTOP = 17
SIGCONT = 19
#: Aurora's restore-notification signal (a real-time signal slot).
SIGSLSRESTORE = 33

UNMASKABLE = frozenset({SIGKILL, SIGSTOP})

_NAMES = {
    SIGINT: "SIGINT", SIGKILL: "SIGKILL", SIGUSR1: "SIGUSR1",
    SIGUSR2: "SIGUSR2", SIGTERM: "SIGTERM", SIGCHLD: "SIGCHLD",
    SIGSTOP: "SIGSTOP", SIGCONT: "SIGCONT", SIGSLSRESTORE: "SIGSLSRESTORE",
}


def signame(signo: int) -> str:
    """Human-readable name of a signal number."""
    return _NAMES.get(signo, f"SIG{signo}")


class SignalState:
    """Per-thread signal mask, pending set and handlers."""

    def __init__(self):
        self.mask: Set[int] = set()
        self.pending: List[int] = []
        self.handlers: Dict[int, Callable[[int], None]] = {}

    def block(self, signo: int) -> None:
        """Add the signal to the mask (SIGKILL/SIGSTOP excepted)."""
        if signo not in UNMASKABLE:
            self.mask.add(signo)

    def unblock(self, signo: int) -> None:
        """Remove the signal from the mask."""
        self.mask.discard(signo)

    def post(self, signo: int) -> None:
        """Queue a pending signal."""
        self.pending.append(signo)

    def deliverable(self) -> List[int]:
        """Pending signals not currently masked."""
        return [s for s in self.pending if s not in self.mask]

    def dispatch(self) -> List[int]:
        """Deliver every unmasked pending signal; returns what ran."""
        delivered = []
        remaining = []
        for signo in self.pending:
            if signo in self.mask:
                remaining.append(signo)
                continue
            handler = self.handlers.get(signo)
            if handler is not None:
                handler(signo)
            delivered.append(signo)
        self.pending = remaining
        return delivered

    def snapshot(self) -> dict:
        """Checkpointable representation (handlers are code: the
        application re-registers them, like any reloaded program)."""
        return {"mask": sorted(self.mask), "pending": list(self.pending)}

    def restore(self, state: dict) -> None:
        """Reload mask and pending set from a checkpoint."""
        self.mask = set(state["mask"])
        self.pending = list(state["pending"])
