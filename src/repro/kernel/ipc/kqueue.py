"""Kqueues: kernel event queues.

Table 4 benchmarks a kqueue holding 1024 registered events; the
checkpoint cost is dominated by locking and serializing each knote,
which the serializer charges per event.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...errors import InvalidArgument
from ..kobject import KObject

#: kevent filter types we model.
EVFILT_READ = "read"
EVFILT_WRITE = "write"
EVFILT_TIMER = "timer"
EVFILT_SIGNAL = "signal"
EVFILT_PROC = "proc"

_FILTERS = (EVFILT_READ, EVFILT_WRITE, EVFILT_TIMER, EVFILT_SIGNAL,
            EVFILT_PROC)


class KEvent:
    """One registered knote."""

    __slots__ = ("ident", "filter", "flags", "fflags", "data", "udata")

    def __init__(self, ident: int, filter: str, flags: int = 0,
                 fflags: int = 0, data: int = 0, udata: int = 0):
        if filter not in _FILTERS:
            raise InvalidArgument(f"bad kevent filter {filter}")
        self.ident = ident
        self.filter = filter
        self.flags = flags
        self.fflags = fflags
        self.data = data
        self.udata = udata

    def key(self) -> Tuple[int, str]:
        """(ident, filter): the knote's identity within its queue."""
        return (self.ident, self.filter)


class KQueue(KObject):
    """A kernel event queue with its registered events."""

    obj_type = "kqueue"

    def __init__(self, kernel):
        super().__init__(kernel)
        self._events: Dict[Tuple[int, str], KEvent] = {}
        #: Triggered events awaiting collection by kevent(2).
        self.pending: List[KEvent] = []

    def register(self, event: KEvent) -> None:
        """Add or update a knote."""
        self._events[event.key()] = event
        self.mark_dirty()

    def deregister(self, ident: int, filter: str) -> None:
        """Remove a knote (EINVAL when absent)."""
        if self._events.pop((ident, filter), None) is None:
            raise InvalidArgument(f"no event ({ident}, {filter})")
        self.mark_dirty()

    def trigger(self, ident: int, filter: str, data: int = 0) -> None:
        """Mark a registered event ready with ``data``."""
        event = self._events.get((ident, filter))
        if event is not None:
            event.data = data
            self.pending.append(event)
            # The knote's ``data`` field is part of the checkpointed
            # event set, so a trigger dirties the queue.
            self.mark_dirty()

    def collect(self, max_events: int = 64) -> List[KEvent]:
        """Harvest up to ``max_events`` ready events (kevent(2))."""
        out = self.pending[:max_events]
        self.pending = self.pending[max_events:]
        return out

    def events(self) -> List[KEvent]:
        """Every registered knote (the checkpointed set)."""
        return list(self._events.values())

    def __len__(self) -> int:
        return len(self._events)
