"""PID/TID allocation and Aurora's ID virtualization (§5.3).

PIDs route signals and TIDs back pthread mutexes, so a restored
application must observe its checkpoint-time IDs.  Aurora virtualizes:
each restored process/thread carries a *local* ID (what the
application sees — the checkpoint-time value) and a *global* ID (what
the rest of the system sees — freshly allocated at restore).  The
:class:`IDVirtualization` table maps between them per consistency
group, so two restored applications can both believe they are PID 100.
"""

from __future__ import annotations

from typing import Dict, Set

from ...errors import InvalidArgument


class PIDAllocator:
    """Allocates kernel-global process and thread IDs."""

    def __init__(self, first: int = 100, limit: int = 99999):
        self._next = first
        self._limit = limit
        self._in_use: Set[int] = set()

    def allocate(self) -> int:
        """Next free ID (wraps, skipping live ones)."""
        candidate = self._next
        for _ in range(self._limit):
            if candidate > self._limit:
                candidate = 2  # wrap, skipping init
            if candidate not in self._in_use:
                self._in_use.add(candidate)
                self._next = candidate + 1
                return candidate
            candidate += 1
        raise InvalidArgument("PID space exhausted")

    def reserve(self, pid: int) -> bool:
        """Try to claim a specific ID (restore fast path when the
        checkpoint-time ID happens to still be free).  Returns whether
        the reservation succeeded."""
        if pid in self._in_use:
            return False
        self._in_use.add(pid)
        return True

    def release(self, pid: int) -> None:
        """Return an ID to the pool."""
        self._in_use.discard(pid)


class IDVirtualization:
    """Local (checkpoint-time) ↔ global (runtime) ID mapping.

    One instance per restored consistency group.  An empty table is the
    common case for never-restored groups: local == global.
    """

    def __init__(self):
        self._local_to_global: Dict[int, int] = {}
        self._global_to_local: Dict[int, int] = {}

    def bind(self, local_id: int, global_id: int) -> None:
        """Record a local<->global pair (each side at most once)."""
        if local_id in self._local_to_global:
            raise InvalidArgument(f"local id {local_id} already bound")
        if global_id in self._global_to_local:
            raise InvalidArgument(f"global id {global_id} already bound")
        self._local_to_global[local_id] = global_id
        self._global_to_local[global_id] = local_id

    def to_global(self, local_id: int) -> int:
        """Local -> global (identity when unbound)."""
        return self._local_to_global.get(local_id, local_id)

    def to_local(self, global_id: int) -> int:
        """Global -> local (identity when unbound)."""
        return self._global_to_local.get(global_id, global_id)

    def __len__(self) -> int:
        return len(self._local_to_global)
