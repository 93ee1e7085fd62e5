"""Socket buffers: the byte queues checkpointed with every socket."""

from __future__ import annotations

from ...errors import WouldBlock
from ...units import KiB

DEFAULT_SOCKBUF = 64 * KiB


class SockBuf:
    """A bounded byte queue (one direction of a socket).

    ``owner`` is the socket the buffer belongs to; mutations stamp its
    dirty epoch so an incremental checkpoint re-serializes the socket
    whenever either direction's queue changed.
    """

    def __init__(self, capacity: int = DEFAULT_SOCKBUF, owner=None):
        self.capacity = capacity
        self.data = bytearray()
        self.owner = owner

    def _dirty(self) -> None:
        if self.owner is not None:
            self.owner.mark_dirty()

    def append(self, payload: bytes) -> int:
        """Queue bytes up to the free space; EAGAIN when full."""
        space = self.capacity - len(self.data)
        if space <= 0:
            raise WouldBlock("socket buffer full")
        accepted = payload[:space]
        self.data += accepted
        self._dirty()
        return len(accepted)

    def take(self, nbytes: int) -> bytes:
        """Dequeue up to ``nbytes``."""
        out = bytes(self.data[:nbytes])
        del self.data[:nbytes]
        if out:
            self._dirty()
        return out

    def __len__(self) -> int:
        return len(self.data)

    def snapshot(self) -> bytes:
        """Checkpointable buffer contents."""
        return bytes(self.data)

    def restore(self, data: bytes) -> None:
        """Reload buffer contents from a checkpoint."""
        self.data = bytearray(data)
        self._dirty()
