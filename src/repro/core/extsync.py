"""External synchrony (§3, §4).

Outgoing communication from a consistency group is buffered until the
computation that produced it is persistent: a message sent between
checkpoints N and N+1 is released when checkpoint N+1 *commits*.  Reads
and anything on an fd marked with ``sls_fdctl(..., nosync)`` bypass the
buffer (§3's read-only-connection optimization).

The paper's artifact lists external synchrony as in-progress (§8
Limitations); the evaluation benchmarks therefore run with it
disabled, but the mechanism is implemented and measured by the
ablation benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from . import telemetry


class BufferedSend:
    """One withheld outgoing message."""

    __slots__ = ("sent_at", "nbytes", "on_release", "released_at")

    def __init__(self, sent_at: int, nbytes: int,
                 on_release: Optional[Callable[[int], None]] = None):
        self.sent_at = sent_at
        self.nbytes = nbytes
        self.on_release = on_release
        self.released_at: Optional[int] = None


class ExternalSynchrony:
    """Per-orchestrator buffering of externally visible output."""

    def __init__(self, kernel):
        self.kernel = kernel
        #: group_id -> sends not yet sealed to a checkpoint.
        self._open: Dict[int, List[BufferedSend]] = {}
        #: ckpt_id -> sends awaiting that checkpoint's completion.
        self._sealed: Dict[int, List[BufferedSend]] = {}
        self.stats = telemetry.StatsView(
            "sls.extsync",
            keys=("buffered", "released", "bypassed", "delay_ns_total"))

    def buffer_send(self, group, nbytes: int,
                    on_release: Optional[Callable[[int], None]] = None,
                    nosync: bool = False) -> Optional[BufferedSend]:
        """Register an outgoing message.

        Returns None (released immediately) when the group does not
        use external synchrony or the descriptor suppressed it.
        """
        if nosync or not group.external_synchrony:
            self.stats["bypassed"] += 1
            if on_release is not None:
                on_release(self.kernel.clock.now())
            return None
        send = BufferedSend(self.kernel.clock.now(), nbytes, on_release)
        self._open.setdefault(group.group_id, []).append(send)
        self.stats["buffered"] += 1
        return send

    def seal(self, group, ckpt_id: int) -> int:
        """Checkpoint quiesce: everything sent so far rides on this
        checkpoint.  Returns the number of sends sealed."""
        sends = self._open.pop(group.group_id, [])
        if sends:
            self._sealed.setdefault(ckpt_id, []).extend(sends)
        return len(sends)

    def unseal(self, group, ckpt_id: int) -> int:
        """Checkpoint rolled back: its sealed sends were never made
        durable, so they return to the group's open buffer and ride on
        the next checkpoint instead of leaking in ``_sealed`` forever.
        Returns the number of sends moved back."""
        sends = self._sealed.pop(ckpt_id, [])
        if sends:
            self._open.setdefault(group.group_id, [])[:0] = sends
        return len(sends)

    def release(self, ckpt_id: int) -> int:
        """Checkpoint committed: let its messages leave the machine."""
        now = self.kernel.clock.now()
        sends = self._sealed.pop(ckpt_id, [])
        delay = 0
        for send in sends:
            send.released_at = now
            delay += now - send.sent_at
            if send.on_release is not None:
                send.on_release(now)
        if sends:
            # Booked once per release: a counter update is a registry
            # lookup (telemetry.StatsView).
            self.stats["released"] += len(sends)
            self.stats["delay_ns_total"] += delay
        return len(sends)

    def pending_for(self, group) -> int:
        """Sends still withheld for this group (open + sealed)."""
        open_count = len(self._open.get(group.group_id, []))
        sealed = sum(len(v) for v in self._sealed.values())
        return open_count + sealed

    def drop_group(self, group) -> None:
        """Detach: forget the group's unsealed sends."""
        self._open.pop(group.group_id, None)
