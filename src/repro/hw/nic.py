"""Simulated 10 GbE NIC.

Figures 4 and 5 drive Memcached over a 10 GbE LAN; what matters for
the reproduction is the one-way latency floor and the bandwidth-driven
serialization delay, both of which feed the client-observed latency
model in :mod:`repro.workloads.mutilate`.

Each link out of the interface (one per destination) is its own FIFO
queue, modelled like :meth:`repro.hw.nvme.NVMeDevice.queue_run`:
sends on one link wait their turn on its bandwidth (a busy-until
instant), while the one-way latency overlaps across queued sends and
across links.  A replication pump that ships one delta to N nodes at
once therefore sees every copy land one wire time later, not N.
"""

from __future__ import annotations

from typing import Dict, Optional

from .clock import SimClock
from ..core import costs


class NIC:
    """Latency/bandwidth model of one network interface."""

    def __init__(self, clock: SimClock):
        self.clock = clock
        self.bytes_sent = 0
        self.packets_sent = 0
        #: Link -> instant its last queued send finishes serializing.
        self._busy_until: Dict[Optional[int], int] = {}

    def transfer_time(self, nbytes: int) -> int:
        """Serialization delay for ``nbytes`` on the wire."""
        return (nbytes * 1_000_000_000) // costs.NET_BW

    def send(self, nbytes: int, link: Optional[int] = None) -> int:
        """Account for sending ``nbytes`` on ``link`` now; returns the
        wire time: any wait behind earlier sends on the same link, the
        serialization delay and the one-way latency."""
        self.bytes_sent += nbytes
        self.packets_sent += 1
        now = self.clock.now()
        start = max(now, self._busy_until.get(link, now))
        done = self._busy_until[link] = start + self.transfer_time(nbytes)
        return done + costs.NET_RTT // 2 - now
