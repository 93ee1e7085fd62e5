"""Simulated 10 GbE NIC.

Figures 4 and 5 drive Memcached over a 10 GbE LAN; what matters for
the reproduction is the one-way latency floor and the bandwidth-driven
serialization delay, both of which feed the client-observed latency
model in :mod:`repro.workloads.mutilate`.
"""

from __future__ import annotations

from .clock import SimClock
from ..core import costs


class NIC:
    """Latency/bandwidth model of one network interface."""

    def __init__(self, clock: SimClock):
        self.clock = clock
        self.bytes_sent = 0
        self.packets_sent = 0

    def transfer_time(self, nbytes: int) -> int:
        """Serialization delay for ``nbytes`` on the wire."""
        return (nbytes * 1_000_000_000) // costs.NET_BW

    def send(self, nbytes: int) -> int:
        """Account for sending ``nbytes``; returns the wire time."""
        self.bytes_sent += nbytes
        self.packets_sent += 1
        return costs.NET_RTT // 2 + self.transfer_time(nbytes)
