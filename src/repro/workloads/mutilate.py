"""Mutilate-style load generation for Memcached (Figs. 4 and 5).

The paper drives Memcached with Mutilate running the Facebook "ETC"
workload from four client machines (12 threads x 12 connections each)
plus a latency-measurement agent.  Two modes matter:

* :meth:`Mutilate.max_throughput` — closed loop, all 576 connections
  saturating the server (Figure 4);
* :meth:`Mutilate.pegged` — open loop at a fixed offered rate
  (Figure 5's 120 k ops/s).
"""

from __future__ import annotations

from ..apps.memcached import LoadStats, MemcachedServer
from ..units import SEC


class Mutilate:
    """A load-generator agent bound to one server."""

    #: 4 load machines x 12 threads x 12 connections (§9.5).
    DEFAULT_CONNECTIONS = 576

    def __init__(self, machine, server: MemcachedServer,
                 connections: int = DEFAULT_CONNECTIONS):
        self.machine = machine
        self.server = server
        self.connections = connections

    def max_throughput(self, duration_ns: int = 1 * SEC) -> LoadStats:
        """Closed-loop saturation run (Figure 4)."""
        return self.server.run_closed_loop(self.machine,
                                           self.connections, duration_ns)

    def pegged(self, rate_ops: float, duration_ns: int = 1 * SEC
               ) -> LoadStats:
        """Open-loop fixed-rate run (Figure 5: 120 k ops/s ≈ 15% of
        peak)."""
        return self.server.run_open_loop(self.machine, rate_ops,
                                         duration_ns)
