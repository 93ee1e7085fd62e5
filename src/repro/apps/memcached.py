"""A Memcached-like key-value cache server (Figures 4 and 5).

The benchmark-facing surface simulates the server at batch granularity
on the simulated clock: every operation costs CPU, and — the part that
matters for Aurora — every operation *dirties* item/LRU pages, so after
each checkpoint write-protects the address space, the first touch of
each hot page takes a real COW fault through the shadow chain.  The
interplay of (stop time + post-checkpoint fault storm + page-dirtying
saturation within a period) is exactly what shapes Figures 4 and 5.

Two load modes mirror Mutilate's:

* closed loop (fixed outstanding requests — 4 machines x 12 threads x
  12 connections in the paper) for the max-throughput experiment;
* open loop (fixed offered rate, FIFO queue) for the pegged-120k
  latency experiment.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import costs
from ..core.telemetry import nearest_rank
from ..errors import NoSuchFile
from ..units import MiB, PAGE_SIZE, pages_of


class LoadStats:
    """Result of one load run."""

    def __init__(self):
        self.duration_ns = 0
        self.completed_ops = 0
        self.latency_avg_ns = 0
        self.latency_p95_ns = 0
        self.samples: List[int] = []

    @property
    def throughput(self) -> float:
        """Operations per second."""
        if self.duration_ns == 0:
            return 0.0
        return self.completed_ops * 1e9 / self.duration_ns

    def finish(self) -> "LoadStats":
        """Compute the latency aggregates from the samples."""
        if self.samples:
            ordered = sorted(self.samples)
            self.latency_avg_ns = sum(ordered) // len(ordered)
            self.latency_p95_ns = nearest_rank(ordered, 95)
        return self


class MemcachedServer:
    """One memcached instance as a simulated process."""

    #: Distinct pages dirtied per operation.  GETs bump LRU pointers in
    #: the item header, SETs write values; with ~4 items per page and a
    #: skewed key distribution, ops hit an already-dirty page ~45% of
    #: the time (calibrated against Figure 4's 10 ms point).
    PAGES_PER_OP = 0.55

    #: Post-checkpoint degradation window: after the shootdown, the
    #: TLB and caches are cold and the dirtied set re-faults; request
    #: service runs inflated for ~this long per flushed dirty page.
    #: This is Figure 5's worst-case mechanism — bigger periods
    #: accumulate bigger dirty sets, so their post-checkpoint windows
    #: are longer and the average latency at low utilization *rises*
    #: with the period (paper: 157 us baseline -> 607 us at 100 ms).
    REFILL_NS_PER_PAGE = 1200
    #: Service-time multiplier inside the degradation window.  At
    #: 120 k ops/s this pushes service past the interarrival gap, so a
    #: queue builds for the length of the window and drains after —
    #: the compounding that makes larger periods (larger dirty sets,
    #: longer windows) hurt the average more.
    DEGRADED_FACTOR = 18

    def __init__(self, kernel, name: str = "memcached",
                 nthreads: int = 12, hot_bytes: int = 32 * MiB):
        self.kernel = kernel
        self.proc = kernel.spawn(name)
        for _ in range(nthreads - 1):
            self.proc.add_thread()
        self.hot_pages = pages_of(hot_bytes)
        self.heap = self.proc.vmspace.mmap(
            2 * hot_bytes, name="slab-arena")
        # Warm cache: the hot item set is resident after warmup.
        self.proc.vmspace.fill(self.heap, self.hot_pages, seed=0x3C)
        self._touch_cursor = 0
        self._touch_seed = 1
        self._page_debt = 0.0  # fractional PAGES_PER_OP accumulator
        self._degraded_until = 0
        self._seen_checkpoints = 0
        self._seen_pages_flushed = 0
        #: Small-scale real data for correctness tests.
        self.items: Dict[str, bytes] = {}

    # -- correctness-scale data path -------------------------------------------------

    def set(self, key: str, value: bytes) -> None:
        """Store an item (dirties its page, as the slab write would)."""
        self.kernel.clock.advance(costs.MEMCACHED_OP_CPU)
        self.items[key] = value
        self._dirty_pages(1)

    def get(self, key: str) -> bytes:
        """Fetch an item (the LRU bump dirties its header page)."""
        self.kernel.clock.advance(costs.MEMCACHED_OP_CPU)
        try:
            value = self.items[key]
        except KeyError:
            raise NoSuchFile(key)
        self._dirty_pages(1)  # LRU bump writes the item header
        return value

    # -- load-scale machinery -------------------------------------------------------------

    def _dirty_pages(self, npages: int) -> int:
        """Touch the next ``npages`` of the hot set (round robin).

        Re-touching a page that is still writable this period is free;
        the first touch after a checkpoint takes the COW fault.  That
        is precisely memcached's LRU/header write behaviour under
        system shadowing.
        """
        space = self.proc.vmspace
        faults = 0
        remaining = min(npages, self.hot_pages)
        while remaining > 0:
            run = min(remaining, self.hot_pages - self._touch_cursor)
            faults += space.touch(
                self.heap + self._touch_cursor * PAGE_SIZE, run,
                seed=self._touch_seed)
            self._touch_cursor = (self._touch_cursor + run) % self.hot_pages
            self._touch_seed += run
            remaining -= run
        return faults

    def _service_ns(self, nops: int) -> int:
        """CPU time for ``nops``, accounting for the post-checkpoint
        TLB/cache refill window."""
        group = self.proc.sls_group
        now = self.kernel.clock.now()
        if group is not None:
            ckpts = group.stats["checkpoints"]
            if ckpts != self._seen_checkpoints:
                self._seen_checkpoints = ckpts
                total = group.stats["pages_flushed"]
                dirty = min(total - self._seen_pages_flushed,
                            self.hot_pages)
                self._seen_pages_flushed = total
                window = min(dirty * self.REFILL_NS_PER_PAGE,
                             group.period_ns)
                self._degraded_until = now + window
        if now < self._degraded_until:
            return nops * costs.MEMCACHED_OP_CPU * self.DEGRADED_FACTOR
        return nops * costs.MEMCACHED_OP_CPU

    def _dirty_for_ops(self, nops: int) -> int:
        """Dirty the pages ``nops`` operations touch."""
        self._page_debt += nops * self.PAGES_PER_OP
        npages = int(self._page_debt)
        self._page_debt -= npages
        return self._dirty_pages(npages)

    def run_closed_loop(self, machine, outstanding: int, duration_ns: int,
                        batch_ops: int = 512) -> LoadStats:
        """Mutilate at max throughput: ``outstanding`` requests always
        in flight.  Latency via Little's law per batch, so batches
        containing a checkpoint stop produce the tail."""
        clock = machine.clock
        stats = LoadStats()
        start = clock.now()
        end = start + duration_ns
        while clock.now() < end:
            machine.loop.run_pending()  # periodic checkpoints fire here
            t0 = clock.now()
            # At saturation the post-checkpoint convoys reorder work
            # rather than destroy it: the throughput cost of a
            # checkpoint is the stop time plus the COW fault storm,
            # both charged through the clock already.  The refill
            # window below is a latency effect (see run_open_loop).
            clock.advance(batch_ops * costs.MEMCACHED_OP_CPU)
            self._dirty_for_ops(batch_ops)
            machine.loop.run_pending()
            elapsed = clock.now() - t0
            stats.completed_ops += batch_ops
            # Little's law: mean residence = outstanding / rate.
            per_op = elapsed // batch_ops
            stats.samples.append(costs.NET_RTT + outstanding * per_op)
        stats.duration_ns = clock.now() - start
        return stats.finish()

    def run_open_loop(self, machine, offered_rate: float, duration_ns: int,
                      batch_ops: int = 64) -> LoadStats:
        """Mutilate pegged at a fixed rate: arrivals are scheduled at
        1/rate spacing; ops queue FIFO while the server is busy (or
        stopped for a checkpoint)."""
        clock = machine.clock
        stats = LoadStats()
        start = clock.now()
        end = start + duration_ns
        interarrival = int(1e9 / offered_rate)
        arrived = 0       # index of next arrival to admit
        completed = 0
        total_arrivals = duration_ns // interarrival
        while clock.now() < end:
            machine.loop.run_pending()
            now = clock.now()
            arrived = min((now - start) // interarrival + 1,
                          total_arrivals)
            available = arrived - completed
            if available <= 0:
                if arrived >= total_arrivals:
                    break  # every op arrived and completed
                # Idle until the next arrival (letting checkpoint
                # timers fire on the way).
                next_arrival = start + arrived * interarrival
                deadline = min(max(next_arrival, now + 1), end)
                machine.loop.run_until(deadline)
                continue
            n = min(available, batch_ops)
            clock.advance(self._service_ns(n))
            self._dirty_for_ops(n)
            machine.loop.run_pending()
            done_at = clock.now()
            # FIFO latency for every op in this batch (delayed ops
            # drain in large batches; sampling them sparsely would
            # bias the average toward the uncongested path).
            for index in range(completed, completed + n):
                arrival = start + index * interarrival
                service = costs.MEMCACHED_OP_CPU
                latency = max(done_at - arrival, service) + costs.NET_RTT
                stats.samples.append(latency)
            completed += n
            stats.completed_ops += n
        stats.duration_ns = clock.now() - start
        return stats.finish()
