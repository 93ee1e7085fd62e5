"""The five workloads of the end-to-end benchmark.

Each workload is a class with three steps the harness times separately:

``setup()``    build the machine(s) and the application state and take
               the first full checkpoint (reported as ``setup_s``);
``run()``      the timed checkpoint phase;
``recover()``  crash, boot, restore, and compare what came back with
               what was durable (the timed restore phase).

Between ``run()`` and ``recover()`` the harness calls ``sample()``:
it reads the content the last *durable* checkpoint captured from the
live process, then scribbles writes no checkpoint captures — a restore
that returns them is as wrong as one that loses durable data.

The program only ever sees generated inputs: ``seed`` drives page
scatter, fd choice, working-set size and fleet arrivals/departures
through one ``random.Random`` per rep, so the same seed replays the
same run to the simulated nanosecond.

Import surface (everything else is reached through the objects these
return): ``repro.Machine``, ``repro.load_aurora``,
``repro.core.cluster.SLSCluster``, ``repro.core.events``,
``repro.apps.synthetic``, ``repro.units``.
"""

from __future__ import annotations

import random

from repro import Machine, load_aurora
from repro.apps.synthetic import PROFILES, SyntheticApp
from repro.core import events
from repro.core.cluster import SLSCluster
from repro.units import MSEC, PAGE_SIZE

from . import paper_ref

#: open(2) flags O_CREAT | O_RDWR (the kernel's fs module is outside
#: the pinned import surface; ``repro.apps.synthetic`` spells them the
#: same way).
O_CREAT_RDWR = 0x40 | 0x2

#: Pipeline stages, in order (per-stage simulated time is an exact
#: per-layer count).
STAGES = ("quiesce", "collapse", "shadow", "serialize", "seal", "resume",
          "flush", "commit")

#: Pages / files compared byte-for-byte after every restore.
VERIFY_SAMPLE = 64


class EventCursor:
    """Reads the structured event log without consuming it.

    The log is a bounded ring the flight recorder also snapshots, so
    the benchmark must not clear it; the cursor remembers the newest
    event it has seen and walks back to it.  Drained every driver step,
    the ring never wraps past the cursor — if it ever does, events were
    lost and the rep fails.
    """

    def __init__(self):
        self._last = None
        self.seen = 0
        self.wrapped = False

    def drain(self):
        ring = events.log().events
        fresh = []
        for event in reversed(ring):
            if event is self._last:
                break
            fresh.append(event)
        else:
            if self._last is not None and len(fresh) == ring.maxlen:
                self.wrapped = True
        if fresh:
            self._last = fresh[0]
            fresh.reverse()
            self.seen += len(fresh)
        return fresh


class Observed:
    """What one rep of a workload measured on the simulated clock."""

    def __init__(self):
        self.stop_ns = []          # one sample per checkpoint
        self.durable_ns = []       # one sample per durable checkpoint
        self.ckpts = 0             # checkpoints committed in run()
        self.user_bytes = 0        # dirtied by the application in run()
        self.resident_bytes = 0    # application data alive at the end
        self.attempted = 0         # checkpoints + dispatches + restores
        self.failures = []         # one line per failed operation
        self.restore_sim_ns = 0
        self.lazy_sim_ns = 0       # lazy restore(s), after the timed phases
        self.stage_ns = dict.fromkeys(STAGES, 0)
        self.stage_ckpts = 0
        #: Exact per-layer counts (``layer.metric`` -> number).
        self.counts = {}

    def record_sync(self, result, now_ns: int) -> None:
        """Account one synchronous disk checkpoint."""
        self.attempted += 1
        self.ckpts += 1
        self.stop_ns.append(result.stop_ns)
        self.durable_ns.append(now_ns - result.stages[0].start_ns)
        self.record_stages(result)
        self.count("kernel.vm.pages_dirtied", result.pages_flushed)
        self.count("core.serialize.records_written", result.records_written)
        self.count("core.serialize.records_skipped", result.records_skipped)
        self.user_bytes += result.pages_flushed * PAGE_SIZE

    def record_stages(self, result) -> None:
        for stage in result.stages:
            self.stage_ns[stage.name] += stage.end_ns - stage.start_ns
        self.stage_ckpts += 1

    def count(self, name: str, delta) -> None:
        self.counts[name] = self.counts.get(name, 0) + delta

    def fail(self, message: str) -> None:
        self.failures.append(message)


def verify(obs: Observed, what: str, expected, restored) -> None:
    """One restore verification: byte-for-byte or it is a failure."""
    obs.attempted += 1
    if expected != restored:
        bad = next((i for i, (a, b) in enumerate(zip(expected, restored))
                    if a != b), min(len(expected), len(restored)))
        obs.fail(f"{what}: restored content differs from the last "
                 f"durable checkpoint (first difference at item {bad})")


def lazy_restore(sls, result, gid: int):
    """Tear the eagerly restored incarnation down and restore the same
    checkpoint lazily (Table 6's *Rest Lazy* procedure)."""
    for proc in list(result.group.processes):
        result.group.remove_process(proc)
        proc.exit(0)
    sls.groups.pop(gid, None)
    return sls.restore(gid, lazy=True, periodic=False)


def open_pipe(kernel, proc, dups: int) -> None:
    """Give ``proc`` a pipe whose read end is dup'ed ``dups`` times.

    The bare fleet and cluster processes have a stop time no input
    moves; a seeded number of descriptor-table entries (0.3 simulated
    µs each) makes it part of the seeded input, as the open-file count
    is on the single-tenant workloads.
    """
    read_end, _write_end = kernel.pipe(proc)
    for _ in range(dups):
        kernel.dup(proc, read_end)


class Workload:
    """Common shape; see the module docstring."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.smoke = smoke
        # str seeds hash through sha512: stable across processes.
        self.rng = random.Random(f"{self.name}:{seed}")
        self.obs = Observed()
        self.cursor = EventCursor()
        self.machine = None

    def orchestrators(self):
        """The SLS of every simulated machine whose device, store and
        clock count (primary first)."""
        return [self.sls]

    def sim_now(self) -> int:
        return self.machine.clock.now()

    def tick(self) -> None:
        """Called once per loop iteration of a timed phase; the harness
        hangs its reference loop here (see ``harness.timed``)."""

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def sample(self) -> None:
        raise NotImplementedError

    def recover(self) -> None:
        raise NotImplementedError


# -- vm_wide / posix_wide ------------------------------------------------------------


class SingleTenant(Workload):
    """Closed loop, one tenant: dirty a seeded page/file set, take a
    synchronous checkpoint, repeat; the next checkpoint is issued only
    when the previous one is durable."""

    npages = 0
    nfds = 0
    history_limit = None
    runs = 0            # seeded runs touched per tick
    run_pages = 0       # pages per run
    fd_writes = 0       # seeded files written per tick
    ticks = 0
    smoke_ticks = 0

    def setup(self) -> None:
        if self.smoke:
            self.ticks = self.smoke_ticks
            self.npages //= 8
            self.nfds = max(1, self.nfds // 10)
            self.fd_writes //= 10
        # The open-file count is part of the seeded input (±0.2 %).
        jitter = self.nfds // 500
        self.nfds += self.rng.randrange(-jitter, jitter + 1)
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        kernel = self.machine.kernel
        self.proc = kernel.spawn(self.name)
        self.addr = self.proc.vmspace.mmap(self.npages * PAGE_SIZE,
                                           name="heap")
        self.proc.vmspace.fill(self.addr, self.npages,
                               seed=self.rng.getrandbits(30))
        kernel.mkdir(self.proc, "/e2e")
        self.fds = [kernel.open(self.proc, f"/e2e/f{i}", O_CREAT_RDWR)
                    for i in range(self.nfds)]
        for fd in self.fds:
            kernel.write(self.proc, fd, b"seed")
        self.file_bytes = 4 * self.nfds
        self.group = self.sls.attach(self.proc, periodic=False,
                                     history_limit=self.history_limit)
        # The first checkpoint captures the full image; steady state
        # starts after it.
        self.sls.checkpoint(self.group, sync=True)

    def run(self) -> None:
        obs, rng, clock = self.obs, self.rng, self.machine.clock
        kernel, vmspace, sls = self.machine.kernel, self.proc.vmspace, self.sls
        span = self.npages - self.run_pages
        for tick in range(self.ticks):
            self.tick()
            for _ in range(self.runs):
                start = rng.randrange(1, span)
                vmspace.touch(self.addr + start * PAGE_SIZE, self.run_pages,
                              seed=rng.getrandbits(30))
            vmspace.write(self.addr, b"canary-%06d" % tick)
            for fd in rng.sample(self.fds, self.fd_writes):
                obs.user_bytes += kernel.write(self.proc, fd,
                                               b"t%06d" % tick)
            obs.record_sync(sls.checkpoint(self.group, sync=True),
                            clock.now())
        self.file_bytes += self.fd_writes * 7 * self.ticks
        obs.resident_bytes = self.npages * PAGE_SIZE + self.file_bytes

    def _read_sample(self, kernel, proc):
        pages = [proc.vmspace.read(self.addr + page * PAGE_SIZE, PAGE_SIZE)
                 for page in self._pages]
        files = []
        for fd in self._files:
            kernel.lseek(proc, fd, 0)
            files.append(kernel.read(proc, fd, PAGE_SIZE))
        return pages, files

    def sample(self) -> None:
        rng, kernel = self.rng, self.machine.kernel
        # Page 0 is the canary; the rest is a seeded sample.
        self._pages = [0] + sorted(rng.sample(range(1, self.npages),
                                              VERIFY_SAMPLE))
        self._files = sorted(rng.sample(self.fds, min(VERIFY_SAMPLE,
                                                      self.nfds)))
        self._durable = self._read_sample(kernel, self.proc)
        # Writes no checkpoint captures: none may survive the crash.
        self.proc.vmspace.write(self.addr, b"LOST-not-checkpointed")
        for page in self._pages[1:9]:
            self.proc.vmspace.touch(self.addr + page * PAGE_SIZE, 1,
                                    seed=rng.getrandbits(30))
        for fd in self._files[:8]:
            kernel.write(self.proc, fd, b"LOST")

    def recover(self) -> None:
        obs, machine = self.obs, self.machine
        gid = self.group.group_id
        machine.crash()
        machine.boot()
        # The firmware + kernel boot is a 2 s constant no code change
        # can move; the restore clock starts after it.
        start = machine.clock.now()
        self.tick()
        self.sls = load_aurora(machine)
        self.tick()
        result = self.sls.restore(gid, periodic=False)
        obs.restore_sim_ns = machine.clock.now() - start
        self.tick()
        pages, files = self._read_sample(machine.kernel, result.root)
        verify(obs, "pages", self._durable[0], pages)
        verify(obs, "files", self._durable[1], files)
        obs.count("core.restore.pages_fetched", result.pages_restored)
        obs.count("core.restore.io_sim_us", result.io_ns)
        obs.count("core.restore.insert_sim_us", result.insert_ns)
        self._eager = result

    def lazy(self) -> None:
        """Lazy restore of the same checkpoint (run after the timed
        restore phase)."""
        result = lazy_restore(self.sls, self._eager, self.group.group_id)
        self.obs.lazy_sim_ns = result.elapsed_ns


class VmWide(SingleTenant):
    name = "vm_wide"
    why = ("512 MiB resident, 16 MiB dirtied per checkpoint, no history "
           "limit: kernel.vm, core.shadowing and page packing dominate, "
           "and the un-GC'd delta chain makes the eager restore page-bound")
    npages = 131072
    nfds = 16
    history_limit = None
    runs = 64
    run_pages = 64
    fd_writes = 0
    ticks = 32
    smoke_ticks = 4


class PosixWide(SingleTenant):
    name = "posix_wide"
    why = ("4000 open files, 1 % written per checkpoint, history 4: stop "
           "time tracks object count; core.serialize, slsfs, record "
           "encode and GC copy-forward do the work; restore is "
           "record-decode-bound")
    npages = 4096
    nfds = 4000
    history_limit = 4
    runs = 4
    run_pages = 16
    fd_writes = 40
    ticks = 16
    smoke_ticks = 3


# -- fleet_32 ----------------------------------------------------------------------------


#: (name, period ms, dirty pages per period) — memcached churns a small
#: hot set fast, redis snapshots more bytes less often, rocksdb flushes
#: the most per capture at the widest cadence (benchmarks/bench_fleet.py
#: calibrated these to the paper's applications).
FLEET_PROFILES = (("memcached", 25, 8), ("redis", 50, 16),
                  ("rocksdb", 100, 24))
FLEET_STEP_MS = 5
#: Per-tenant recovery-point budget, in periods: the latency limit of
#: the open loop.  A dispatch that misses it is a failed operation.
FLEET_RPO_PERIODS = 4


class Tenant:
    """One application under fleet scheduling.  Built during set-up;
    ``attach`` is the arrival."""

    def __init__(self, kernel, index: int, dups: int):
        self.profile, period_ms, self.pages = \
            FLEET_PROFILES[index % len(FLEET_PROFILES)]
        self.index = index
        self.period_ns = period_ms * MSEC
        self.name = f"{self.profile}{index}"
        self.proc = kernel.spawn(self.name)
        self.arena_pages = self.pages + 8
        self.addr = self.proc.vmspace.mmap(self.arena_pages * PAGE_SIZE,
                                           name="heap")
        self.proc.vmspace.fill(self.addr, self.arena_pages, seed=index)
        open_pipe(kernel, self.proc, dups)
        #: Untouched content of every page: a restored page is the
        #: step payload laid over this.
        self.base = [self.proc.vmspace.read(self.addr + p * PAGE_SIZE,
                                            PAGE_SIZE)
                     for p in range(self.arena_pages)]
        self.cursor = 0
        #: Step that last wrote each page (-1: never written).
        self.page_step = [-1] * self.arena_pages
        self.group = None
        #: page_step as of the checkpoint in flight / last committed.
        self.capturing = None
        self.durable = None
        self.captured_at = 0
        self._seen = (0, 0)     # (checkpoints, stop_ns_total) last read

    def attach(self, sls) -> None:
        self.group = sls.attach(
            self.proc, name=self.name, period_ns=self.period_ns,
            rpo_budget_ns=FLEET_RPO_PERIODS * self.period_ns,
            history_limit=4,
            demand_bytes_per_sec=(self.pages * PAGE_SIZE * 1000 * MSEC
                                  // self.period_ns))

    def payload(self, step: int, page: int) -> bytes:
        return b"%-10s:%06d:%03d" % (self.profile.encode(), step, page)

    def step(self, step_no: int) -> None:
        """Dirty the profile's share of pages for one driver step."""
        per_step = max(1, self.pages * FLEET_STEP_MS * MSEC
                       // self.period_ns)
        for _ in range(per_step):
            page = self.cursor % self.pages
            self.cursor += 1
            self.page_step[page] = step_no
            self.proc.vmspace.write(self.addr + page * PAGE_SIZE,
                                    self.payload(step_no, page))

    def expected(self):
        """Full content of every page as of the last durable commit."""
        out = []
        for page, step in enumerate(self.durable):
            base = self.base[page]
            if step < 0:
                out.append(base)
            else:
                payload = self.payload(step, page)
                out.append(payload + base[len(payload):])
        return out

    def stop_sample(self) -> float:
        """Mean stop time of the checkpoints taken since the last call
        (one, unless two dispatches shared a driver step)."""
        stats = self.group.stats
        now = (stats["checkpoints"], stats["stop_ns_total"])
        taken = now[0] - self._seen[0]
        stop = (now[1] - self._seen[1]) / taken if taken else 0
        self._seen = now
        return stop


class Fleet32(Workload):
    """Open loop on the simulated clock: every tenant's checkpoints are
    due on its own period whatever the store's backlog; the EDF
    scheduler is the load generator and a late dispatch is a miss."""

    name = "fleet_32"
    why = ("32 tenants, async flush, EDF scheduling: the commit path at "
           "catalog scale (catalog re-encode, free list, flight record, GC "
           "flips); the only workload where core.fleet and tail durable "
           "latency live")
    tenants = 32
    duration_ms = 300

    def setup(self) -> None:
        if self.smoke:
            self.duration_ms = 100
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        kernel = self.machine.kernel
        self.steps = self.duration_ms // FLEET_STEP_MS
        rng, steps, tenants = self.rng, self.steps, self.tenants
        # Three quarters attach up front, the rest arrive through the
        # first half of the run; an eighth departs in the second half.
        # Both schedules are evenly spaced with a seeded jitter of one
        # driver step, so every seed offers the same tenant-seconds.
        upfront = tenants * 3 // 4
        half = steps // 2
        late, leaving = tenants - upfront, tenants // 8
        self.late_at = sorted(
            (k + 1) * half // (late + 1) + rng.randrange(-1, 2)
            for k in range(late))
        self.depart_at = sorted(
            half + (k + 1) * half // (leaving + 1) + rng.randrange(-1, 2)
            for k in range(leaving))
        dups = rng.randrange(4)      # fleet-wide, so the median moves
        self.all = [Tenant(kernel, index, dups)
                    for index in range(tenants)]
        self.live = self.all[:upfront]
        self.waiting = self.all[upfront:]
        self.departed = []
        for tenant in self.live:
            tenant.attach(self.sls)

    def _observe(self) -> None:
        """Fold the events of one driver step into the samples."""
        obs = self.obs
        by_gid = self._by_gid
        for event in self.cursor.drain():
            tenant = by_gid.get(event.fields.get("group"))
            if tenant is None:
                continue
            if event.kind == events.CKPT_START:
                tenant.capturing = list(tenant.page_step)
                tenant.captured_at = event.time_ns
                obs.stop_ns.append(tenant.stop_sample())
            elif event.kind == events.CKPT_COMMIT:
                tenant.durable = tenant.capturing
                obs.ckpts += 1
                obs.durable_ns.append(event.time_ns - tenant.captured_at)
                info = self.sls.store.checkpoints[event.fields["ckpt"]]
                obs.count("core.serialize.records_skipped",
                          info.records_skipped)
            elif event.kind in (events.CKPT_FAIL, events.CKPT_ABORT):
                obs.fail(f"{tenant.name}: {event.kind}")

    def run(self) -> None:
        rng, sls, machine = self.rng, self.sls, self.machine
        self._by_gid = {t.group.group_id: t for t in self.live}
        self.cursor.drain()         # set-up events are not samples
        for step_no in range(self.steps):
            self.tick()
            while self.late_at and self.late_at[0] <= step_no:
                self.late_at.pop(0)
                tenant = self.waiting.pop(0)
                tenant.attach(sls)
                self._by_gid[tenant.group.group_id] = tenant
                self.live.append(tenant)
            while self.depart_at and self.depart_at[0] <= step_no:
                self.depart_at.pop(0)
                # Departures rotate through the profiles so every seed
                # keeps the same application mix; which tenant of the
                # profile leaves is seeded.
                profile = FLEET_PROFILES[len(self.departed)
                                         % len(FLEET_PROFILES)][0]
                victim = rng.choice([t for t in self.live
                                     if t.profile == profile])
                self.live.remove(victim)
                sls.detach(victim.group)
                self.departed.append(victim)
            for tenant in self.live:
                tenant.step(step_no)
            machine.run_for(FLEET_STEP_MS * MSEC)
            self._observe()
        self._account()

    def _account(self) -> None:
        obs, sls = self.obs, self.sls
        attached = self.live + self.departed
        dispatches = sum(t.group.dispatches for t in attached)
        misses = sum(t.group.deadline_misses for t in attached)
        skips = sum(t.group.flush_skips for t in attached)
        summary = sls.fleet.summary()
        widens = summary["backpressure_widens"]
        rejects = summary["admission_rejects"]
        obs.attempted += dispatches
        for label, n in (("deadline miss", misses), ("flush skip", skips),
                         ("backpressure widen", widens),
                         ("admission reject", rejects)):
            obs.failures.extend([f"fleet: {label}"] * n)
        if self.cursor.wrapped:
            obs.fail("event ring wrapped between two driver steps")
        pages = sum(t.group.stats["pages_flushed"] for t in attached)
        obs.user_bytes = pages * PAGE_SIZE
        obs.resident_bytes = sum(t.arena_pages for t in attached) * PAGE_SIZE
        obs.count("kernel.vm.pages_dirtied", pages)
        obs.count("core.serialize.records_written",
                  sum(t.group.stats["records_written"] for t in attached))
        obs.count("core.fleet.dispatches", dispatches)
        obs.count("core.fleet.deadline_misses", misses)
        obs.count("core.fleet.widens", widens)
        obs.count("core.fleet.rejects", rejects)
        obs.count("core.fleet.time_util", summary["time_util"])
        obs.count("core.fleet.jain", summary["fairness"]["jain"])

    def sample(self) -> None:
        # The durable content of every tenant is already known from the
        # commit events; scribble so the crash has something to lose.
        for tenant in self.live:
            tenant.step(self.steps)

    def recover(self) -> None:
        obs, machine = self.obs, self.machine
        machine.crash()
        machine.boot()
        start = machine.clock.now()
        self.sls = load_aurora(machine)
        for tenant in self.live:
            if tenant.durable is None:
                continue        # arrived too late to commit anything
            self.tick()
            result = self.sls.restore(tenant.group.group_id, periodic=False)
            vmspace = result.root.vmspace
            restored = [vmspace.read(tenant.addr + page * PAGE_SIZE,
                                     PAGE_SIZE)
                        for page in range(tenant.arena_pages)]
            verify(obs, tenant.name, tenant.expected(), restored)
            obs.count("core.restore.pages_fetched", result.pages_restored)
            obs.count("core.restore.io_sim_us", result.io_ns)
            obs.count("core.restore.insert_sim_us", result.insert_ns)
        obs.restore_sim_ns = machine.clock.now() - start


# -- cluster_6 --------------------------------------------------------------------------


class Cluster6(Workload):
    """Closed loop over the quorum cluster: a checkpoint counts as
    durable at the W-th acknowledgement, and the loop issues the next
    one only after the pump that acknowledged it returns."""

    name = "cluster_6"
    why = ("6 nodes / 3 AZs, W=4, 1 KiB segments, an AZ outage half-way: "
           "the only workload where core.cluster, core.segments and "
           "hw.nic run; durability is the W-th quorum ack and restore is "
           "a failover")
    nodes = 6
    azs = 3
    segment_bytes = 1024
    heap_pages = 64
    dirty_pages = 4
    steps = 48

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        #: Commit-seen → quorum-ack lag of every acknowledged step.
        self.lags = []

    def setup(self) -> None:
        if self.smoke:
            self.steps = 6
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        kernel = self.machine.kernel
        self.proc = kernel.spawn("cluster")
        open_pipe(kernel, self.proc, dups=self.rng.randrange(4))
        self.offset = self.rng.randrange(self.heap_pages)
        vmspace = self.proc.vmspace
        self.addr = vmspace.mmap(self.heap_pages * PAGE_SIZE, name="heap")
        vmspace.fill(self.addr, self.heap_pages,
                     seed=self.rng.getrandbits(30))
        self.group = self.sls.attach(self.proc, name="cluster",
                                     periodic=False)
        self.cluster = SLSCluster(self.sls, self.group, nodes=self.nodes,
                                  azs=self.azs,
                                  segment_bytes=self.segment_bytes)
        #: The primary's (reference) clock, then every node's own.
        self.clocks = [sls.machine.clock for sls in self.orchestrators()]
        self.step_of = {}
        self._step(-1)
        self.cluster.pump()

    def orchestrators(self):
        return [self.sls] + [node.sls for node in self.cluster.nodes]

    def sim_now(self) -> int:
        # Every node keeps its own clock; a span's simulated time is
        # whatever it advanced on any of them.
        return sum(clock.now() for clock in self.clocks)

    def _step(self, step: int):
        """Dirty this step's pages and checkpoint synchronously."""
        vmspace = self.proc.vmspace
        vmspace.write(self.addr, b"cluster-step-%04d" % step)
        # The canary page plus a window that walks the heap from a
        # seeded offset: every seed rewrites pages at the same cadence,
        # so the delta chain a failover reads has the same shape.
        span, width = self.heap_pages - 1, self.dirty_pages - 1
        for j in range(width):
            page = 1 + (self.offset + (step + 1) * width + j) % span
            vmspace.write(self.addr + page * PAGE_SIZE,
                          b"cluster-step-%04d:%d" % (step, page))
        result = self.sls.checkpoint(self.group, sync=True)
        self.step_of[result.info.ckpt_id] = step
        return result

    def run(self) -> None:
        obs, cluster = self.obs, self.cluster
        self.cursor.drain()
        for step in range(self.steps):
            self.tick()
            if step == self.steps // 2:
                self.downed = cluster.az_down(1, reason="bench")
            result = self._step(step)
            obs.record_sync(result, 0)
            obs.durable_ns.pop()        # durable at the quorum ack instead
            cluster.pump()
            captured = result.stages[0].start_ns
            acked = False
            for event in self.cursor.drain():
                if (event.kind == events.QUORUM_ACK
                        and event.fields["ckpt"] == result.info.ckpt_id):
                    obs.durable_ns.append(event.time_ns - captured)
                    self.lags.append(event.fields["lag_ns"])
                    acked = True
            if not acked:
                obs.count("core.cluster.stalled_ckpts", 1)
                obs.fail(f"step {step}: no write quorum acknowledged it")
        obs.resident_bytes = self.heap_pages * PAGE_SIZE
        obs.count("core.cluster.interaz_bytes_per_ckpt",
                  cluster.inter_az_bytes / max(1, obs.ckpts))
        for sls in self.orchestrators():
            obs.count("hw.nic.sends", sls.machine.nic.packets_sent)
            obs.count("hw.nic.bytes", sls.machine.nic.bytes_sent)

    def sample(self) -> None:
        obs, cluster = self.obs, self.cluster
        # Bring the AZ back and rebuild its copies before the primary
        # dies (the repair is part of the recovery story, timed apart).
        for node_id in self.downed:
            cluster.node_up(node_id)
        report = cluster.repair()
        obs.count("core.cluster.repair_segments", report["segments"])
        # The exact maximum: the report's own percentile is a log2
        # bucket edge.
        mttr = self.sls.telemetry.histogram(
            "sls.cluster.repair.segment_mttr", group=self.group.group_id)
        obs.count("core.cluster.repair_mttr_us_max", mttr.max / 1000)
        self.acked_step = self.step_of[cluster.durable]
        vmspace = self.proc.vmspace
        self._pages = range(self.heap_pages)
        self._durable = [vmspace.read(self.addr + page * PAGE_SIZE,
                                      PAGE_SIZE) for page in self._pages]
        # One more commit the primary never ships: it is not
        # quorum-acknowledged, so failover must not return it.
        self._step(self.steps)

    def recover(self) -> None:
        obs, cluster = self.obs, self.cluster
        if self.acked_step != self.steps - 1:
            obs.fail(f"quorum watermark at step {self.acked_step} after "
                     f"repair, expected {self.steps - 1}")
        before = [clock.now() for clock in self.clocks]
        self.machine.crash()
        promoted = cluster.failover()
        after = [clock.now() for clock in self.clocks]
        # Coordinator time on the reference clock plus the slowest
        # node's own time (the promoted node's restore).
        obs.restore_sim_ns = (after[0] - before[0]) + max(
            b - a for a, b in zip(before[1:], after[1:]))
        vmspace = promoted.root.vmspace
        restored = [vmspace.read(self.addr + page * PAGE_SIZE, PAGE_SIZE)
                    for page in self._pages]
        verify(obs, "failover", self._durable, restored)
        step = int(restored[0][:17].rsplit(b"-", 1)[1])
        obs.attempted += 1
        if step != self.acked_step:
            obs.fail(f"failover restored step {step}, last quorum-acked "
                     f"step is {self.acked_step}: "
                     f"{self.acked_step - step} acknowledged "
                     f"checkpoint(s) lost")
        obs.count("core.restore.pages_fetched", promoted.pages_restored)
        obs.count("core.restore.io_sim_us", promoted.io_ns)
        obs.count("core.restore.insert_sim_us", promoted.insert_ns)


# -- paper_apps ------------------------------------------------------------------------


class PaperApp:
    """One Table 6 application on its own machine."""

    def __init__(self, name: str):
        self.name = name
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        self.app = SyntheticApp(self.machine.kernel, PROFILES[name])
        self.group = self.sls.attach(self.app.root, periodic=False)
        self.sls.checkpoint(self.group, sync=True)      # baseline


class PaperApps(Workload):
    """Table 6's procedure on its five application profiles: an idle
    tick then a memory checkpoint, a full one, an incremental one; a
    crash; a full restore and a lazy restore."""

    name = "paper_apps"
    why = ("Table 6's five application profiles (threads, sockets, pipes, "
           "kqueues, shm): a realistic object mix and the accuracy "
           "anchor against the paper's published numbers")

    def setup(self) -> None:
        names = paper_ref.APPS[1:3] if self.smoke else paper_ref.APPS
        self.apps = [PaperApp(name) for name in names]
        self.machine = self.apps[0].machine
        self.measured_ms = {}

    def orchestrators(self):
        return [app.sls for app in self.apps]

    def sim_now(self) -> int:
        return sum(app.machine.clock.now() for app in self.apps)

    def _idle(self, app: PaperApp, tick: int) -> None:
        """Table 6's applications are "mostly idle": the profile's
        idle working set plus a few seeded stray pages."""
        rng = self.rng
        app.app.idle_tick(seed=tick)
        for _ in range(rng.randrange(1, 9)):
            proc, addr, npages = rng.choice(app.app.regions)
            proc.vmspace.touch(addr + rng.randrange(npages) * PAGE_SIZE, 1,
                               seed=rng.getrandbits(30))

    def run(self) -> None:
        obs = self.obs
        for app in self.apps:
            sls, group, clock = app.sls, app.group, app.machine.clock
            self.tick()
            self._idle(app, 1)
            mem = sls.checkpoint(group, mode="mem")
            obs.attempted += 1
            obs.stop_ns.append(mem.stop_ns)
            obs.record_stages(mem)
            self.tick()
            self._idle(app, 2)
            full = sls.checkpoint(group, full=True, sync=True)
            obs.record_sync(full, clock.now())
            self.tick()
            self._idle(app, 3)
            incr = sls.checkpoint(group, sync=True)
            obs.record_sync(incr, clock.now())
            self.measured_ms[app.name] = [mem.stop_ns / MSEC,
                                          full.stop_ns / MSEC,
                                          incr.stop_ns / MSEC]
            obs.resident_bytes += app.app.resident_pages() * PAGE_SIZE

    def _read_sample(self, app: PaperApp, procs):
        by_pid = {proc.pid: proc for proc in procs}
        return [by_pid[pid].vmspace.read(addr, PAGE_SIZE)
                for pid, addr in app.sampled]

    def sample(self) -> None:
        rng = self.rng
        for app in self.apps:
            app.sampled = []
            for _ in range(VERIFY_SAMPLE):
                proc, addr, npages = rng.choice(app.app.regions)
                app.sampled.append(
                    (proc.pid, addr + rng.randrange(npages) * PAGE_SIZE))
            app.durable = self._read_sample(app, app.app.procs)
            for pid, addr in app.sampled[:8]:
                proc = next(p for p in app.app.procs if p.pid == pid)
                proc.vmspace.write(addr, b"LOST-not-checkpointed")

    def recover(self) -> None:
        obs = self.obs
        self._eager = []
        for app in self.apps:
            machine, gid = app.machine, app.group.group_id
            self.tick()
            machine.crash()
            machine.boot()
            start = machine.clock.now()
            app.sls = load_aurora(machine)
            result = app.sls.restore(gid, periodic=False)
            obs.restore_sim_ns += machine.clock.now() - start
            verify(obs, app.name, app.durable,
                    self._read_sample(app, result.processes))
            # "Mem" restore: the OS-state-only part (no store reads, no
            # page inserts), as benchmarks/bench_table6 derives it.
            self.measured_ms[app.name] += [
                (result.elapsed_ns - result.io_ns - result.insert_ns) / MSEC,
                result.elapsed_ns / MSEC]
            obs.count("core.restore.pages_fetched", result.pages_restored)
            obs.count("core.restore.io_sim_us", result.io_ns)
            obs.count("core.restore.insert_sim_us", result.insert_ns)
            self._eager.append(result)

    def lazy(self) -> None:
        for app, eager in zip(self.apps, self._eager):
            result = lazy_restore(app.sls, eager, app.group.group_id)
            self.measured_ms[app.name].append(result.elapsed_ns / MSEC)
            self.obs.lazy_sim_ns += result.elapsed_ns
        if not self.smoke:
            self.obs.count("paper.err_pct",
                           paper_ref.err_pct(self.measured_ms))


WORKLOADS = {cls.name: cls
             for cls in (VmWide, PosixWide, Fleet32, Cluster6, PaperApps)}
