"""Rep loop, statistics, determinism guard and metric assembly.

One *rep* is one complete run of a workload on fresh machines:
set-up, the timed checkpoint phase, a sample of the durable content,
the timed crash → restore → verify phase.  An invocation repeats reps
with the same seed until ``--seconds`` have passed (at least
:data:`MIN_REPS`), then reports

* host-clock metrics as the **median over reps**, and
* simulated-clock metrics and exact counts from the first rep, after
  checking that **every rep produced identical ones** — the simulation
  is deterministic, so any difference is a bug and fails the run.

End-to-end metrics come from plain reps only.  ``--trace 1`` runs
cycles of three reps — plain, traced (:mod:`.trace` wrappers
installed) and quiet (``telemetry.set_enabled(False)``) — for the
per-layer numbers, the tracing overhead and the cost of observability.
"""

from __future__ import annotations

import gc
import resource
import time
from statistics import median

from repro.core import telemetry
from repro.units import PAGE_SIZE

from . import trace as trace_mod
from .workloads import STAGES, WORKLOADS

MIN_REPS = 3

PLAIN, TRACED, QUIET = "plain", "traced", "quiet"

#: End-to-end metrics: (name, unit, regression bound as a share of the
#: parent's median).  Lower is better for all of them.  Simulated-clock
#: metrics repeat exactly for one seed; their bound only has to absorb
#: the spread *between* seeds.
E2E_METRICS = (
    ("sim_stop_us_p50", "us", 0.02),
    ("sim_stop_us_p95", "us", 0.02),
    ("sim_durable_us_p50", "us", 0.06),
    ("sim_durable_us_p95", "us", 0.15),
    ("sim_restore_ms", "ms", 0.02),
    ("write_amp", "x", 0.05),
    ("space_amp", "x", 0.06),
    ("wall_ms_per_ckpt", "ms", 0.25),
    ("restore_wall_ms", "ms", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.10),
)

#: Layers that run in the restore phase / that advance the simulated
#: clock themselves; the others would only report zeros there.
RESTORE_LAYERS = ("kernel.vm", "kernel.fs", "core.orchestrator",
                  "core.restore", "core.cluster", "objstore.store",
                  "objstore.records", "serde", "slsfs", "hw.nvme",
                  trace_mod.DRIVER)
SIM_LAYERS = ("kernel.vm", "kernel.fs", "core.quiesce", "core.shadowing",
              "core.serialize", "core.pipeline", "core.cluster",
              "objstore.store", "objstore.gc", "slsfs", "hw.nvme",
              "hw.clock", trace_mod.DRIVER)
SIM_RESTORE_LAYERS = ("core.restore", "objstore.store", "hw.nvme")

#: Exact counts: repeat for one seed, available without tracing unless
#: marked (traced) below.
COUNT_METRICS = (
    ("kernel.vm.pages_dirtied", "count"),
    ("core.shadowing.dirty_runs", "count"),
    ("core.shadowing.pages_flushed", "count"),
    ("core.serialize.records_written", "count"),
    ("core.serialize.records_skipped", "count"),
    ("core.serialize.skip_ratio", "ratio"),
    ("objstore.store.commits", "count"),
    ("objstore.store.data_bytes", "B"),
    ("objstore.store.meta_bytes_per_ckpt", "B"),
    ("objstore.store.chain_depth_max", "count"),
    ("objstore.store.used_bytes", "B"),
    ("objstore.gc.deleted_ckpts", "count"),            # traced
    ("objstore.gc.reclaimed_bytes", "B"),
    ("serde.bytes_encoded_per_ckpt", "B"),             # traced
    ("serde.bytes_decoded_per_restore", "B"),          # traced
    ("core.flightrec.snapshots", "count"),             # traced
    ("core.flightrec.bytes_encoded_per_ckpt", "B"),    # traced
    ("hw.nvme.writes", "count"),
    ("hw.nvme.bytes_written", "B"),
    ("hw.nvme.reads", "count"),
    ("hw.nvme.bytes_read", "B"),
    ("hw.nic.sends", "count"),
    ("hw.nic.bytes", "B"),
    ("core.cluster.interaz_bytes_per_ckpt", "B"),
    ("core.cluster.quorum_lag_us_p50", "us"),
    ("core.cluster.quorum_lag_us_max", "us"),
    ("core.cluster.stalled_ckpts", "count"),
    ("core.cluster.repair_segments", "count"),
    ("core.cluster.repair_mttr_us_max", "us"),
    ("core.fleet.dispatches", "count"),
    ("core.fleet.deadline_misses", "count"),
    ("core.fleet.widens", "count"),
    ("core.fleet.rejects", "count"),
    ("core.fleet.time_util", "ratio"),
    ("core.fleet.jain", "ratio"),
    ("core.restore.objects", "count"),                 # traced
    ("core.restore.pages_fetched", "count"),
    ("core.restore.io_sim_us", "us"),
    ("core.restore.insert_sim_us", "us"),
    ("core.restore.lazy_sim_ms", "ms"),
    ("paper.err_pct", "%"),
    ("ops.failed_share", "ratio"),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in print order."""
    out = []
    for layer in trace_mod.LAYERS:
        out.append((f"{layer}.ckpt.self_wall_ms", "ms"))
        if layer in RESTORE_LAYERS:
            out.append((f"{layer}.restore.self_wall_ms", "ms"))
        if layer in SIM_LAYERS:
            out.append((f"{layer}.ckpt.self_sim_us", "us"))
        if layer in SIM_RESTORE_LAYERS:
            out.append((f"{layer}.restore.self_sim_us", "us"))
        if layer != trace_mod.DRIVER:
            out.append((f"{layer}.calls", "count"))
    out += [(f"core.pipeline.{stage}.sim_us_mean", "us") for stage in STAGES]
    out += list(COUNT_METRICS)
    out += [("core.restore.lazy_wall_ms", "ms"),
            ("core.observe.wall_ratio_on_off", "ratio"),
            ("trace.overhead_pct", "%"),
            ("trace.coverage_pct", "%")]
    return out


PER_LAYER_METRICS = tuple(per_layer_metrics())


def percentile(samples, p: float):
    """Exact nearest-rank percentile over the raw samples: the smallest
    sample with at least ``p`` percent of the samples at or below it.
    Always one of the samples, so p50 ≤ p95 ≤ max by construction."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))      # ceil, at least 1
    return ordered[int(rank) - 1]


class Rep:
    """Everything one rep measured."""

    def __init__(self, mode: str):
        self.mode = mode
        self.host = {}          # host-clock values (vary run to run)
        self.sim = {}           # must repeat exactly, rep to rep
        self.digest = {}        # must also match with telemetry off
        self.traced = {}        # exact values only the wrappers see
        self.attempted = 0
        self.failures = []
        self.tracer = None
        self.factors = {}       # phase -> reference-speed factor
        self.pulse_s = {}       # phase -> seconds of interleaved pulses


def _device_totals(orchestrators):
    """(bytes written, bytes read, write commands, read commands)."""
    written = read = writes = reads = 0
    for sls in orchestrators:
        storage = sls.machine.storage
        written += storage.bytes_written
        read += storage.bytes_read
        for device in storage.devices:
            writes += device.write_commands
            reads += device.read_commands
    return written, read, writes, reads


def _chain_depth_max(store) -> int:
    depth = {}
    for ckpt_id in sorted(store.checkpoints):       # parents come first
        parent = store.checkpoints[ckpt_id].parent
        depth[ckpt_id] = depth.get(parent, 0) + 1
    return max(depth.values(), default=0)


def _store_totals(orchestrators):
    """(commits, bytes flushed, bytes reclaimed, dirty runs) so far."""
    commits = flushed = reclaimed = runs = 0
    for sls in orchestrators:
        commits += sls.store.stats["commits"]
        flushed += sls.store.stats["bytes_flushed"]
        reclaimed += sls.store.stats["reclaimed_bytes"]
        runs += sls.shadow.stats["dirty_runs"]
    return commits, flushed, reclaimed, runs


#: The reference loop: a fixed piece of pure-Python work, independent of
#: the program, run between the ticks of every timed phase.  This box's
#: CPU speed wanders by ±20 % on a scale of seconds (the same loop reads
#: 1.7–2.5 ms from one half-second to the next), which no amount of
#: repetition inside a 10 s run averages out; the time the program takes
#: *relative to the reference loop interleaved with it* is steady to
#: about 2 %.  Host-clock metrics are therefore reported at reference
#: speed: measured time × (REF_PULSE_S ÷ measured time per pulse).
REF_PULSE_S = 0.002
#: Pulses before and after each timed phase (phases with no loop of
#: their own, like a single restore, are bracketed only).
BRACKET = 8


def _reference_pulse() -> int:
    table = {}
    for i in range(20000):
        table[i & 1023] = (i * 2654435761) & 0xFFFFFFFF
    acc = 0
    for value in table.values():
        acc ^= value
    return acc


class Meter:
    """Accumulates the reference loop's time over one timed phase."""

    def __init__(self):
        self.spent = 0.0
        self.pulses = 0

    def pulse(self, times: int = 1) -> None:
        start = time.perf_counter()
        for _ in range(times):
            _reference_pulse()
        self.spent += time.perf_counter() - start
        self.pulses += times


def timed(work, phase, tracer=None):
    """Run ``phase()`` bracketed by (and, through ``work.tick``,
    interleaved with) the reference loop.

    Returns ``(seconds at reference speed, speed factor, seconds the
    interleaved pulses took)``; the program's own measured time is
    ``seconds ÷ factor``.
    """
    meter = Meter()
    work.tick = meter.pulse
    gc.collect()
    meter.pulse(BRACKET)
    bracket = meter.spent
    if tracer:
        tracer.begin(phase.__name__)
    start = time.perf_counter()
    phase()
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end()
    inside = meter.spent - bracket
    meter.pulse(BRACKET)
    factor = REF_PULSE_S * meter.pulses / meter.spent
    return (elapsed - inside) * factor, factor, inside


def run_rep(name: str, seed: int, smoke: bool, mode: str) -> Rep:
    """One rep of workload ``name``.  A quiet rep (telemetry off) stops
    after the checkpoint phase: without the event log the benchmark
    cannot tell what was durable, so it has nothing to verify."""
    telemetry.reset()
    telemetry.set_enabled(mode != QUIET)
    rep = Rep(mode)
    work = WORKLOADS[name](seed, smoke)
    obs = work.obs
    host = rep.host
    try:
        host["setup_s"], rep.factors["setup"], _ = timed(work, work.setup)

        if mode == TRACED:
            rep.tracer = trace_mod.Tracer(work.sim_now)
            rep.tracer.install()
        dev0 = _device_totals(work.orchestrators())
        store0 = _store_totals(work.orchestrators())
        host["run_s"], rep.factors["run"], rep.pulse_s["run"] = \
            timed(work, work.run, rep.tracer)

        dev1 = _device_totals(work.orchestrators())
        store1 = _store_totals(work.orchestrators())
        used = sum(sls.store.used_bytes() for sls in work.orchestrators())
        rep.digest = {
            "sim_clock_ns": work.sim_now(),
            "storage.bytes_written": dev1[0],
            "storage.bytes_read": dev1[1],
            "store.used_bytes": used,
        }
        # Samples the workload takes from checkpoint results (not from
        # the event log) are there with telemetry off as well.
        if obs.stop_ns:
            rep.digest["stop_ns_sum"] = sum(obs.stop_ns)
        if obs.durable_ns:
            rep.digest["durable_ns_sum"] = sum(obs.durable_ns)
        if mode == QUIET:
            return rep

        chain_depth = max(_chain_depth_max(sls.store)
                          for sls in work.orchestrators())
        work.sample()
        host["recover_s"], rep.factors["recover"], rep.pulse_s["recover"] = \
            timed(work, work.recover, rep.tracer)
        dev2 = _device_totals(work.orchestrators())
    finally:
        if rep.tracer:
            rep.tracer.uninstall()
        telemetry.set_enabled(True)

    if hasattr(work, "lazy"):
        host["lazy_s"] = timed(work, work.lazy)[0]

    rep.attempted = obs.attempted
    rep.failures = list(obs.failures)
    ckpts = max(1, obs.ckpts)
    host["wall_ms_per_ckpt"] = host["run_s"] * 1000 / ckpts
    host["restore_wall_ms"] = host["recover_s"] * 1000

    sim = rep.sim
    sim.update(rep.digest)
    sim["events_seen"] = work.cursor.seen
    sim["stop_samples"] = len(obs.stop_ns)
    sim["durable_samples"] = len(obs.durable_ns)
    sim["ckpts"] = obs.ckpts
    for label, samples in (("stop", obs.stop_ns),
                           ("durable", obs.durable_ns)):
        for p in (50, 95):
            value = percentile(samples, p)
            sim[f"sim_{label}_us_p{p}"] = (value / 1000
                                           if value is not None else None)
    sim["sim_restore_ms"] = obs.restore_sim_ns / 1e6
    device_bytes = dev1[0] - dev0[0]
    sim["write_amp"] = device_bytes / obs.user_bytes
    sim["space_amp"] = used / obs.resident_bytes

    for stage in STAGES:
        sim[f"core.pipeline.{stage}.sim_us_mean"] = (
            obs.stage_ns[stage] / 1000 / max(1, obs.stage_ckpts))
    counts = dict.fromkeys((n for n, _unit in COUNT_METRICS), 0)
    counts.update(obs.counts)
    pages = counts["kernel.vm.pages_dirtied"]
    written = counts["core.serialize.records_written"]
    skipped = counts["core.serialize.records_skipped"]
    commits = store1[0] - store0[0]
    lags = getattr(work, "lags", [])
    counts.update({
        "core.shadowing.dirty_runs": store1[3] - store0[3],
        "core.shadowing.pages_flushed": pages,
        "core.serialize.skip_ratio": skipped / max(1, written + skipped),
        "objstore.store.commits": commits,
        "objstore.store.data_bytes": store1[1] - store0[1],
        "objstore.store.meta_bytes_per_ckpt":
            (device_bytes - pages * PAGE_SIZE) / max(1, commits),
        "objstore.store.chain_depth_max": chain_depth,
        "objstore.store.used_bytes": used,
        "objstore.gc.reclaimed_bytes": store1[2] - store0[2],
        "hw.nvme.writes": dev1[2] - dev0[2],
        "hw.nvme.bytes_written": device_bytes,
        "hw.nvme.reads": dev2[3] - dev1[3],
        "hw.nvme.bytes_read": dev2[1] - dev1[1],
        "core.cluster.quorum_lag_us_p50": (percentile(lags, 50) or 0) / 1000,
        "core.cluster.quorum_lag_us_max": (percentile(lags, 100) or 0) / 1000,
        "core.restore.io_sim_us": counts["core.restore.io_sim_us"] / 1000,
        "core.restore.insert_sim_us":
            counts["core.restore.insert_sim_us"] / 1000,
        "core.restore.lazy_sim_ms": obs.lazy_sim_ns / 1e6,
        "ops.failed_share": len(obs.failures) / max(1, obs.attempted),
    })
    sim.update(counts)
    if rep.tracer:
        _fold_trace(rep, ckpts)
    return rep


def _fold_trace(rep: Rep, ckpts: int) -> None:
    """Turn the traced rep's spans into per-layer numbers."""
    tracer = rep.tracer
    traced = rep.traced
    host = rep.host
    calls = dict.fromkeys(trace_mod.LAYERS, 0)
    total = driver = 0.0
    for phase, spans in tracer.phases.items():
        factor = rep.factors[phase]
        per_layer = trace_mod.self_times(spans)
        # The interleaved reference pulses ran inside the root span.
        per_layer[trace_mod.DRIVER][0] -= rep.pulse_s[phase]
        label = "ckpt" if phase == "run" else "restore"
        for layer in trace_mod.LAYERS:
            wall, sim_ns, ncalls = per_layer.get(layer, (0.0, 0, 0))
            host[f"{layer}.{label}.self_wall_ms"] = wall * factor * 1000
            traced[f"{layer}.{label}.self_sim_us"] = sim_ns / 1000
            calls[layer] += ncalls
            total += wall
        driver += per_layer[trace_mod.DRIVER][0]
        if phase == "run":
            traced["objstore.gc.deleted_ckpts"] = \
                per_layer.get("objstore.gc", (0, 0, 0))[2]
            traced["core.flightrec.snapshots"] = \
                per_layer.get("core.flightrec", (0, 0, 0))[2]
    for layer, ncalls in calls.items():
        traced[f"{layer}.calls"] = ncalls
    payload = tracer.payload
    traced["serde.bytes_encoded_per_ckpt"] = \
        payload.get(("run", "serde.dumps"), 0) / ckpts
    traced["serde.bytes_decoded_per_restore"] = \
        payload.get(("recover", "serde.loads"), 0)
    traced["core.flightrec.bytes_encoded_per_ckpt"] = \
        payload.get(("run", "flightrec.encode"), 0) / ckpts
    traced["core.restore.objects"] = \
        payload.get(("recover", "restore.objects"), 0)
    for layer in tracer.unresolved:
        for values in (host, traced):
            for key in values:
                if key.startswith(layer + ".") and key in _TRACED_NAMES:
                    values[key] = None
    # Share of the traced phases some layer other than the driver
    # accounts for.
    host["trace.coverage_pct"] = 100.0 * (total - driver) / total


_TRACED_NAMES = {name for name, _unit in PER_LAYER_METRICS
                 if name.endswith((".self_wall_ms", ".self_sim_us", ".calls"))}


def first_difference(a: dict, b: dict):
    """First key (sorted) on which two sim dicts disagree, or None.
    Keys missing on either side are not compared."""
    for key in sorted(a.keys() & b.keys()):
        if a[key] != b[key]:
            return key, a[key], b[key]
    return None


class Outcome:
    """The result of one invocation: what the contract line reports."""

    def __init__(self):
        self.metrics = {}       # name -> (value, unit); value None = n/a
        self.attempted = 0
        self.failed = 0
        self.errors = []        # why ``correct`` is false
        self.notes = []         # sample counts etc., for the printout
        self.reps = 0

    @property
    def correct(self) -> bool:
        return not self.errors


def _check_repeats(outcome: Outcome, reps, field: str, what: str) -> None:
    first = getattr(reps[0], field)
    for index, rep in enumerate(reps[1:], start=1):
        diff = first_difference(first, getattr(rep, field))
        if diff is not None:
            key, a, b = diff
            outcome.errors.append(
                f"determinism: {what} rep 0 ({reps[0].mode}) and rep "
                f"{index} ({rep.mode}) differ first at {key}: {a} != {b}")
            return


def _collect_failures(outcome: Outcome, reps) -> None:
    # Reps repeat the same operations; report one rep's worth.
    outcome.attempted = reps[0].attempted
    outcome.failed = max(len(rep.failures) for rep in reps)
    for rep in reps:
        if rep.failures:
            outcome.errors.extend(rep.failures[:5])
            break


def measure(name: str, seed: int, seconds: float, smoke: bool,
            traced: bool) -> Outcome:
    """Run reps of ``name`` for ``seconds`` and assemble the metrics."""
    outcome = Outcome()
    cycle = (PLAIN, TRACED, QUIET) if traced else (PLAIN,)
    min_cycles = 1 if smoke or traced else MIN_REPS
    reps = []
    started = time.perf_counter()
    while len(reps) < min_cycles * len(cycle) or (
            not smoke and time.perf_counter() - started < seconds):
        for mode in cycle:
            reps.append(run_rep(name, seed, smoke, mode))
    outcome.reps = len(reps)

    observed = [rep for rep in reps if rep.mode != QUIET]
    plain = [rep for rep in reps if rep.mode == PLAIN]
    _check_repeats(outcome, observed, "sim", "simulated metrics of")
    _check_repeats(outcome, reps, "digest", "sim digest of")
    _collect_failures(outcome, observed)

    first = plain[0]
    host = {key: median([rep.host[key] for rep in plain])
            for key in first.host}
    sim = first.sim
    outcome.notes.append(
        f"{len(plain)} plain rep(s); {sim['ckpts']} checkpoints, "
        f"{sim['stop_samples']} stop and {sim['durable_samples']} durable "
        f"samples per rep; {outcome.attempted} operations attempted, "
        f"{outcome.failed} failed")
    factors = [f for rep in plain for f in rep.factors.values()]
    outcome.notes.append(
        f"host times are at reference speed: measured × factor, factor "
        f"{min(factors):.3f}..{max(factors):.3f} (median "
        f"{median(factors):.3f}; 1.0 = reference loop at "
        f"{REF_PULSE_S * 1000:g} ms per pulse)")

    if not traced:
        host["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024)
        for metric, unit, _bound in E2E_METRICS:
            value = sim[metric] if metric in sim else host[metric]
            outcome.metrics[metric] = (value, unit)
            if value is None:
                outcome.errors.append(f"{metric}: no samples")
        return outcome

    traced_reps = [rep for rep in reps if rep.mode == TRACED]
    quiet = [rep for rep in reps if rep.mode == QUIET]
    _check_repeats(outcome, traced_reps, "traced", "traced counts of")
    thost = {key: (None if traced_reps[0].host[key] is None else
                   median([rep.host[key] for rep in traced_reps]))
             for key in traced_reps[0].host}
    exact = dict(sim)
    exact.update(traced_reps[0].traced)
    for metric, unit in PER_LAYER_METRICS:
        if metric in exact:
            value = exact[metric]
        elif metric in thost:
            value = thost[metric]
        else:
            value = None
        outcome.metrics[metric] = (value, unit)
    cost = lambda rep: rep.host["run_s"] + rep.host["recover_s"]
    outcome.metrics["trace.overhead_pct"] = (
        100 * (median([cost(r) for r in traced_reps])
               / median([cost(r) for r in plain]) - 1), "%")
    outcome.metrics["core.observe.wall_ratio_on_off"] = (
        host["run_s"] / median([rep.host["run_s"] for rep in quiet]),
        "ratio")
    outcome.metrics["core.restore.lazy_wall_ms"] = (
        host.get("lazy_s", 0.0) * 1000, "ms")
    coverage = outcome.metrics["trace.coverage_pct"][0]
    if not smoke and coverage < 95:
        outcome.errors.append(f"trace.coverage_pct {coverage:.1f} < 95")
    for layer in traced_reps[0].tracer.unresolved:
        outcome.notes.append(f"layer {layer} not traced (entry point no "
                             f"longer resolves): its traced metrics are "
                             f"null")
    return outcome
