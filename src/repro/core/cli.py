"""The ``sls`` command line interface (Table 2).

The persistent thing between invocations is — as on a real Aurora
machine — the *disk*: an image file holding the simulated NVMe
array's contents.  Each command boots a fresh machine against the
image, recovers the object store, performs its operation, and writes
the array back.  Because applications here are simulated processes,
``sls spawn`` and ``sls run`` exist to create and advance a demo
workload that the Table 2 verbs can then operate on.

    sls init /tmp/aurora.img
    sls spawn /tmp/aurora.img myapp --memory-kib 256
    sls run /tmp/aurora.img 2 --millis 50
    sls ps /tmp/aurora.img
    sls checkpoint /tmp/aurora.img 2 --name before-upgrade
    sls restore /tmp/aurora.img 2
    sls scrub /tmp/aurora.img
    sls diff /tmp/aurora.img 2
    sls dump /tmp/aurora.img 2 -o core.elf
    sls send /tmp/aurora.img 2 -o app.stream
    sls recv /tmp/other.img app.stream

A subcommand is one ``cmd_*`` handler plus one row of :data:`COMMANDS`
(name, help line, handler, argument specs); the parser and dispatch are
both built from that table, so that row is the only place a new
subcommand is declared.  A printed table is one row template
(:func:`_table`) shared by its header and its rows.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path
from typing import Iterable, Optional, Tuple

from ..errors import StoreError
from ..machine import Machine
from ..objstore.checkpoint import NO_PAGES
from ..objstore.repair import repair
from ..objstore.scrub import scrub
from ..objstore.store import ObjectStore
from ..units import KiB, MSEC, PAGE_SIZE, fmt_size, fmt_time
from . import events as events_mod
from . import flightrec, migration
from . import nemesis as nemesis_mod
from . import slo as slo_mod
from . import telemetry, tracing
from .cluster import SLSCluster
from .coredump import dump_process
from .orchestrator import load_aurora
from .pipeline import STAGE_ORDER, STOP_STAGES

IMAGE_VERSION = 1


def _save_image(machine: Machine, path: str) -> None:
    # Let queued device IO and the commit events riding on it land.
    # (A plain drain() would spin forever on periodic checkpoint
    # timers, which are volatile and not part of the image anyway.)
    for _ in range(8):
        deadline = machine.storage.last_completion
        if deadline <= machine.clock.now():
            break
        machine.loop.run_until(deadline)
    machine.storage.poll()
    image = {
        "version": IMAGE_VERSION,
        "clock_ns": machine.clock.now(),
        "devices": [dict(dev.extents()) for dev in machine.storage.devices],
    }
    Path(path).write_bytes(pickle.dumps(image))


def _boot_from_image(path: str) -> Machine:
    image = pickle.loads(Path(path).read_bytes())
    if image.get("version") != IMAGE_VERSION:
        raise SystemExit(f"unsupported image version in {path}")
    machine = Machine(start_ns=image["clock_ns"])
    for device, extents in zip(machine.storage.devices, image["devices"]):
        for offset, payload in extents.items():
            device.place_extent(offset, payload)
    return machine


def _load(path: str) -> Tuple[Machine, object]:
    machine = _boot_from_image(path)
    return machine, load_aurora(machine)


def _open_raw(path: str):
    """Boot an image whose store may be too corrupt to mount: the
    scrubber and the black box read the raw device, so they must not
    go through :func:`_load`.  Returns ``(machine, sls, store)`` with
    ``sls`` None (and the store unmounted) when the mount failed."""
    machine = _boot_from_image(path)
    try:
        sls = load_aurora(machine)
    except StoreError:
        return machine, None, ObjectStore(machine)
    return machine, sls, sls.store


def _restore_group(args):
    """The prologue of every command that operates on one application:
    boot the image and restore ``args.group`` with no periodic timer.
    Returns ``(machine, orchestrator, restore result)``."""
    machine, sls = _load(args.image)
    return machine, sls, sls.restore(args.group, periodic=False)


def _heap(proc):
    """The demo app's heap map entry."""
    return next(e for e in proc.vmspace.map if e.name == "heap")


def _fields(fields) -> str:
    """An event's set fields as ``key=value`` pairs."""
    return " ".join(f"{key}={value}" for key, value in (fields or {}).items()
                    if value is not None)


def _table(template: str, header: Tuple, rows: Iterable[Tuple]) -> None:
    """Print a table whose header and rows share one row template (so
    a column's width is stated once)."""
    print(template.format(*header))
    for row in rows:
        print(template.format(*row))


# -- commands ------------------------------------------------------------------------


def cmd_init(args) -> int:
    """``sls init``: format a fresh Aurora image."""
    machine = Machine()
    load_aurora(machine)
    _save_image(machine, args.image)
    print(f"initialized Aurora image at {args.image}")
    return 0


def cmd_spawn(args) -> int:
    """``sls spawn``: create, attach and checkpoint a demo app."""
    machine, sls = _load(args.image)
    kernel = machine.kernel
    proc = kernel.spawn(args.name)
    nbytes = args.memory_kib * KiB
    addr = proc.vmspace.mmap(nbytes, name="heap")
    proc.vmspace.fill(addr, nbytes // PAGE_SIZE, seed=0xC0DE)
    proc.vmspace.write(addr, f"{args.name}:step0".encode().ljust(64, b"\x00"))
    proc.vmspace.write(addr + 64, b"0".ljust(8, b"\x00"))
    group = sls.attach(proc, name=args.name,
                       period_ns=args.period_ms * MSEC, periodic=False)
    sls.checkpoint(group, name="spawn", full=True, sync=True)
    _save_image(machine, args.image)
    print(f"spawned {args.name!r} as group {group.group_id} "
          f"({fmt_size(nbytes)} resident)")
    return 0


def cmd_ps(args) -> int:
    """``sls ps``: list applications in the store."""
    _machine, sls = _load(args.image)
    rows = sls.ps()
    if not rows:
        print("no applications in the store")
        return 0
    _table("{:>5}  {:<16} {:>5}  {:>6}",
           ("GROUP", "NAME", "CKPTS", "LATEST"),
           ((row["group_id"], row["name"], row["checkpoints"],
             row["latest_ckpt"]) for row in rows))
    return 0


def cmd_run(args) -> int:
    """``sls run``: restore, do work with checkpoints, save."""
    machine, sls, result = _restore_group(args)
    group, proc = result.group, result.root
    heap = _heap(proc)
    addr = heap.start_page * PAGE_SIZE
    step = int(proc.vmspace.read(addr + 64, 8).rstrip(b"\x00") or b"0")
    period = group.period_ns
    deadline = machine.clock.now() + args.millis * MSEC
    while machine.clock.now() < deadline:
        step += 1
        proc.vmspace.write(addr, f"{group.name}:step{step}".encode())
        proc.vmspace.write(addr + 64, str(step).encode())
        proc.vmspace.touch(addr + 2 * PAGE_SIZE,
                           min(8, heap.npages - 2), seed=step)
        machine.run_for(period)
        if not group.flush_in_progress:
            sls.checkpoint(group, sync=True)
    _save_image(machine, args.image)
    print(f"ran group {args.group} for {args.millis} ms "
          f"(now at step {step}, "
          f"{group.stats['checkpoints']} checkpoints)")
    return 0


def _measure(args, slo_targets=None):
    """Shared measurement loop for the telemetry commands: restore the
    group and run ``args.checkpoints`` synchronous checkpoints on its
    cadence.  Telemetry is in-process (not part of the disk image), so
    every observability command re-runs the workload; the image is
    left untouched.  ``slo_targets`` are installed before the run so
    violations are counted against them.
    """
    machine, sls, result = _restore_group(args)
    if slo_targets is not None:
        sls.slo.targets = slo_targets
    group = result.group
    for _ in range(args.checkpoints):
        machine.run_for(group.period_ns)
        sls.checkpoint(group, sync=True)
    return machine, sls, group


def _drive_tenants(args, probe_every: Optional[int] = None):
    """Boot the image, admit ``args.tenants`` synthetic applications
    with mixed periods through fleet admission control and drive them
    for ``args.millis`` of simulated time; returns the orchestrator."""
    machine, sls = _load(args.image)
    kernel = machine.kernel
    periods = [10, 25, 50]
    groups = []
    for index in range(args.tenants):
        proc = kernel.spawn(f"tenant{index}")
        nbytes = 32 * KiB
        addr = proc.vmspace.mmap(nbytes, name="heap")
        proc.vmspace.fill(addr, nbytes // PAGE_SIZE, seed=index)
        period_ms = periods[index % len(periods)]
        group = sls.attach(proc, name=f"tenant{index}",
                           period_ns=period_ms * MSEC,
                           rpo_budget_ns=4 * period_ms * MSEC,
                           probe_every=probe_every)
        groups.append((proc, addr, group))
    deadline = machine.clock.now() + args.millis * MSEC
    step = 0
    while machine.clock.now() < deadline:
        step += 1
        for proc, addr, group in groups:
            proc.vmspace.write(addr, f"{group.name}:{step}".encode())
        machine.run_for(5 * MSEC)
    return sls


def cmd_stat(args) -> int:
    """``sls stat``: per-group per-stage checkpoint breakdown."""
    _machine, _sls, group = _measure(args)

    registry = telemetry.registry()
    order = {stage: index for index, stage in enumerate(STAGE_ORDER)}
    rows = sorted(registry.stage_rows(group.group_id),
                  key=lambda row: order.get(row["stage"], len(order)))
    print(f"group {group.group_id} ({group.name}): "
          f"{group.stats['checkpoints']} checkpoint(s) measured")
    _table("{:<10} {:<8} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
           ("STAGE", "KIND", "COUNT", "TOTAL", "MEAN", "P50", "P95", "P99",
            "MAX"),
           ((row["stage"],
             "stop" if row["stage"] in STOP_STAGES else "overlap",
             row["count"], fmt_time(row["total_ns"]),
             fmt_time(int(row["mean_ns"])), fmt_time(row["p50_ns"]),
             fmt_time(row["p95_ns"]), fmt_time(row["p99_ns"]),
             fmt_time(row["max_ns"])) for row in rows))
    checkpoints = max(group.stats["checkpoints"], 1)
    print(f"stop time: mean "
          f"{fmt_time(group.stats['stop_ns_total'] // checkpoints)}, "
          f"max {fmt_time(group.stats['stop_ns_max'])}; "
          f"{fmt_size(group.stats['bytes_flushed'])} flushed")
    # Throughput over the measured window (checkpoints x period), so
    # scale runs are legible straight from the CLI.
    elapsed_s = checkpoints * group.period_ns / 1e9
    if elapsed_s > 0:
        print(f"throughput: "
              f"{group.stats['pages_flushed'] / elapsed_s:,.0f} pages/s, "
              f"{group.stats['records_written'] / elapsed_s:,.0f} records/s "
              f"({group.stats['pages_flushed']} pages, "
              f"{group.stats['records_written']} records over "
              f"{elapsed_s:.2f}s simulated)")
    gid = group.group_id
    reasons = ", ".join(
        f"{counter.labels['reason']} {counter.value}" for counter in
        registry.counters_matching("sls.serialize.full_walks", group=gid))
    print(f"fd slots: "
          f"{registry.value('sls.serialize.slots_replayed', group=gid)} "
          f"replayed, "
          f"{registry.value('sls.serialize.slots_walked', group=gid)} "
          f"walked; full table walks: {reasons or 'none'}")
    dropped = registry.value("sls.telemetry.spans_dropped")
    print(f"span ring: {len(registry.spans)} retained, "
          f"{dropped} dropped")
    return 0


def cmd_trace(args) -> int:
    """``sls trace``: export causal operation traces.

    Runs the measurement loop and exports the finished traces as a
    Chrome ``trace_event`` document (``--chrome``, Perfetto-loadable)
    and/or prints a per-checkpoint critical-path summary.
    """
    _machine, _sls, group = _measure(args)

    traces = tracing.tracer().traces(group=group.group_id)
    if args.chrome:
        doc = tracing.chrome_trace(traces)
        tracing.validate_chrome_trace(doc)
        Path(args.chrome).write_text(json.dumps(doc), encoding="utf-8")
        print(f"wrote {len(doc['traceEvents'])} trace events to "
              f"{args.chrome}")
    ckpts = [t for t in traces if t.kind == tracing.CHECKPOINT]
    complete = sum(1 for t in ckpts if t.complete)
    print(f"group {group.group_id}: {len(ckpts)} checkpoint trace(s), "
          f"{complete} complete")
    for trace_obj in ckpts[-args.show:]:
        coverage = tracing.child_coverage(trace_obj)
        state = "complete" if trace_obj.complete else "INCOMPLETE"
        print(f"  trace #{trace_obj.trace_id} [{state}] "
              f"{fmt_time(trace_obj.duration_ns())} wall, "
              f"{len(trace_obj.spans)} span(s), "
              f"{coverage:.0%} stage coverage")
        for row in tracing.critical_path(trace_obj):
            if row["duration_ns"] == 0:
                continue
            print(f"    {row['name']:<18} {fmt_time(row['duration_ns']):>12} "
                  f"(self {fmt_time(row['self_ns'])})")
    return 0


def cmd_metrics(args) -> int:
    """``sls metrics``: registry export (Prometheus text or JSON)."""
    _measure(args)
    if args.format == "prom":
        payload = tracing.prometheus_text(telemetry.registry())
    else:
        payload = json.dumps(tracing.metrics_json(telemetry.registry()),
                             indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(payload, encoding="utf-8")
        print(f"wrote metrics to {args.output}")
    else:
        sys.stdout.write(payload)
    return 0


def cmd_events(args) -> int:
    """``sls events``: the structured event log of the measurement run."""
    _measure(args)
    log = events_mod.log()
    registry = telemetry.registry()
    dropped = registry.value("sls.telemetry.events_dropped")
    traces_dropped = registry.value("sls.telemetry.traces_dropped")
    entries = [e for e in log if e.kind.startswith(args.kind or "")
               and (args.since is None or e.time_ns >= args.since)]
    shown = entries[-args.limit:] if args.limit else entries
    print(f"events: {len(log)} retained, events_dropped={dropped}, "
          f"traces_dropped={traces_dropped}")
    rows = [(fmt_time(event.time_ns),
             "-" if event.trace_id is None else event.trace_id, event.kind,
             _fields(event.fields)) for event in shown]
    if dropped:
        # The ring wrapped: history older than the listing was
        # evicted; mark the discontinuity explicitly.
        rows.insert(0, ("...", "-", "(gap)",
                        f"{dropped} earlier event(s) evicted by ring wrap"))
    _table("{:>14}  {:>6}  {:<18} {}", ("TIME", "TRACE", "KIND", "FIELDS"),
           rows)
    print(f"{len(shown)} of {len(log)} event(s) in the log")
    return 0


def cmd_cluster(args) -> int:
    """``sls cluster``: run a quorum-replication campaign and report.

    Boots the image, attaches an N-node / k-AZ quorum cluster to the
    group, advances it through a fixed number of checkpoints (each
    pumped to quorum), optionally fails one AZ mid-run and repairs it
    afterwards, and prints the per-node status table plus quorum and
    repair summaries.  With ``--failover`` the primary is crashed at
    the end and the best standby promoted.
    """
    machine, sls, result = _restore_group(args)
    group, proc = result.group, result.root
    addr = _heap(proc).start_page * PAGE_SIZE
    cluster = SLSCluster(sls, group, nodes=args.nodes, azs=args.azs,
                         segment_bytes=args.segment_bytes)
    outage_at = (args.checkpoints // 2
                 if args.az_outage is not None else -1)
    for step in range(args.checkpoints):
        if step == outage_at:
            downed = cluster.az_down(args.az_outage)
            print(f"AZ {args.az_outage} outage at checkpoint {step}: "
                  f"nodes {downed} down")
        proc.vmspace.write(addr, f"cluster:step{step}".encode())
        machine.run_for(group.period_ns)
        sls.checkpoint(group, sync=True)
        cluster.pump()
    if args.az_outage is not None:
        raised = cluster.az_up(args.az_outage)
        print(f"AZ {args.az_outage} healed: nodes {raised} rejoin")
        if args.repair:
            report = cluster.repair()
            print(f"repair: {report['segments']} segment(s) onto "
                  f"{report['targets']} node(s) in "
                  f"{fmt_time(report['wall_ns'])} "
                  f"(segment MTTR p50 {fmt_time(report['mttr_p50_ns'])}"
                  f", max {fmt_time(report['mttr_max_ns'])})")

    status = cluster.status()
    print(f"group {status['group']}: {args.nodes} node(s) in "
          f"{status['azs']} AZ(s), write quorum "
          f"{status['write_quorum']}, read quorum "
          f"{status['read_quorum']}")
    _table("{:>4} {:>3} {:<9} {:>8} {:>4} {:>8} {:>10}",
           ("NODE", "AZ", "STATE", "APPLIED", "LAG", "STREAMS", "BYTES"),
           ((row["node"], row["az"], row["state"],
             "-" if row["applied"] is None else row["applied"],
             "-" if row["lag"] is None else row["lag"],
             row["streams"], fmt_size(row["bytes"]))
            for row in status["nodes"]))
    print(f"durable watermark: checkpoint {status['durable']}; "
          f"quorum lag p50 {fmt_time(status['quorum_lag_p50_ns'])}; "
          f"inter-AZ traffic {status['inter_az_pretty']}")
    stall = cluster.stall_reason()

    if args.failover:
        machine.crash()
        cluster.failover(force=args.force,
                         force_data_loss=args.force_data_loss)
        failover_ns = sls.slo.series(group.group_id, "failover").max
        print(f"primary crashed; standby promoted at checkpoint "
              f"{cluster.durable} in {fmt_time(failover_ns)}")
        return 0
    _save_image(machine, args.image)
    if stall is not None:
        print(f"quorum stalled: {stall}")
        return 1
    return 0


def cmd_nemesis(args) -> int:
    """``sls nemesis``: seeded partition campaigns against the quorum
    cluster.

    Runs the nemesis harness's scripted campaigns — majority cut away,
    isolated primary displaced and fenced, ack path severed,
    partition during failover, asymmetric flap with repair, fd churn
    (a socket and a pipe closed and reopened per commit) — each at
    the given seed, and checks the two hard invariants after every
    one: no quorum-acknowledged checkpoint is ever lost, and no
    fenced (minority-side) checkpoint is ever readable again.  Needs
    no image: every campaign boots its own cluster.  Exit status 1
    when any invariant is violated.
    """
    if args.list:
        for name in sorted(nemesis_mod.CAMPAIGNS):
            print(name)
        return 0
    names = args.campaign or sorted(nemesis_mod.CAMPAIGNS)
    for name in names:
        if name not in nemesis_mod.CAMPAIGNS:
            print(f"unknown campaign {name!r} (have: "
                  f"{', '.join(sorted(nemesis_mod.CAMPAIGNS))})")
            return 2
    results = nemesis_mod.run_all(args.seed, names=names)
    for result in results:
        status = "ok" if result.passed else "INVARIANT VIOLATED"
        details = " ".join(f"{key}={value}" for key, value
                           in sorted(result.details.items()))
        print(f"{result.name:<28} seed={result.seed} {status}"
              f"{'  ' + details if details else ''}")
        for violation in result.violations:
            print(f"  ! {violation}")
    failed = [result for result in results if not result.passed]
    print(f"{len(results) - len(failed)}/{len(results)} campaign(s) "
          f"passed at seed {args.seed}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "campaigns": [r.as_dict() for r in results]},
            indent=2), encoding="utf-8")
        print(f"wrote campaign results to {args.json}")
    return 1 if failed else 0


def cmd_slo(args) -> int:
    """``sls slo``: RPO-lag / stop-time budget compliance report."""
    targets = slo_mod.SLOTargets(rpo_ns=int(args.rpo_ms * MSEC),
                                 stop_ns=int(args.stop_ms * MSEC),
                                 degraded_ns=int(args.degraded_ms * MSEC))
    _machine, sls, group = _measure(args, slo_targets=targets)

    rows = sls.slo.report(group.group_id)
    if not rows:
        print(f"group {args.group}: no commits observed")
        return 1
    for row in rows:
        print(f"group {row['group']}: {row['commits']} durable commit(s); "
              f"targets rpo<{fmt_time(row['rpo_target_ns'])} "
              f"stop<{fmt_time(row['stop_target_ns'])}")
        budgeted = [(b.series, b.unit) for b in slo_mod.BUDGETS]
        for series, unit in budgeted + [("e2e", "ns")]:
            s = row[series]
            if not s["count"]:
                continue  # e.g. no cluster attached to this run
            fmt = fmt_time if unit == "ns" else fmt_size
            print(f"  {series:<15} n={s['count']:<4} "
                  f"p50 {fmt(s['p50']):>12} "
                  f"p95 {fmt(s['p95']):>12} "
                  f"p99 {fmt(s['p99']):>12} "
                  f"max {fmt(s['max']):>12}")
        print(f"  degraded n={row['degraded_spells']:<4} "
              f"total {fmt_time(row['degraded_total_ns']):>12} "
              f"budget {fmt_time(row['degraded_target_ns']):>12}"
              f"{' (open spell)' if row['degraded_open'] else ''}")
        print("  violations: " + ", ".join(
            f"{row[b.label + '_violations']} {b.label.replace('_', '-')}"
            for b in slo_mod.BUDGETS))
    print("critical path (mean self time per checkpoint stage):")
    for row in slo_mod.critical_path_summary(group.group_id):
        if row["self_ns"] == 0:
            continue
        print(f"  {row['name']:<18} {fmt_time(row['mean_self_ns']):>12} "
              f"x{row['count']}")
    return 0


def cmd_fleet(args) -> int:
    """``sls fleet``: the fleet control plane's per-tenant table.

    Boots the image, spawns ``--tenants`` synthetic applications with
    mixed periods through fleet admission control, drives them for
    ``--millis`` of simulated time, and prints each tenant's scheduler
    state: effective period, demand share, deadline misses, degraded
    state and probe cadence, plus the fleet summary (capacity,
    aggregate demand, Jain fairness over p99 RPO lag).  The image is
    not modified.
    """
    sls = _drive_tenants(args, probe_every=args.probe_every)

    def p99_rpo(group_id: int) -> int:
        state = sls.slo.groups.get(group_id)
        return (state.series["rpo_lag"].percentile(99)
                if state is not None else 0)

    _table("{:>5}  {:<10} {:>8} {:>9} {:>10} {:>6} {:>5} {:>4} {:>4} "
           "{:<8} {:>5} {:>12}",
           ("GROUP", "NAME", "PERIOD", "EFFECTIVE", "DEMAND", "SHARE",
            "CKPTS", "MISS", "SKIP", "DEGRADED", "PROBE", "P99 RPO"),
           ((row["group"], row["name"], fmt_time(row["period_ns"]),
             fmt_time(row["effective_period_ns"]),
             fmt_size(row["demand_bps"]) + "/s",
             f"{row['demand_share'] * 100:.1f}%", row["checkpoints"],
             row["deadline_misses"], row["flush_skips"],
             row["degraded"] or "-", row["probe_every"],
             fmt_time(p99_rpo(row["group"])))
            for row in sls.fleet.report()))
    summary = sls.fleet.summary()
    fairness = summary["fairness"]
    print(f"fleet: {summary['tenants']} tenant(s), demand "
          f"{fmt_size(summary['aggregate_demand_bps'])}/s of "
          f"{fmt_size(summary['capacity_bps'])}/s "
          f"({summary['bandwidth_util'] * 100:.1f}% bandwidth, "
          f"{summary['time_util'] * 100:.1f}% time), "
          f"{summary['deadline_misses']} deadline miss(es), "
          f"{summary['admission_rejects']} reject(s), "
          f"{summary['backpressure_widens']} widen(s)")
    print(f"fairness: Jain {fairness['jain']:.3f} over "
          f"{fairness['groups']} tenant(s), p99 RPO lag "
          f"{fmt_time(fairness['p99_rpo_min_ns'])} .. "
          f"{fmt_time(fairness['p99_rpo_max_ns'])}")
    return 0


def cmd_scrub(args) -> int:
    """``sls scrub``: offline integrity walk over the store.

    Exit status 0 when the store is clean, 1 when any invariant is
    violated (corrupt record, dangling pointer, owned extent on the
    free list, orphan, unreachable live record, overgrown shadow
    chain).  Without ``--repair`` the image is never modified; with
    it, mechanically fixable findings (damaged superblock slot, a free
    list that disagrees with the owners, overgrown shadow chains) are
    repaired in place, the image is rewritten, and a re-scrub decides
    the exit status.
    """
    machine, sls, store = _open_raw(args.image)
    report = scrub(store, sls=sls)
    print(f"scrub of {args.image}: generation {report.generation}, "
          f"{report.superblocks_valid} valid superblock(s), "
          f"{report.checkpoints_scanned} checkpoint(s), "
          f"{report.records_verified} record(s), "
          f"{report.page_extents_verified} page extent(s)")
    if report.ok:
        print("store is clean")
        return 0
    print(f"{len(report.findings)} finding(s):")
    for finding in report.findings:
        where = (f" [ckpt {finding.ckpt_id}]"
                 if finding.ckpt_id is not None else "")
        print(f"  {finding.kind}{where}: {finding.detail}")
    if not args.repair:
        return 1

    fixes = repair(store, report, sls=sls)
    print(f"repair: {fixes.applied} fix(es) applied, "
          f"{len(fixes.skipped)} skipped")
    for action in fixes.actions:
        print(f"  + {action.kind}: {action.detail}")
    for action in fixes.skipped:
        print(f"  - skipped {action.kind}: {action.detail}")
    _save_image(machine, args.image)
    recheck = scrub(store, sls=sls)
    if recheck.ok:
        print("re-scrub: store is clean")
        return 0
    print(f"re-scrub: {len(recheck.findings)} finding(s) remain:")
    for finding in recheck.findings:
        print(f"  {finding.kind}: {finding.detail}")
    return 1


def cmd_blackbox(args) -> int:
    """``sls blackbox``: recover the flight recorder of a (possibly
    crashed, possibly unmountable) image and print the timeline
    leading up to the crash.

    The recorder rides the commit protocol — the newest valid
    superblock anchors the snapshot taken just before its own flip —
    so the reconstruction needs no mount and works on stores whose
    catalog is too damaged for ``load_aurora``.  Exit status 1 when
    the image predates the recorder (no anchor in any superblock).
    """
    _machine, _sls, store = _open_raw(args.image)
    box = flightrec.blackbox(store)
    if box is None:
        print(f"{args.image}: no flight recorder snapshot found")
        return 1
    snap = box.snapshot
    print(f"black box of {args.image}: generation {box.generation}, "
          f"snapshot at {fmt_time(snap.get('time_ns', 0))}, "
          f"{len(box.events)} event(s), "
          f"{len(snap.get('spans') or [])} span(s), "
          f"{len(snap.get('slo') or [])} tenant(s)")
    print(f"ring: {snap.get('events_retained', 0)} retained, "
          f"events_dropped={snap.get('events_dropped', 0)}, "
          f"traces_dropped={snap.get('traces_dropped', 0)}")
    for row in snap.get("slo") or []:
        print(f"  tenant {row.get('tenant') or row.get('group')}: "
              f"{row.get('commits', 0)} commit(s), "
              f"rpo_burn={row.get('rpo_burn_milli', 0)}m "
              f"quorum_burn={row.get('quorum_burn_milli', 0)}m "
              f"degraded={'open' if row.get('degraded_open') else '-'}")
    timeline = box.timeline()
    shown = timeline[-args.limit:] if args.limit else timeline
    _table("{:>14}  {:>6}  {:<24} {}", ("TIME", "TRACE", "KIND", "FIELDS"),
           ((fmt_time(row["time_ns"]),
             "-" if row.get("trace_id") is None else row["trace_id"],
             row["kind"], _fields(row.get("fields"))
             + (" *" if row.get("synthetic") else "")) for row in shown))
    last = box.last_durable
    if last is not None:
        fields = last.get("fields") or {}
        print(f"last durable commit: group {fields.get('group', '?')} "
              f"ckpt {fields.get('ckpt', '?')}"
              + (f" ({fields['name']})" if fields.get("name") else "")
              + f" at {fmt_time(last['time_ns'])}")
    else:
        print("last durable commit: none recorded")
    return 0


def cmd_top(args) -> int:
    """``sls top``: fleet drill-down — per-tenant SLO burn rates,
    quorum lag, degraded state and recent burn-rate alerts.

    Drives ``--tenants`` synthetic applications through fleet
    admission for ``--millis`` of simulated time (like ``sls fleet``)
    and prints the SLO tracker's live burn-rate view: the fast-burn
    column is the recent-window budget consumption in milli-units
    (1000m = consuming exactly the budget; alerts fire at 2000m).
    The image is not modified.
    """
    sls = _drive_tenants(args)

    fleet_rows = {row["group"]: row for row in sls.fleet.report()}

    def top_row(row):
        fleet = fleet_rows.get(row["group"], {})
        recon = row["reconcile_bytes"]
        stale = row["stale_primary"]
        return (row["group"], row["tenant"] or "-", row["commits"],
                f"{row['rpo_burn_milli']}m", f"{row['quorum_burn_milli']}m",
                fmt_time(row["quorum_lag"]["p99"]),
                fmt_size(recon["max"]) if recon["count"] else "-",
                fmt_time(stale["max"]) if stale["count"] else "-",
                fleet.get("degraded") or "-",
                fleet.get("deadline_misses", 0), row["alerts"])

    _table("{:>5}  {:<10} {:>5} {:>8} {:>11} {:>10} {:>9} {:>9} {:<8} "
           "{:>4} {:>6}",
           ("GROUP", "TENANT", "CKPTS", "RPO BURN", "QUORUM BURN",
            "P99 QLAG", "RECONCILE", "STALE", "DEGRADED", "MISS", "ALERTS"),
           map(top_row, sls.slo.report()))
    alerts = events_mod.log().matching(kind=events_mod.SLO_ALERT)
    print(f"{len(alerts)} burn-rate alert(s)")
    for event in alerts[-args.limit:] if args.limit else alerts:
        fields = event.fields
        print(f"  {fmt_time(event.time_ns):>14}  "
              f"tenant {fields.get('tenant') or fields.get('group')} "
              f"{fields.get('budget')} burn {fields.get('burn_milli')}m "
              f"(threshold {fields.get('threshold_milli')}m)")
    return 0


def cmd_checkpoint(args) -> int:
    """``sls checkpoint``: take a named full checkpoint."""
    machine, sls, result = _restore_group(args)
    res = sls.checkpoint(result.group, name=args.name or "",
                         full=True, sync=True)
    _save_image(machine, args.image)
    print(f"checkpoint {res.info.ckpt_id} of group {args.group} "
          f"(stop time {fmt_time(res.stop_ns)})")
    return 0


def cmd_restore(args) -> int:
    """``sls restore``: restore and report (image unchanged)."""
    _machine, sls = _load(args.image)
    result = sls.restore(args.group, ckpt_id=args.ckpt,
                         lazy=args.lazy, periodic=False)
    proc = result.root
    print(f"restored group {args.group} from checkpoint "
          f"{result.ckpt_id}: {len(result.processes)} process(es), "
          f"root pid {proc.pid} (local {proc.local_pid}), "
          f"{result.pages_restored} pages eager / "
          f"{result.pages_lazy} lazy, in {fmt_time(result.elapsed_ns)}")
    return 0


def cmd_history(args) -> int:
    """``sls history``: list an app's checkpoints."""
    _machine, sls = _load(args.image)
    chain = sls.store.checkpoints_for(args.group, include_partial=True)
    if not chain:
        print(f"group {args.group} has no checkpoints")
        return 1
    _table("{:>6}  {:<16} {:<8} {:>12}  {:>10}",
           ("CKPT", "NAME", "KIND", "TIME", "DATA"),
           ((info.ckpt_id, info.name or "-",
             "partial" if info.partial else "full", fmt_time(info.time_ns),
             fmt_size(info.data_bytes)) for info in chain))
    return 0


def cmd_suspend(args) -> int:
    """``sls suspend``: final checkpoint, tear the app down."""
    machine, sls, result = _restore_group(args)
    ckpt_id = sls.suspend(result.group)
    _save_image(machine, args.image)
    print(f"suspended group {args.group} into checkpoint {ckpt_id}")
    return 0


def cmd_resume(args) -> int:
    """``sls resume``: bring a suspended app back."""
    machine, _sls, result = _restore_group(args)
    _save_image(machine, args.image)
    print(f"resumed group {args.group}: root pid {result.root.pid}")
    return 0


def cmd_dump(args) -> int:
    """``sls dump``: write an ELF core of the restored state."""
    _machine, sls, result = _restore_group(args)
    info = sls.store.get_checkpoint(result.ckpt_id)
    core = dump_process(result.root)
    Path(args.output).write_bytes(core)
    print(f"wrote {fmt_size(len(core))} ELF core to {args.output}")
    print(f"source checkpoint {info.ckpt_id}: "
          f"{len(info.object_records)} record(s) in delta, "
          f"{info.records_skipped} skipped as unchanged")
    return 0


def cmd_diff(args) -> int:
    """``sls diff``: what changed between two checkpoints.

    Compares the merged (restorable) views at the two checkpoints:
    object records added, re-written, or deleted, and how many page
    locators changed.  Defaults to the group's last two checkpoints —
    the observability hook for incremental checkpoint deltas.
    """
    _machine, sls = _load(args.image)
    store = sls.store
    chain = store.checkpoints_for(args.group, include_partial=True)
    ids = [info.ckpt_id for info in chain]
    if args.ckpt_a is not None:
        ckpt_a = args.ckpt_a
    elif len(ids) >= 2:
        ckpt_a = ids[-2]
    else:
        print(f"group {args.group} needs two checkpoints to diff "
              f"(has {len(ids)})")
        return 1
    ckpt_b = args.ckpt_b if args.ckpt_b is not None else ids[-1]

    records_a, pages_a = store.merged_view(ckpt_a)
    records_b, pages_b = store.merged_view(ckpt_b)
    added = sorted(set(records_b) - set(records_a))
    deleted = sorted(set(records_a) - set(records_b))
    rewritten = sorted(oid for oid in records_b
                       if oid in records_a
                       and records_b[oid] != records_a[oid])

    pages_changed = sum(
        pages_a.get(oid, NO_PAGES).changed_pages(pages_b.get(oid, NO_PAGES))
        for oid in set(pages_a) | set(pages_b))

    print(f"diff of group {args.group}: checkpoint {ckpt_a} -> {ckpt_b}")
    print(f"  records: {len(rewritten)} rewritten, {len(added)} added, "
          f"{len(deleted)} deleted ({len(records_b)} live)")
    print(f"  pages:   {pages_changed} changed")

    def _fmt(oids) -> str:
        head = ", ".join(str(oid) for oid in oids[:12])
        return head + (", ..." if len(oids) > 12 else "")

    if rewritten:
        print(f"  rewritten oids: {_fmt(rewritten)}")
    if added:
        print(f"  added oids:     {_fmt(added)}")
    if deleted:
        print(f"  deleted oids:   {_fmt(deleted)}")
    return 0


def cmd_send(args) -> int:
    """``sls send``: serialize an app into a stream file."""
    _machine, sls = _load(args.image)
    stream = migration.send_checkpoint(sls, args.group)
    Path(args.output).write_bytes(stream)
    print(f"serialized group {args.group} into {args.output} "
          f"({fmt_size(len(stream))})")
    return 0


def cmd_recv(args) -> int:
    """``sls recv``: import a stream into another image."""
    machine, sls = _load(args.image)
    ckpt_id = migration.recv_checkpoint(sls, Path(args.stream).read_bytes())
    _save_image(machine, args.image)
    print(f"received checkpoint {ckpt_id} into {args.image}")
    return 0


def _arg(*flags, **spec):
    """One ``add_argument`` call, as data."""
    return flags, spec


def _checkpoints(default: int, what: str = "measurement checkpoints to run"):
    """The ``--checkpoints`` option, whose help quotes its default."""
    return _arg("--checkpoints", type=int, default=default,
                help=f"{what} (default {default})")


IMAGE = _arg("image")
GROUP = _arg("group", type=int)
OUTPUT = _arg("-o", "--output", required=True)

#: Every subcommand, once: ``(name, help line, handler, argument
#: specs)``.  :func:`build_parser` turns each row into a subparser
#: whose ``func`` default is the handler :func:`main` dispatches to.
COMMANDS = (
    ("init", "format a new Aurora image", cmd_init, (IMAGE,)),
    ("spawn", "create and attach a demo app", cmd_spawn, (
        IMAGE, _arg("name"),
        _arg("--memory-kib", type=int, default=256),
        _arg("--period-ms", type=int, default=10))),
    ("ps", "list applications in Aurora", cmd_ps, (IMAGE,)),
    ("run", "advance an app with checkpoints", cmd_run, (
        IMAGE, GROUP, _arg("--millis", type=int, default=100))),
    ("checkpoint", "take a named checkpoint", cmd_checkpoint, (
        IMAGE, GROUP, _arg("--name"))),
    ("stat", "per-stage checkpoint telemetry", cmd_stat, (
        IMAGE, GROUP, _checkpoints(3))),
    ("scrub", "verify store integrity offline", cmd_scrub, (
        IMAGE,
        _arg("--repair", action="store_true",
             help="apply mechanical fixes, rewrite the image, and "
                  "re-scrub"))),
    ("trace", "export causal checkpoint traces", cmd_trace, (
        IMAGE, GROUP, _checkpoints(20),
        _arg("--chrome", metavar="PATH",
             help="write a Chrome trace_event JSON document"),
        _arg("--show", type=int, default=3,
             help="checkpoint traces to summarize (default 3)"))),
    ("metrics", "export telemetry metrics", cmd_metrics, (
        IMAGE, GROUP, _checkpoints(10),
        _arg("--format", choices=("prom", "json"), default="prom"),
        _arg("-o", "--output"))),
    ("events", "structured event log of a run", cmd_events, (
        IMAGE, GROUP, _checkpoints(10),
        _arg("--limit", type=int, default=0,
             help="only show the newest N events"),
        _arg("--kind", default=None,
             help="only events whose kind has this prefix"),
        _arg("--since", type=int, default=None, metavar="NS",
             help="only events at or after this sim time (ns)"))),
    ("blackbox", "recover a crashed image's flight recorder",
     cmd_blackbox, (
        IMAGE,
        _arg("--limit", type=int, default=0,
             help="only show the newest N timeline rows"))),
    ("top", "per-tenant SLO burn-rate table", cmd_top, (
        IMAGE,
        _arg("--tenants", type=int, default=4,
             help="synthetic tenants to admit (default 4)"),
        _arg("--millis", type=int, default=400,
             help="simulated milliseconds to run (default 400)"),
        _arg("--limit", type=int, default=0,
             help="only show the newest N alerts"))),
    ("cluster", "quorum-replicated cluster status", cmd_cluster, (
        IMAGE, GROUP,
        _arg("--nodes", type=int, default=6,
             help="replica nodes (default 6)"),
        _arg("--azs", type=int, default=3,
             help="availability zones (default 3)"),
        _checkpoints(10, "checkpoints to run and replicate"),
        _arg("--segment-bytes", type=int, default=4 * KiB,
             help="segment size for sharded streams"),
        _arg("--az-outage", type=int, default=None, metavar="AZ",
             help="fail this AZ halfway through the run"),
        _arg("--repair", action="store_true",
             help="segment-repair rejoining nodes after the outage"),
        _arg("--failover", action="store_true",
             help="crash the primary at the end and promote a standby "
                  "(image is left untouched)"),
        _arg("--force", action="store_true",
             help="failover even while the primary's lease is still "
                  "valid"),
        _arg("--force-data-loss", action="store_true",
             help="with --force: allow promoting a node behind the "
                  "quorum watermark, discarding acknowledged "
                  "checkpoints"))),
    ("nemesis", "seeded partition campaigns with hard consistency "
                "invariants", cmd_nemesis, (
        _arg("--seed", type=int, default=7,
             help="campaign seed (default 7)"),
        _arg("--campaign", action="append", metavar="NAME",
             help="run only this campaign (repeatable; default: all)"),
        _arg("--list", action="store_true",
             help="list campaign names and exit"),
        _arg("--json", metavar="PATH",
             help="write campaign results as JSON"))),
    ("slo", "RPO / stop-time SLO compliance", cmd_slo, (
        IMAGE, GROUP, _checkpoints(50),
        _arg("--rpo-ms", type=float, default=10.0,
             help="recovery-point budget in ms (default 10)"),
        _arg("--stop-ms", type=float, default=1.0,
             help="stop-time budget in ms (default 1)"),
        _arg("--degraded-ms", type=float, default=50.0,
             help="cumulative degraded-time budget in ms (default 50)"))),
    ("fleet", "fleet scheduler per-tenant table", cmd_fleet, (
        IMAGE,
        _arg("--tenants", type=int, default=8,
             help="synthetic tenants to admit (default 8)"),
        _arg("--millis", type=int, default=200,
             help="simulated run length in ms (default 200)"),
        _arg("--probe-every", type=int, default=None,
             help="degraded disk-probe cadence (default: per-group "
                  "DEFAULT_PROBE_EVERY)"))),
    ("restore", "restore an application", cmd_restore, (
        IMAGE, GROUP, _arg("--ckpt", type=int),
        _arg("--lazy", action="store_true"))),
    ("history", "list an app's checkpoints", cmd_history, (IMAGE, GROUP)),
    ("suspend", "suspend an app into the store", cmd_suspend,
     (IMAGE, GROUP)),
    ("resume", "resume a suspended app", cmd_resume, (IMAGE, GROUP)),
    ("diff", "changes between two checkpoints", cmd_diff, (
        IMAGE, GROUP,
        _arg("ckpt_a", type=int, nargs="?",
             help="older checkpoint (default: second newest)"),
        _arg("ckpt_b", type=int, nargs="?",
             help="newer checkpoint (default: newest)"))),
    ("dump", "write an ELF coredump", cmd_dump, (IMAGE, GROUP, OUTPUT)),
    ("send", "serialize an app to a stream", cmd_send,
     (IMAGE, GROUP, OUTPUT)),
    ("recv", "import an app stream", cmd_recv, (IMAGE, _arg("stream"))),
)


def build_parser() -> argparse.ArgumentParser:
    """The sls argument parser (Table 2's verbs)."""
    parser = argparse.ArgumentParser(
        prog="sls", description="Aurora single level store CLI (simulated)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, handler, arguments in COMMANDS:
        command = sub.add_parser(name, help=help_line)
        for flags, spec in arguments:
            command.add_argument(*flags, **spec)
        command.set_defaults(func=handler)
    return parser


def main(argv: Optional[list] = None) -> int:
    """Entry point for the ``sls`` console script."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
