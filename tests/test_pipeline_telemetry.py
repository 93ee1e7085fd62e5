"""The staged checkpoint pipeline and the telemetry layer.

Covers the pipeline's stage trace (ordering, stop vs overlap
accounting, the one transaction type both modes stage into), the
telemetry registry primitives, the targeted barrier wait (two groups
flushing concurrently), the periodic-tick edge cases, and suspend with
an outstanding flush.
"""

import pytest

from repro import Machine, load_aurora
from repro.core import telemetry
from repro.core.pipeline import (MODE_DISK, MODE_MEM, STAGE_ORDER,
                                 STOP_STAGES)
from repro.errors import SLSError
from repro.objstore.store import CheckpointTxn
from repro.units import MSEC, PAGE_SIZE


@pytest.fixture(autouse=True)
def fresh_telemetry():
    """Group ids restart at 1 for every fresh machine, so span
    histograms would otherwise accumulate across tests."""
    telemetry.reset()
    yield


@pytest.fixture
def setup():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    return machine, sls, proc


def _dirty_heap(proc, npages, seed=0):
    addr = proc.vmspace.mmap(npages * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, npages, seed=seed)
    return addr


# -- the stage trace ----------------------------------------------------------------


def test_checkpoint_runs_ordered_stages(setup):
    machine, sls, proc = setup
    _dirty_heap(proc, 16)
    group = sls.attach(proc, periodic=False)
    result = sls.checkpoint(group, sync=True)
    assert [t.name for t in result.stages] == list(STAGE_ORDER)
    # Quiesce through resume are stop-time; flush and commit overlap.
    for trace in result.stages:
        assert trace.overlap == (trace.name not in STOP_STAGES)
    assert result.stop_ns > 0


def test_stage_timings_match_legacy_fields(setup):
    machine, sls, proc = setup
    _dirty_heap(proc, 64)
    group = sls.attach(proc, periodic=False)
    result = sls.checkpoint(group, sync=True)
    assert result.quiesce_ns == result.stage_ns("quiesce")
    assert result.serialize_ns == result.stage_ns("serialize")
    assert result.shadow_ns == (result.stage_ns("collapse") +
                                result.stage_ns("shadow"))
    # Stop time spans exactly the stop stages.
    stop_total = sum(result.stage_ns(name) for name in STOP_STAGES)
    assert result.stop_ns == stop_total


def test_stop_time_excludes_sync_flush(setup):
    """Even a sync=True checkpoint's stop time ends at resume; the
    flush wait shows up as overlap time."""
    machine, sls, proc = setup
    _dirty_heap(proc, 4096)  # 16 MiB: a flush that takes real time
    group = sls.attach(proc, periodic=False)
    result = sls.checkpoint(group, sync=True)
    assert result.overlap_ns() > result.stop_ns


def test_stage_spans_land_in_registry(setup):
    machine, sls, proc = setup
    _dirty_heap(proc, 16)
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True)
    sls.checkpoint(group, sync=True)
    registry = telemetry.registry()
    rows = {row["stage"]: row
            for row in registry.stage_rows(group.group_id)}
    for stage in STAGE_ORDER:
        assert rows[stage]["count"] == 2
    assert rows["quiesce"]["total_ns"] > 0
    # The raw spans are in the trace ring too.
    names = {span.name for span in registry.spans
             if span.labels.get("group") == group.group_id}
    assert {f"ckpt.{stage}" for stage in STAGE_ORDER} <= names


# -- one transaction for both modes ----------------------------------------------------


def _staged_checkpoint(mode):
    """A first checkpoint of a 16-page heap with one real page: the
    pipeline's context (its transaction) and result, and the clock it
    advanced."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = _dirty_heap(proc, 16)
    proc.vmspace.write(addr + 3 * PAGE_SIZE, b"real")
    group = sls.attach(proc, periodic=False)
    contexts = []
    run = sls.pipeline.run

    def watched(ctx):
        contexts.append(ctx)
        return run(ctx)
    sls.pipeline.run = watched
    before = machine.clock.now()
    result = sls.checkpoint(group, mode=mode, sync=mode != MODE_MEM)
    return sls, contexts[0], result, machine.clock.now() - before


def test_mem_mode_stages_into_a_store_transaction_it_never_commits():
    sls, ctx, result, elapsed = _staged_checkpoint(MODE_MEM)
    txn = ctx.txn
    assert isinstance(txn, CheckpointTxn)
    assert not txn.committed and txn.info.ckpt_id == -1
    # The records a disk checkpoint of the same state stages.
    _disk_sls, disk_ctx, disk, _elapsed = _staged_checkpoint(MODE_DISK)
    assert txn.staged_records == disk_ctx.txn.staged_records
    # Bytes and clock as the in-memory transaction it replaced staged
    # and charged (bytes re-recorded when record extents became one
    # table per record shape: was 67775).
    assert result.bytes_staged == disk.bytes_staged == 67678
    assert elapsed == 92112
    # No checkpoint id was taken, and nothing reached the store.
    assert not sls.store.checkpoints
    assert sls.checkpoint(sls.groups[ctx.group.group_id],
                          sync=True).info.ckpt_id == 1


def test_mem_mode_result_reports_mode_and_bytes(setup):
    machine, sls, proc = setup
    _dirty_heap(proc, 16)
    group = sls.attach(proc, periodic=False)
    result = sls.checkpoint(group, mode=MODE_MEM)
    assert result.info is None
    assert "mode=mem" in repr(result)
    assert "id=-" in repr(result)
    # Staged bytes are measurable without a commit: records plus the
    # 16 dirtied pages.
    assert result.bytes_staged > 16 * PAGE_SIZE


def test_mem_txn_staging_matches_store_txn(setup):
    machine, sls, proc = setup
    _dirty_heap(proc, 8)
    group = sls.attach(proc, periodic=False)
    mem = sls.checkpoint(group, mode=MODE_MEM)
    disk = sls.checkpoint(group, full=True, sync=True)
    # Same serialized state, so the staged sizes are comparable (the
    # disk txn re-captures the same pages via full=True).
    assert mem.bytes_staged == pytest.approx(disk.bytes_staged, rel=0.1)


# -- targeted barrier (two groups flushing concurrently) ------------------------------


def test_barrier_waits_only_for_this_groups_flush(setup):
    machine, sls, proc = setup
    proc_b = machine.kernel.spawn("other")
    _dirty_heap(proc, 64, seed=1)
    _dirty_heap(proc_b, 16384, seed=2)  # 64 MiB: a much longer flush
    group_a = sls.attach(proc, periodic=False)
    group_b = sls.attach(proc_b, periodic=False)

    sls.checkpoint(group_a)
    sls.checkpoint(group_b)
    assert group_a.flush_in_progress and group_b.flush_in_progress

    ckpt_a = sls.barrier(group_a)
    assert not group_a.flush_in_progress
    # The whole point: B's (long) flush is still in flight.
    assert group_b.flush_in_progress
    assert ckpt_a == group_a.last_complete_id

    ckpt_b = sls.barrier(group_b)
    assert not group_b.flush_in_progress
    assert ckpt_b > ckpt_a


def test_barrier_survives_periodic_timer(setup):
    """barrier() used to drain the whole event loop, which spins
    forever when a periodic checkpoint timer keeps rescheduling."""
    machine, sls, proc = setup
    _dirty_heap(proc, 4096)  # 16 MiB: flush outlives the period
    group = sls.attach(proc, period_ns=10 * MSEC)
    machine.run_for(11 * MSEC)  # one tick fired; flush still going
    assert group.flush_in_progress
    ckpt_id = sls.barrier(group)
    assert ckpt_id == group.last_complete_id
    assert not group.flush_in_progress
    # The periodic timer is still armed (barrier didn't consume it).
    assert group.timer is not None and not group.timer.cancelled


def test_sync_checkpoint_waits_out_other_checkpoint(setup):
    machine, sls, proc = setup
    _dirty_heap(proc, 256)
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group)
    assert group.flush_in_progress
    # sync=True waits for the in-flight flush instead of raising.
    result = sls.checkpoint(group, sync=True)
    assert not group.flush_in_progress
    assert result.info.complete


# -- periodic tick edge cases ---------------------------------------------------------


def test_flush_overrun_delays_next_checkpoint(setup):
    """§7: a flush outliving the period skips ticks instead of piling
    up concurrent checkpoints."""
    machine, sls, proc = setup
    _dirty_heap(proc, 16384)  # 64 MiB: flush spans many 1 ms periods
    group = sls.attach(proc, period_ns=1 * MSEC)
    machine.run_for(10 * MSEC)
    # Without the overrun guard this would be ~10 checkpoints (or an
    # SLSError mid-run); with it, the first flush gates the rest.
    assert group.stats["checkpoints"] <= 2
    # Let the in-flight flush land (targeted: draining the loop with a
    # periodic timer armed would respawn ticks forever).
    sls.barrier(group)


def test_tick_after_detach_is_inert(setup):
    machine, sls, proc = setup
    _dirty_heap(proc, 4)
    group = sls.attach(proc, period_ns=5 * MSEC)
    machine.run_for(12 * MSEC)
    count = group.stats["checkpoints"]
    assert count >= 2
    sls.detach(group)
    assert group.timer is None  # timer cancelled at detach
    machine.run_for(50 * MSEC)
    assert group.stats["checkpoints"] == count
    # Nothing rescheduled: the loop goes idle.
    machine.loop.drain()
    assert machine.loop.next_deadline() is None


def test_tick_while_suspended_cancels_the_chain(setup):
    machine, sls, proc = setup
    _dirty_heap(proc, 4)
    group = sls.attach(proc, period_ns=5 * MSEC)
    group.suspended = True
    machine.run_for(30 * MSEC)
    assert group.stats["checkpoints"] == 0
    # The tick observed `suspended` and did not reschedule itself.
    machine.loop.drain()
    assert machine.loop.next_deadline() is None


# -- suspend with an outstanding flush ------------------------------------------------


def test_suspend_with_periodic_flush_outstanding(setup):
    machine, sls, proc = setup
    addr = _dirty_heap(proc, 4096)  # 16 MiB
    proc.vmspace.write(addr, b"suspend me")
    group = sls.attach(proc, period_ns=10 * MSEC)
    gid = group.group_id
    machine.run_for(11 * MSEC)  # periodic flush now in flight
    assert group.flush_in_progress

    ckpt_id = sls.suspend(group)
    assert not group.flush_in_progress
    assert proc.state == "zombie"
    assert gid not in sls.groups

    result = sls.resume(gid)
    assert result.ckpt_id == ckpt_id
    assert result.root.vmspace.read(addr, 10) == b"suspend me"


# -- telemetry primitives -------------------------------------------------------------


def test_counter_and_value_aggregation():
    registry = telemetry.TelemetryRegistry()
    registry.counter("io.bytes", device="a").add(10)
    registry.counter("io.bytes", device="b").add(32)
    registry.counter("io.other", device="a").add(99)
    assert registry.value("io.bytes") == 42
    assert registry.value("io.bytes", device="b") == 32
    assert registry.value("io.missing") == 0


def test_histogram_stats_and_percentile():
    registry = telemetry.TelemetryRegistry()
    histogram = registry.histogram("lat")
    for value in (1, 2, 4, 100, 1000):
        histogram.observe(value)
    assert histogram.count == 5
    assert histogram.min == 1
    assert histogram.max == 1000
    assert histogram.mean == pytest.approx(221.4)
    assert histogram.total == 1107
    # Exact nearest-rank: every percentile is a sample that occurred.
    assert histogram.percentile(50) == 4
    assert histogram.percentile(95) == 1000
    assert histogram.percentile(100) == 1000


def test_span_feeds_same_name_histogram():
    registry = telemetry.TelemetryRegistry()
    registry.record_span("phase", 100, 400, group=7)
    registry.record_span("phase", 400, 600, group=7)
    histogram = registry.histogram("phase", group=7)
    assert histogram.count == 2
    assert histogram.total == 500
    assert len(registry.spans) == 2


def test_stats_view_behaves_like_a_dict():
    view = telemetry.StatsView("test.component", keys=("hits", "misses"))
    assert view["hits"] == 0
    view["hits"] += 3
    view["misses"] = 7
    assert view["hits"] == 3
    assert dict(view.items()) == {"hits": 3, "misses": 7}
    assert sorted(view) == ["hits", "misses"]
    assert "hits" in view and "unknown" not in view
    assert view.get("unknown", 5) == 5
    assert len(view) == 2


def test_stats_view_instances_do_not_collide():
    one = telemetry.StatsView("test.collide", keys=("n",))
    two = telemetry.StatsView("test.collide", keys=("n",))
    one["n"] += 5
    assert two["n"] == 0
    # But the registry can still aggregate across instances.
    assert telemetry.registry().value("test.collide.n") == 5


def test_group_stats_are_registry_backed(setup):
    machine, sls, proc = setup
    _dirty_heap(proc, 8)
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True)
    assert group.stats["checkpoints"] == 1
    assert telemetry.registry().value("sls.group.checkpoints",
                                      group=group.group_id) >= 1


def test_sls_stat_cli_prints_stage_table(tmp_path, capsys):
    from repro.core.cli import main

    image = str(tmp_path / "aurora.img")
    assert main(["init", image]) == 0
    assert main(["spawn", image, "demo", "--memory-kib", "64"]) == 0
    capsys.readouterr()
    assert main(["stat", image, "1", "--checkpoints", "2"]) == 0
    out = capsys.readouterr().out
    for stage in STAGE_ORDER:
        assert stage in out
    assert "stop time" in out
