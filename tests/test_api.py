"""The Aurora application API (Table 3): sls_* calls."""

import pytest

from repro import Machine, load_aurora
from repro.core.api import AuroraAPI
from repro.core.faults import FaultPlan
from repro.errors import InvalidArgument, NoSpace, NotAttached
from repro.units import KiB, MiB, MSEC, PAGE_SIZE, USEC


@pytest.fixture
def setup():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("custom-app")
    group = sls.attach(proc, periodic=False)
    api = AuroraAPI(sls, proc)
    return machine, sls, proc, group, api


def test_api_requires_attachment():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("loose")
    api = AuroraAPI(sls, proc)
    with pytest.raises(NotAttached):
        api.sls_checkpoint()


def test_manual_checkpoint_and_barrier(setup):
    machine, sls, proc, group, api = setup
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"api data")
    res = api.sls_checkpoint()
    assert res.info is not None
    ckpt_id = api.sls_barrier()
    assert ckpt_id == res.info.ckpt_id
    assert sls.store.get_checkpoint(ckpt_id).complete


def test_sls_restore_rolls_back(setup):
    machine, sls, proc, group, api = setup
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"good state")
    api.sls_checkpoint(sync=True)
    proc.vmspace.write(addr, b"bad state!")
    result = api.sls_restore()
    assert result.root.vmspace.read(addr, 10) == b"good state"
    assert proc.state == "zombie"  # old incarnation torn down


def test_memckpt_checkpoints_one_region(setup):
    machine, sls, proc, group, api = setup
    heap = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    scratch = proc.vmspace.mmap(64 * PAGE_SIZE, name="scratch")
    proc.vmspace.write(heap, b"persisted")
    proc.vmspace.write(scratch, b"ignored")
    api.sls_checkpoint(sync=True)  # baseline full checkpoint
    proc.vmspace.write(heap, b"PERSISTED-v2")
    proc.vmspace.write(scratch, b"SCRATCH-v2")
    res = api.sls_memckpt(heap, 64 * PAGE_SIZE, sync=True)
    assert res.info.partial
    gid = group.group_id

    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    result = sls2.restore(gid)
    # The memckpt region is current; the other region is at the full
    # checkpoint's state (composition, §7).
    assert result.root.vmspace.read(heap, 12) == b"PERSISTED-v2"
    assert result.root.vmspace.read(scratch, 7) == b"ignored"


def test_memckpt_has_lower_stop_time_than_full(setup):
    machine, sls, proc, group, api = setup
    heap = proc.vmspace.mmap(256 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(heap, 256, seed=0)
    full = api.sls_checkpoint(sync=True)
    proc.vmspace.touch(heap, 256, seed=1)
    full2 = api.sls_checkpoint(sync=True)
    proc.vmspace.touch(heap, 256, seed=2)
    atomic = api.sls_memckpt(heap, 256 * PAGE_SIZE, sync=True)
    assert atomic.stop_ns < full2.stop_ns


def test_a_failed_sync_memckpt_rolls_back(setup):
    """ENOSPC on the region's first data write rolls the atomic
    checkpoint back like any other: the flush gate reopens, and the
    next checkpoint is full (the rolled-back page and the untouched
    one) and makes the region's write durable."""
    machine, sls, proc, group, api = setup
    heap = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    proc.vmspace.write(heap, b"base")
    proc.vmspace.write(heap + 5 * PAGE_SIZE, b"other")
    api.sls_checkpoint(sync=True)
    proc.vmspace.write(heap, b"region-v2")
    plan = FaultPlan(name="enospc")
    machine.set_fault_plan(plan.nospace_at_io(plan.io_index))
    with pytest.raises(NoSpace):
        api.sls_memckpt(heap, 64 * PAGE_SIZE, sync=True)
    machine.set_fault_plan(None)

    result = sls.checkpoint(group, sync=True)
    assert result.info.complete and not result.info.partial
    assert result.pages_flushed == 2 and result.records_skipped == 0
    gid = group.group_id
    machine.crash()
    machine.boot()
    restored = load_aurora(machine).restore(gid, periodic=False)
    assert restored.root.vmspace.read(heap, 9) == b"region-v2"


def test_an_async_memckpt_failing_at_finalize_rolls_back(setup):
    """The commit of an async atomic checkpoint fails at its metadata
    write (after the data and record writes): ``last_ckpt_id`` returns
    to a checkpoint the store holds, and the next checkpoint parents
    onto it."""
    machine, sls, proc, group, api = setup
    heap = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    proc.vmspace.write(heap, b"base")
    base = api.sls_checkpoint(sync=True).info.ckpt_id
    proc.vmspace.write(heap, b"region-v2")
    plan = FaultPlan(name="enospc")
    machine.set_fault_plan(plan.nospace_at_io(plan.io_index + 2))
    atomic = api.sls_memckpt(heap, 64 * PAGE_SIZE)
    machine.run_for(10 * MSEC)
    machine.set_fault_plan(None)
    assert atomic.info.ckpt_id not in sls.store.checkpoints
    held = group.last_ckpt_id

    result = sls.checkpoint(group, sync=True)
    assert held == base and sls.store.checkpoints[held].complete
    assert result.info.parent == held


@pytest.mark.parametrize("failed", ["disk", "atomic"])
def test_a_memckpt_after_a_rollback_keeps_the_rolled_back_writes(setup,
                                                                 failed):
    """A rolled-back checkpoint leaves the region's earlier writes
    dirty below its top; the next atomic checkpoint captures the
    region whole, so a crash after it restores both writes."""
    machine, sls, proc, group, api = setup
    heap = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    proc.vmspace.write(heap, b"base0")
    proc.vmspace.write(heap + PAGE_SIZE, b"base1")
    api.sls_checkpoint(sync=True)
    proc.vmspace.write(heap, b"W1")
    plan = FaultPlan(name="enospc")
    machine.set_fault_plan(plan.nospace_at_io(plan.io_index))
    with pytest.raises(NoSpace):
        if failed == "disk":
            sls.checkpoint(group, sync=True)
        else:
            api.sls_memckpt(heap, 64 * PAGE_SIZE, sync=True)
    machine.set_fault_plan(None)
    proc.vmspace.write(heap + PAGE_SIZE, b"W2")
    api.sls_memckpt(heap, 64 * PAGE_SIZE, sync=True)

    gid = group.group_id
    machine.crash()
    machine.boot()
    restored = load_aurora(machine).restore(gid, periodic=False)
    space = restored.root.vmspace
    assert space.read(heap, 5) == b"W1se0"
    assert space.read(heap + PAGE_SIZE, 5) == b"W2se1"


def test_journal_round_trip(setup):
    machine, sls, proc, group, api = setup
    journal = api.sls_journal_open(1 * MiB)
    api.sls_journal(journal, b"op-1")
    api.sls_journal(journal, b"op-2")
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    assert sls2.store.journal(journal.jid).replay() == [b"op-1", b"op-2"]


def test_journal_truncate_on_checkpoint_pattern(setup):
    """The RocksDB pattern: WAL fills -> checkpoint -> truncate WAL."""
    machine, sls, proc, group, api = setup
    journal = api.sls_journal_open(1 * MiB)
    api.sls_journal(journal, b"pre-ckpt")
    api.sls_checkpoint(sync=True)
    api.sls_journal_truncate(journal)
    api.sls_journal(journal, b"post-ckpt")
    assert journal.replay() == [b"post-ckpt"]


def test_mctl_excludes_region_from_checkpoints(setup):
    machine, sls, proc, group, api = setup
    heap = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    cache = proc.vmspace.mmap(1024 * PAGE_SIZE, name="cache")
    proc.vmspace.fill(cache, 1024, seed=0)
    proc.vmspace.write(heap, b"kept")
    assert api.sls_mctl(cache, 1024 * PAGE_SIZE, exclude=True) == 1
    res = api.sls_checkpoint(sync=True)
    assert res.pages_flushed < 1024  # the cache pages stayed home


def test_mctl_reinclude(setup):
    machine, sls, proc, group, api = setup
    region = proc.vmspace.mmap(4 * PAGE_SIZE, name="r")
    api.sls_mctl(region, 4 * PAGE_SIZE, exclude=True)
    api.sls_mctl(region, 4 * PAGE_SIZE, exclude=False)
    assert not proc.vmspace.entry_at(region).sls_excluded


def test_mctl_rejects_unmapped_range(setup):
    machine, sls, proc, group, api = setup
    with pytest.raises(InvalidArgument):
        api.sls_mctl(0xDEAD0000, PAGE_SIZE)


def test_fdctl_suppresses_external_synchrony(setup):
    machine, sls, proc, group, api = setup
    fd = machine.kernel.tcp_socket(proc)
    api.sls_fdctl(fd, nosync=True)
    assert proc.fdtable.get(fd).sls_nosync
    api.sls_fdctl(fd, nosync=False)
    assert not proc.fdtable.get(fd).sls_nosync


def test_journal_latency_below_checkpoint_latency(setup):
    """§7: the journal is the lowest-latency persistence primitive."""
    machine, sls, proc, group, api = setup
    heap = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    proc.vmspace.write(heap, b"x")
    journal = api.sls_journal_open(1 * MiB)
    t0 = machine.clock.now()
    api.sls_journal(journal, b"y" * 4096)
    journal_time = machine.clock.now() - t0
    t0 = machine.clock.now()
    api.sls_checkpoint(sync=True)
    ckpt_time = machine.clock.now() - t0
    assert journal_time < ckpt_time
