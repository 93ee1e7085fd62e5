"""Quiescing and system shadowing."""

import pytest

from repro import Machine, load_aurora
from repro.core import costs
from repro.core.api import AuroraAPI
from repro.core.quiesce import assert_quiesced, quiesce_group, resume_group
from repro.core.shadowing import FORWARD, REVERSE
from repro.kernel.proc.thread import IN_SYSCALL, IN_SYSCALL_SLEEPING, IN_USER
from repro.kernel.vm.vmmap import INHERIT_SHARE
from repro.units import PAGE_SIZE


@pytest.fixture
def setup():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    return machine, sls, proc, group


# -- quiesce ----------------------------------------------------------------------


def test_quiesce_parks_all_threads(setup):
    machine, sls, proc, group = setup
    proc.add_thread()
    proc.add_thread()
    report = quiesce_group(machine.kernel, group)
    assert report.threads == 3
    assert assert_quiesced(group)
    resume_group(machine.kernel, group)
    assert all(t.location == IN_USER for t in proc.threads)


def test_quiesce_waits_out_fast_syscalls(setup):
    machine, sls, proc, group = setup
    proc.main_thread.enter_syscall("getpid")
    report = quiesce_group(machine.kernel, group)
    assert report.waited_syscalls == 1
    assert report.restarted_syscalls == 0


def test_quiesce_restarts_sleeping_syscalls_transparently(setup):
    """No EINTR: the PC is rewound so the call is reissued (§5.1)."""
    machine, sls, proc, group = setup
    thread = proc.main_thread
    thread.cpu_state.regs["rip"] = 0x4000
    thread.enter_syscall("recv", sleeping=True)
    report = quiesce_group(machine.kernel, group)
    assert report.restarted_syscalls == 1
    assert thread.cpu_state.regs["rip"] == 0x4000 - 2
    resume_group(machine.kernel, group)
    assert not thread.syscall_restarted


def test_quiesce_sends_ipis(setup):
    machine, sls, proc, group = setup
    before = sum(c.ipi_count for c in machine.kernel.cpus.cpus)
    quiesce_group(machine.kernel, group)
    assert sum(c.ipi_count for c in machine.kernel.cpus.cpus) > before


def test_quiesce_flushes_lazy_fpu(setup):
    machine, sls, proc, group = setup
    proc.main_thread.cpu_state.fpu_on_cpu = True
    quiesce_group(machine.kernel, group)
    assert not proc.main_thread.cpu_state.fpu_on_cpu


# -- system shadowing -----------------------------------------------------------------


def test_shadow_pass_creates_shadow_and_freezes_old_top(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    proc.vmspace.touch(addr, 8, seed=1)
    old_top = proc.vmspace.entry_at(addr).vmobject

    items = sls.shadow.shadow_group(group)
    assert len(items) == 1
    assert items[0].page_count() == 8  # first checkpoint: full content
    new_top = proc.vmspace.entry_at(addr).vmobject
    assert new_top is not old_top
    assert new_top.backing is old_top
    assert old_top.frozen
    assert new_top.sls_oid == old_top.sls_oid


def test_second_pass_flushes_only_dirty(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    proc.vmspace.touch(addr, 64, seed=1)
    sls.shadow.shadow_group(group)
    sls.shadow.mark_flushed(group)
    proc.vmspace.touch(addr, 3, seed=2)  # dirty 3 pages
    items = sls.shadow.shadow_group(group)
    assert items[0].page_count() == 3


def test_chain_bounded_at_three_objects(setup):
    """base <- flushing <- active: eager collapse keeps chains short."""
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    for round_no in range(6):
        proc.vmspace.touch(addr, 2, seed=round_no)
        sls.shadow.collapse_completed(group)
        sls.shadow.shadow_group(group)
        sls.shadow.mark_flushed(group)
        top = proc.vmspace.entry_at(addr).vmobject
        assert top.chain_length() <= 3


def test_collapse_preserves_contents(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"round0")
    sls.shadow.shadow_group(group)
    sls.shadow.mark_flushed(group)
    proc.vmspace.write(addr + PAGE_SIZE, b"round1")
    sls.shadow.collapse_completed(group)
    sls.shadow.shadow_group(group)
    sls.shadow.mark_flushed(group)
    sls.shadow.collapse_completed(group)
    assert proc.vmspace.read(addr, 6) == b"round0"
    assert proc.vmspace.read(addr + PAGE_SIZE, 6) == b"round1"


def test_shared_memory_shadowed_once_for_all_sharers(setup):
    """System shadowing handles what fork-COW cannot: both sharers are
    repointed to one shadow and keep seeing each other's writes."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fd = kernel.shm_open(proc, "/shared", 4 * PAGE_SIZE)
    addr = kernel.shm_mmap(proc, fd)
    child = kernel.fork(proc)  # joins the group automatically
    proc.vmspace.write(addr, b"before")

    sls.shadow.shadow_group(group)
    # Both entries now point at the same (new) shadow.
    parent_obj = proc.vmspace.entry_at(addr).vmobject
    child_obj = child.vmspace.entry_at(addr).vmobject
    assert parent_obj is child_obj
    # Sharing still works after the shadow pass.
    proc.vmspace.write(addr, b"AFTER!")
    assert child.vmspace.read(addr, 6) == b"AFTER!"
    # The shm descriptor backmap points at the newest shadow.
    segment = proc.fdtable.get(fd).fobj
    assert segment.vmobject is parent_obj


def test_fork_cow_interoperates_with_system_shadowing(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"shared-base")
    child = kernel.fork(proc)
    sls.shadow.shadow_group(group)
    # Private writes still diverge after the system shadow pass.
    proc.vmspace.write(addr, b"parent-only")
    assert child.vmspace.read(addr, 11) == b"shared-base"


def test_excluded_entries_not_shadowed(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="scratch")
    proc.vmspace.touch(addr, 4, seed=1)
    proc.vmspace.entry_at(addr).sls_excluded = True
    items = sls.shadow.shadow_group(group)
    assert items == []


def test_write_protect_cost_scales_with_dirty_set(setup):
    machine, sls, proc, group = setup
    addr = proc.vmspace.mmap(2048 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 2048, seed=0)
    t0 = machine.clock.now()
    sls.shadow.shadow_group(group)
    big = machine.clock.now() - t0
    sls.shadow.mark_flushed(group)

    proc.vmspace.touch(addr, 4, seed=1)
    sls.shadow.collapse_completed(group)
    t0 = machine.clock.now()
    sls.shadow.shadow_group(group)
    small = machine.clock.now() - t0
    assert big > 4 * small  # 2048 pages vs 4 pages


def test_forward_collapse_is_slower_for_large_bases():
    """The ablation behind §6: reversing the collapse direction makes
    its cost proportional to the dirty set, not the resident set."""
    def run(direction):
        machine = Machine()
        sls = load_aurora(machine)
        sls.shadow.collapse_direction = direction
        proc = machine.kernel.spawn("app")
        group = sls.attach(proc, periodic=False)
        addr = proc.vmspace.mmap(4096 * PAGE_SIZE, name="heap")
        proc.vmspace.fill(addr, 4096, seed=0)
        sls.shadow.shadow_group(group)
        sls.shadow.mark_flushed(group)
        proc.vmspace.touch(addr, 2, seed=1)
        sls.shadow.shadow_group(group)      # freezes the 2-page shadow
        sls.shadow.mark_flushed(group)
        t0 = machine.clock.now()
        sls.shadow.collapse_completed(group)
        return machine.clock.now() - t0

    reverse_cost = run(REVERSE)
    forward_cost = run(FORWARD)
    assert forward_cost > 10 * reverse_cost


#: ``(shadows_created, dirty_runs, collapses, collapse_pages_moved,
#: tlb_shootdowns, ptes_downgraded)`` after each checkpoint of
#: :func:`test_shadow_counters_per_checkpoint_kind`, as booked per
#: object before the pass booked them once.
PINNED = [(3, 3, 0, 0, 1, 73), (6, 5, 0, 0, 2, 78), (9, 6, 3, 5, 3, 80),
          (12, 9, 6, 7, 4, 86)]


def test_shadow_counters_per_checkpoint_kind(setup):
    """The shadow pass's counters after a full, an incremental, a mem
    and a collapsing checkpoint, pinned: booking them once per pass
    counts what booking them per object did.  A pass with no objects
    adds no key and no count."""
    machine, sls, proc, group = setup
    stats = sls.shadow.stats
    keys = stats.keys()
    empty = sls.shadow.shadow_group(group)
    assert empty == []
    assert stats.keys() == keys
    assert stats.as_dict() == dict.fromkeys(keys, 0)

    kernel = machine.kernel
    heap = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    stack = proc.vmspace.mmap(8 * PAGE_SIZE, name="stack")
    fd = kernel.shm_open(proc, "/pinned", 4 * PAGE_SIZE)
    shared = kernel.shm_mmap(proc, fd)
    proc.vmspace.fill(heap, 64, seed=0)
    proc.vmspace.touch(stack, 8, seed=1)
    proc.vmspace.write(shared, b"shm")
    seen = []

    def step(**kwargs):
        sls.checkpoint(group, sync=True, **kwargs)
        seen.append(stats.as_dict())

    step(full=True)
    proc.vmspace.touch(heap, 3, seed=2)
    proc.vmspace.touch(heap + 10 * PAGE_SIZE, 2, seed=3)
    step()
    proc.vmspace.touch(stack, 2, seed=4)
    step(mode="mem")
    proc.vmspace.touch(heap + 20 * PAGE_SIZE, 5, seed=5)
    proc.vmspace.write(shared, b"again")
    step()
    names = ("shadows_created", "dirty_runs", "collapses",
             "collapse_pages_moved", "tlb_shootdowns", "ptes_downgraded")
    assert [tuple(row[name] for name in names) for row in seen] == PINNED
    assert stats.keys() == keys


def _vmobject_names(sls, ckpt_id):
    extents, _pages = sls.store.merged_view(ckpt_id)
    return sorted(state["name"] for otype, state
                  in sls.store.read_object_records(extents).values()
                  if otype == "vmobject")


def test_system_shadow_names_do_not_grow_with_checkpoints():
    """A system shadow is named ``sys:`` plus the object's name once:
    fifty checkpoints, and five more after a restore, leave the heap's
    record called ``sys:heap``, not ``sys:sys:…heap``."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    for step in range(50):
        proc.vmspace.write(addr, b"%d" % step)
        info = sls.checkpoint(group, sync=True).info
    assert _vmobject_names(sls, info.ckpt_id) == ["sys:heap"]
    machine.crash()
    machine.boot()
    sls = load_aurora(machine)
    restored = sls.restore(group.group_id, periodic=False)
    for step in range(5):
        restored.root.vmspace.write(addr, b"%d" % step)
        info = sls.checkpoint(restored.group, sync=True).info
    assert _vmobject_names(sls, info.ckpt_id) == ["sys:heap"]
    assert restored.root.vmspace.entry_at(addr).vmobject.name == "sys:heap"


def test_memckpt_and_checkpoint_shadow_names_stay_bounded():
    """``sls_memckpt`` shadows under the same once-only name as a disk
    checkpoint: six rounds of one of each, a restore and one more round
    leave the heap called ``sys:heap`` (it grew by ``sys:atomic:`` per
    round when the memckpt prefixed its own tag)."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    api = AuroraAPI(sls, proc)
    for step in range(6):
        proc.vmspace.write(addr, b"mem %d" % step)
        api.sls_memckpt(addr, 4 * PAGE_SIZE, sync=True)
        proc.vmspace.write(addr, b"disk %d" % step)
        info = sls.checkpoint(group, sync=True).info
    assert _vmobject_names(sls, info.ckpt_id) == ["sys:heap"]
    machine.crash()
    machine.boot()
    sls = load_aurora(machine)
    restored = sls.restore(group.group_id, periodic=False)
    assert restored.root.vmspace.read(addr, 6) == b"disk 5"
    assert restored.root.vmspace.entry_at(addr).vmobject.name == "sys:heap"
    api = AuroraAPI(sls, restored.root)
    api.sls_memckpt(addr, 4 * PAGE_SIZE, sync=True)
    info = sls.checkpoint(restored.group, sync=True).info
    assert _vmobject_names(sls, info.ckpt_id) == ["sys:heap"]
