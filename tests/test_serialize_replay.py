"""Replaying an fd table's last walk changes nothing but host time.

Differential: hypothesis drives two machines through the same random
descriptor churn, traffic, checkpoints of every kind, a failed flush
and a restore (the fixed script adds an asynchronous flush failure).
One of them forgets every table's memo before every checkpoint
(``tests/serialize_reference.py``), so its serializer walks every slot,
as it did before tables remembered anything; the other replays.  Per
checkpoint the two must agree on the staged records (order and bytes),
the live set, the written/skipped counts, the span stream and the clock
— and on every byte on the device at the end.  Per table per replay,
the slots found from the kernel's dirty log must be the slots the scan
of every memoised stamp finds (``scan_slots``), in the same order.

Directed: one case per reason the replay is not taken, two layout
changes inside one epoch, two groups with different floors on one
kernel, an async flush failure that lowers a floor the log was already
pruned to, dup and fork sharing, and the invariant the shared live set
leans on (nobody mutates a committed checkpoint's ``live_oids``).
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.core import telemetry
from repro.core.api import AuroraAPI
from repro.core.faults import FaultPlan
from repro.core.pipeline import MODE_DISK, MODE_MEM
from repro.core.serialize import WalkMemo
from repro.errors import ReproError
from repro.kernel.fs.file import DTYPE_PIPE, DTYPE_SOCKET, DTYPE_VNODE, \
    O_CREAT, O_RDWR
from repro.kernel.ipc.kqueue import EVFILT_READ, KEvent
from repro.kernel.ipc.unixsock import ControlMessage
from repro.units import MSEC, PAGE_SIZE

from .serialize_reference import forget_walks, scan_slots
from .test_store_image_golden import image_digest

PATHS = 6
MAX_PROCS = 4


@contextmanager
def scan_checked():
    """Check every replay's visits against the scan; yields the list of
    ``(floor, visits)`` replays compared (visits None: log pruned)."""
    stamped_slots = WalkMemo.stamped_slots
    replays = []

    def checked(memo, kernel, floor):
        visits = stamped_slots(memo, kernel, floor)
        if visits is not None:
            assert visits == scan_slots(memo, floor), floor
        replays.append((floor, visits))
        return visits

    WalkMemo.stamped_slots = checked
    try:
        yield replays
    finally:
        WalkMemo.stamped_slots = stamped_slots


class World:
    """One machine, one consistency group, and what each of its
    checkpoints looked like from outside the serializer."""

    def __init__(self, forget: bool):
        telemetry.reset()
        self.forget = forget
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        kernel = self.machine.kernel
        root = kernel.spawn("root")
        kernel.mkdir(root, "/d")
        for index in range(PATHS):
            kernel.open(root, f"/d/f{index}", O_CREAT | O_RDWR)
        self.heap = root.vmspace.mmap(4 * PAGE_SIZE, name="heap")
        root.vmspace.write(self.heap, b"heap")
        self.group = self.sls.attach(root, periodic=False, history_limit=3)
        self.procs = [root]
        self.log = []
        self._watch()

    def _watch(self) -> None:
        """Keep the context of every pipeline run of the current SLS."""
        run = self.sls.pipeline.run

        def watched(ctx):
            self.ctx = ctx
            return run(ctx)

        self.sls.pipeline.run = watched

    @property
    def kernel(self):
        return self.machine.kernel

    # -- checkpoints ----------------------------------------------------------

    def checkpoint(self, mode=MODE_DISK, full=False, fail=None) -> None:
        """``fail``: "enospc" fails the flush's first IO; "async" lets
        the checkpoint return and fails every finalize write, so the
        rollback lowers the floor the commit had installed."""
        if self.forget:
            forget_walks(self.sls)
        self.ctx = None
        plan = FaultPlan(name="fail")
        if fail == "enospc":
            plan.nospace_at_io(1)
        if fail:
            self.machine.set_fault_plan(plan)
        try:
            self.sls.checkpoint(self.group, sync=fail != "async", mode=mode,
                                full=full)
            if fail == "async":
                plan.transient_at_io(plan.io_index, times=1000)
                for _ in range(100):
                    if not self.group.flush_in_progress:
                        break
                    self.machine.run_for(50 * MSEC)
            outcome = "ok"
        except ReproError as exc:
            outcome = type(exc).__name__
        finally:
            self.machine.set_fault_plan(FaultPlan(name="clear"))
        ctx = self.ctx
        txn = ctx.txn
        staged = list(txn.staged_records)
        self.log.append({
            "mode": mode,
            "outcome": outcome,
            "staged": staged,
            "live": sorted(txn.info.live_oids),
            "written": ctx.records_written,
            "skipped": ctx.records_skipped,
            "spans": [(span.name, span.start_ns, span.end_ns)
                      for span in telemetry.registry().spans],
            "clock": self.machine.clock.now(),
        })

    def memckpt(self) -> None:
        root = self.procs[0]
        root.vmspace.write(self.heap + 64, b"m%05d" % len(self.log))
        AuroraAPI(self.sls, root).sls_memckpt(self.heap, PAGE_SIZE,
                                              sync=True)
        self.log.append({"mode": "memckpt",
                         "clock": self.machine.clock.now()})

    def restore(self) -> None:
        self.checkpoint()
        gid = self.group.group_id
        self.machine.crash()
        self.machine.boot()
        self.sls = load_aurora(self.machine)
        try:
            result = self.sls.restore(gid, periodic=False)
        except ReproError as exc:
            # ``apply`` would swallow it and leave the dead kernel's
            # processes driving the world.
            raise AssertionError(f"restore failed: {exc!r}") from exc
        self.group = result.group
        self.group.history_limit = 3
        self.procs = list(result.processes)
        # Restored descriptors name the booted kernel's files, never the
        # dead kernel's (whose kids would collide with the new ones).
        assert all(file.kernel is self.kernel for proc in self.procs
                   for file in proc.fdtable.files())
        self._watch()
        self.checkpoint()

    # -- the application ------------------------------------------------------

    def apply(self, op: str, arg: int) -> None:
        kernel = self.kernel
        proc = self.procs[arg % len(self.procs)]
        arg //= len(self.procs)
        fds = proc.fdtable.fds()
        fd = fds[arg % len(fds)] if fds else None
        path = f"/d/f{arg % PATHS}"
        try:
            if op == "open":
                kernel.open(proc, path, O_CREAT | O_RDWR)
            elif op == "pipe":
                kernel.pipe(proc)
            elif op == "socketpair":
                kernel.socketpair(proc)
            elif op == "udp":
                kernel.sock_of(proc, kernel.udp_socket(proc)).bind(
                    "10.0.0.1", 5000 + arg % 97)
            elif op == "kqueue":
                proc.fdtable.get(kernel.kqueue(proc)).fobj.register(
                    KEvent(arg % 7, EVFILT_READ))
            elif op == "pty":
                kernel.open_pty(proc)
            elif op == "unlink":
                kernel.unlink(proc, path)
            elif op == "rename":
                kernel.vfs.rename(path, f"/d/f{(arg + 1) % PATHS}")
            elif op == "fork":
                if len(self.procs) < MAX_PROCS:
                    self.procs.append(kernel.fork(proc))
            elif op == "exit":
                if proc is not self.procs[0]:
                    self.procs.remove(proc)
                    proc.exit(0)
            elif op == "ckpt":
                self.checkpoint()
            elif op == "full":
                self.checkpoint(full=True)
            elif op == "mem":
                self.checkpoint(mode=MODE_MEM)
            elif op == "fail":
                self.checkpoint(fail="enospc")
            elif op == "afail":
                self.checkpoint(fail="async")
            elif op == "memckpt":
                self.memckpt()
            elif op == "restore":
                self.restore()
            elif fd is None:
                return
            elif op == "close":
                kernel.close(proc, fd)
            elif op == "dup":
                kernel.dup(proc, fd)
            elif op == "dup2":
                # Onto an open slot, onto itself, onto a fresh number.
                target = (fds[(arg // 3) % len(fds)], fd,
                          fds[-1] + 2)[arg % 3]
                proc.fdtable.dup2(fd, target)
            elif op == "reopen":
                # Lands on the same number when ``fd`` was the lowest.
                kernel.close(proc, fd)
                kernel.open(proc, path, O_CREAT | O_RDWR)
            elif op == "lseek":
                kernel.lseek(proc, fd, arg % 64)
            elif op == "traffic":
                self.traffic(proc, fd, arg)
        except ReproError:
            pass        # EBADF, EAGAIN, ENOENT...: the same on both sides

    def traffic(self, proc, fd: int, arg: int) -> None:
        kernel = self.kernel
        file = proc.fdtable.get(fd)
        payload = b"t%04d" % (arg % 10000)
        if file.ftype == DTYPE_VNODE:
            kernel.write(proc, fd, payload)
        elif file.ftype == DTYPE_PIPE:
            if file.writable():
                kernel.write(proc, fd, payload)
            else:
                kernel.read(proc, fd, 3)
        elif file.ftype != DTYPE_SOCKET:
            return
        elif file.fobj.obj_type == "udpsock":
            if arg % 2:
                file.fobj.enqueue(("10.0.0.9", 9), payload)
            else:
                file.fobj.recvfrom()
        elif file.fobj.obj_type == "unixsock":
            if arg % 3 == 0:
                # Receive; a passed descriptor joins the table.
                message = file.fobj.recvmsg()
                for passed in (message.control.files
                               if message.control is not None else ()):
                    proc.fdtable.install(passed)
                    passed.unref()
                return
            vnode_files = [f for f in proc.fdtable.files()
                           if f.ftype == DTYPE_VNODE]
            control = None
            if arg % 3 == 1 and vnode_files:
                # SCM_RIGHTS of a table file: in flight it is reached
                # through the socket, before or after its own slot.
                control = ControlMessage(
                    files=[vnode_files[arg % len(vnode_files)]])
            file.fobj.sendmsg(payload, control)


#: Weighted so that most checkpoints find most tables unchanged (the
#: replay) while every few see a layout change (the full walk).
OPS = (("open", "close", "dup", "dup2", "reopen", "fork", "exit", "pipe",
        "socketpair", "udp", "kqueue", "pty", "unlink", "rename", "full",
        "fail", "afail", "restore")
       + ("lseek", "mem", "memckpt") * 2 + ("traffic",) * 10 + ("ckpt",) * 9)
_ops = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2 ** 20)),
                min_size=8, max_size=70)


def _differential(op_list) -> list:
    """Run both worlds; returns the replays compared with the scan."""
    worlds = []
    with scan_checked() as replays:
        for forget in (True, False):
            world = World(forget)
            for op, arg in op_list:
                world.apply(op, arg)
            world.checkpoint()
            worlds.append(world)
    walked, replayed = worlds
    assert len(walked.log) == len(replayed.log)
    for index, (want, got) in enumerate(zip(walked.log, replayed.log)):
        for key in want:
            assert got[key] == want[key], (index, want["mode"], key)
    assert image_digest([replayed.machine]) \
        == image_digest([walked.machine])
    return replays


@settings(max_examples=20, deadline=None)
@given(_ops)
def test_replay_equals_walk(op_list):
    _differential(op_list)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(_ops)
def test_replay_equals_walk_200(op_list):
    _differential(op_list)


def test_churn_with_every_kind_of_slot_and_sharing():
    """A fixed script through the corners the random one may miss in
    20 examples: SCM_RIGHTS of a clean table file whose socket sits
    *below* its slot, fork + child churn, member exit, dup2 onto an
    open slot, unlink-while-open, a failed flush, memckpt, restore."""
    script = [("open", 0), ("open", 1), ("socketpair", 0), ("open", 2),
              ("pipe", 0), ("udp", 0), ("kqueue", 0), ("pty", 0),
              ("ckpt", 0), ("ckpt", 0),
              # fd 2 is the left socket: send table file fd 0 over it.
              ("traffic", 2 * 1 + 0), ("ckpt", 0), ("ckpt", 0),
              ("fork", 0), ("ckpt", 0), ("traffic", 1 + 2 * 3),
              ("close", 1 + 2 * 1), ("ckpt", 0), ("dup2", 0 + 2 * 3),
              ("unlink", 2), ("mem", 0), ("ckpt", 0), ("fail", 0),
              ("ckpt", 0), ("ckpt", 0), ("memckpt", 0), ("ckpt", 0),
              ("traffic", 0), ("afail", 0), ("mem", 0), ("ckpt", 0),
              ("ckpt", 0), ("exit", 1), ("ckpt", 0), ("restore", 0),
              ("traffic", 0), ("ckpt", 0), ("ckpt", 0)]
    replays = _differential(script)
    assert sum(visits is not None for _floor, visits in replays) >= 8


def test_restore_after_a_fork_exit_and_memckpt_reopens_cleanly():
    """A script hypothesis once drew: with a fork's private shadows
    lost across the crash, the restore failed, the world went on with
    the dead kernel's processes, and the last open raised
    ``KeyError: 11`` in ``WalkMemo`` (the dead kernel's ``OpenFile``
    kids collide with the booted kernel's)."""
    _differential([("open", 0)] * 5 + [
        ("fork", 0), ("exit", 1), ("mem", 0), ("memckpt", 0),
        ("restore", 0), ("open", 0)])


def test_a_failed_first_fs_checkpoint_is_staged_again():
    """The group's first checkpoint is asynchronous and its flush fails:
    the FS checkpoint riding on it fails too, and what it staged — the
    first records of ``/``, ``/d`` and ``/d/f0``… — is dirty again, so
    the next checkpoint persists it and a crash restores the files
    (the restore found no FS checkpoint holding inode 3 when the
    failure lost them)."""
    world = World(forget=False)
    world.apply("afail", 0)
    assert world.log[-1]["outcome"] == "ok"
    slsfs = world.sls.slsfs
    assert slsfs.last_ckpt_id is None and slsfs.has_dirty()
    world.restore()
    kernel, root = world.kernel, world.procs[0]
    for index in range(PATHS):
        fd = kernel.open(root, f"/d/f{index}", O_RDWR)
        assert kernel.read(root, fd, 8) == b""
    assert world.log[-1]["outcome"] == "ok"


# -- directed: when the replay is and is not taken ------------------------------


@pytest.fixture
def wide():
    telemetry.reset()
    machine = Machine()
    sls = load_aurora(machine)
    kernel = machine.kernel
    proc = kernel.spawn("app")
    fds = [kernel.open(proc, f"/f{i}", O_CREAT | O_RDWR) for i in range(12)]
    kernel.pipe(proc)
    group = sls.attach(proc, periodic=False)
    return machine, sls, proc, group, fds


def _walks(group):
    """``(slots replayed, slots walked, {reason: full walks})`` so far."""
    registry = telemetry.registry()
    gid = group.group_id
    return (registry.value("sls.serialize.slots_replayed", group=gid),
            registry.value("sls.serialize.slots_walked", group=gid),
            {counter.labels["reason"]: counter.value
             for counter in registry.counters_matching(
                 "sls.serialize.full_walks", group=gid)})


def test_steady_state_replays_all_but_dirty_and_always_slots(wide):
    machine, sls, proc, group, fds = wide
    sls.checkpoint(group, sync=True)
    assert _walks(group) == (0, 14, {"no_floor": 1})
    machine.kernel.write(proc, fds[3], b"x")
    machine.kernel.lseek(proc, fds[7], 2)
    result = sls.checkpoint(group, sync=True)
    # 12 files + 2 pipe ends: the two dirty files and the pipe ends are
    # visited, ten slots are accounted from the memo.
    assert _walks(group) == (10, 14 + 4, {"no_floor": 1})
    assert result.records_skipped == 10 * 2 + 1 + 3 + 1  # +vnode, pipe, table


@pytest.mark.parametrize("reason", ["no_floor", "parent_live_unresolvable",
                                    "layout_changed", "not_in_prior_live"])
def test_full_walk_reasons(wide, reason):
    machine, sls, proc, group, fds = wide
    kernel = machine.kernel
    sls.checkpoint(group, sync=True)
    sls.checkpoint(group, sync=True)
    before = _walks(group)[2].get(reason, 0)
    full = False
    if reason == "no_floor":
        full = True
    elif reason == "parent_live_unresolvable":
        for info in sls.store.checkpoints.values():
            info.live_oids = None
    elif reason == "layout_changed":
        kernel.dup(proc, fds[0])
    else:
        # A close the memory-mode walk memoises, then a reopen of a
        # *new* file that it memoises too: the layout matches the memo,
        # but the parent checkpoint never saw the new file.
        kernel.close(proc, fds[0])
        kernel.open(proc, "/late", O_CREAT | O_RDWR)
        sls.checkpoint(group, mode=MODE_MEM)
    sls.checkpoint(group, sync=True, full=full)
    after = _walks(group)[2]
    assert after.get(reason, 0) == before + 1
    # The full walk rebuilt the memo: the next checkpoint replays.
    replayed = _walks(group)[0]
    sls.checkpoint(group, sync=True)
    if reason != "parent_live_unresolvable":
        assert _walks(group)[0] > replayed


def test_two_layout_changes_inside_one_epoch(wide):
    """A memory-mode checkpoint does not bump the epoch, so a close
    before it and a reopen onto the same fd number after it carry the
    same ``dirty_epoch`` stamp on the table: only ``layout_gen`` tells
    the serializer the memo is stale."""
    machine, sls, proc, group, fds = wide
    kernel = machine.kernel
    sls.checkpoint(group, sync=True)
    kernel.close(proc, fds[0])
    epoch = proc.fdtable.dirty_epoch
    sls.checkpoint(group, mode=MODE_MEM)
    assert kernel.open(proc, "/other", O_CREAT | O_RDWR) == fds[0]
    assert proc.fdtable.dirty_epoch == epoch
    result = sls.checkpoint(group, sync=True)
    info = sls.store.get_checkpoint(result.info.ckpt_id)
    reopened = group.oid_map[proc.fdtable.get(fds[0]).kid]
    assert reopened in info.live_oids and reopened in info.object_records
    table = sls.store.read_object_records(
        {oid: extent for oid, extent in info.object_records.items()
         if oid == group.oid_map[proc.fdtable.kid]})
    (_otype, state), = table.values()
    assert state["fds"][str(fds[0])] == reopened


def test_exited_members_memo_is_dropped(wide):
    machine, sls, proc, group, fds = wide
    child = machine.kernel.fork(proc)
    sls.checkpoint(group, sync=True)
    assert set(group.walk_memos) == {proc.fdtable.kid, child.fdtable.kid}
    child.exit(0)
    sls.checkpoint(group, sync=True)
    assert set(group.walk_memos) == {proc.fdtable.kid}


def test_unchanged_live_set_is_shared_and_never_mutated(wide):
    """A checkpoint whose live set equals its parent's takes the
    parent's set object (and the OID runs already sorted from it);
    that is only sound while nobody mutates a committed set — through
    GC, a memckpt, new files and a restore, every set still holds what
    it held when its checkpoint committed."""
    machine, sls, proc, group, fds = wide
    kernel = machine.kernel
    group.history_limit = 3
    heap = proc.vmspace.mmap(2 * PAGE_SIZE, name="heap")
    snapshots = {}

    def commit():
        info = sls.checkpoint(group, sync=True).info
        snapshots[info.ckpt_id] = (info.live_oids, frozenset(info.live_oids))
        return info

    first, second = commit(), commit()
    assert second.live_oids is first.live_oids
    assert second.live_oid_runs() is first.live_oid_runs()
    kernel.open(proc, "/new", O_CREAT | O_RDWR)
    third = commit()
    assert third.live_oids is not second.live_oids
    proc.vmspace.write(heap, b"partial")
    AuroraAPI(sls, proc).sls_memckpt(heap, PAGE_SIZE, sync=True)
    kernel.close(proc, fds[5])
    for _ in range(4):
        commit()                        # GC adopts into the survivors
    gid = group.group_id
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    sls2.checkpoint(sls2.restore(gid, periodic=False).group, sync=True)
    for live, held in snapshots.values():
        assert live == held


# -- directed: the dirty log ------------------------------------------------------


def _lowest_floor(sls):
    return min(group.ckpt_epoch for group in sls.groups.values()
               if group.walk_memos and group.ckpt_epoch is not None)


def test_two_groups_with_different_floors_share_one_log():
    """Group ``a`` checkpoints every round, group ``b`` every third: the
    log keeps ``b``'s epochs while ``a``'s floor runs ahead, and every
    replay of either finds the slots the scan finds — ``b``'s two-file
    table from the kid side, each epoch's larger set never walked."""
    telemetry.reset()
    machine = Machine()
    sls = load_aurora(machine)
    kernel = machine.kernel
    procs, fds, groups = [], [], []
    for name, nfiles in (("a", 8), ("b", 2)):
        proc = kernel.spawn(name)
        procs.append(proc)
        fds.append([kernel.open(proc, f"/{name}{i}", O_CREAT | O_RDWR)
                    for i in range(nfiles)])
        kernel.pipe(proc)
        groups.append(sls.attach(proc, periodic=False))
    with scan_checked() as replays:
        for rnd in range(10):
            for proc, table in zip(procs, fds):
                kernel.write(proc, table[rnd % len(table)], b"r%d" % rnd)
                kernel.lseek(proc, table[(rnd * 3) % len(table)], rnd)
            sls.checkpoint(groups[0], sync=True)
            if rnd % 3 == 2:
                sls.checkpoint(groups[1], sync=True)
            assert kernel.dirty_base == _lowest_floor(sls)
            assert len(kernel.dirty_log) \
                == kernel.dirty_epoch - 1 - kernel.dirty_base
    assert groups[0].ckpt_epoch > groups[1].ckpt_epoch
    assert len({floor for floor, _visits in replays}) >= 8
    for group in groups:
        assert "log_pruned" not in _walks(group)[2]


def test_async_failure_lowers_a_floor_below_the_pruned_log():
    """An async flush that fails after its commit was accepted lowers
    the group's floor back to the previous one, but the log was already
    pruned to the new floor at submission.  That is safe: the failure
    also sets ``force_full_next``, so the next disk checkpoint has no
    floor, and a memory-mode pass in between finds the log pruned past
    its floor and walks the table in full — both end as the walk with
    no memo does."""
    worlds = []
    with scan_checked() as replays:
        for forget in (True, False):
            world = World(forget)
            for op, arg in (("ckpt", 0), ("traffic", 0), ("ckpt", 0),
                            ("traffic", 1), ("afail", 0)):
                world.apply(op, arg)
            group, kernel = world.group, world.kernel
            assert world.log[-1]["outcome"] == "ok" and group.force_full_next
            assert group.ckpt_epoch < kernel.dirty_base
            world.checkpoint(mode=MODE_MEM)
            world.checkpoint()
            world.checkpoint()
            worlds.append(world)
    walked, replayed = worlds
    for want, got in zip(walked.log, replayed.log):
        assert got == want
    reasons = _walks(replayed.group)[2]
    assert reasons["log_pruned"] == 1 and reasons["no_floor"] == 2
    assert replays[-1][1] is not None


def test_dup_and_fork_sharing_visit_every_slot_of_a_written_file(wide):
    """A file dup'ed into three slots of one table and shared with a
    forked child's table: one write visits all its slots in both tables
    (the index names several slots per kid), and the bulk step counts
    each shared object once."""
    machine, sls, proc, group, fds = wide
    kernel = machine.kernel
    dups = [kernel.dup(proc, fds[2]) for _ in range(2)]
    child = kernel.fork(proc)
    kernel.open(proc, "/other", O_CREAT | O_RDWR)
    sls.checkpoint(group, sync=True)
    sls.checkpoint(group, sync=True)
    kernel.write(proc, fds[2], b"shared")
    with scan_checked() as replays:
        result = sls.checkpoint(group, sync=True)
    table = proc.fdtable.fds()
    # The written file's three slots and the pipe's two, in slot order,
    # in the parent's table and in the child's (the same layout, less
    # the file the parent opened after the fork).
    visits = sorted([table.index(fd) for fd in [fds[2]] + dups]
                    + [table.index(fd) for fd in table
                       if proc.fdtable.get(fd).ftype == DTYPE_PIPE])
    assert [slots for _floor, slots in replays] == [visits, visits]
    # Skipped once each: 13 files and their vnodes less the written
    # pair, the pipe and its two ends, and both tables.
    assert result.records_skipped == 2 * 13 - 2 + 3 + 2
