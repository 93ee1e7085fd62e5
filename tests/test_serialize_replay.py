"""Replaying an fd table's last walk changes nothing but host time.

Differential: hypothesis drives two machines through the same random
descriptor churn, traffic, checkpoints of every kind, a failed flush
and a restore.  One of them forgets every table's memo before every
checkpoint (``tests/serialize_reference.py``), so its serializer walks
every slot, as it did before tables remembered anything; the other
replays.  Per checkpoint the two must agree on the staged records
(order and bytes), the live set, the written/skipped counts, the span
stream and the clock — and on every byte on the device at the end.

Directed: one case per reason the replay is not taken, two layout
changes inside one epoch, and the invariant the shared live set leans
on (nobody mutates a committed checkpoint's ``live_oids``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.core import telemetry
from repro.core.api import AuroraAPI
from repro.core.faults import FaultPlan
from repro.core.pipeline import MODE_DISK, MODE_MEM
from repro.errors import ReproError
from repro.kernel.fs.file import DTYPE_PIPE, DTYPE_SOCKET, DTYPE_VNODE, \
    O_CREAT, O_RDWR
from repro.kernel.ipc.kqueue import EVFILT_READ, KEvent
from repro.kernel.ipc.unixsock import ControlMessage
from repro.units import PAGE_SIZE

from .serialize_reference import forget_walks
from .test_store_image_golden import image_digest

PATHS = 6
MAX_PROCS = 4


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

    def checkpoint(self, mode=MODE_DISK, full=False, fail=False) -> None:
        if self.forget:
            forget_walks(self.sls)
        self.ctx = None
        if fail:
            self.machine.set_fault_plan(
                FaultPlan(name="enospc").nospace_at_io(1))
        try:
            self.sls.checkpoint(self.group, sync=True, mode=mode, full=full)
            outcome = "ok"
        except ReproError as exc:
            outcome = type(exc).__name__
        finally:
            self.machine.set_fault_plan(FaultPlan(name="clear"))
        ctx = self.ctx
        txn = ctx.txn
        staged = (list(txn.records.items()) if mode == MODE_MEM
                  else list(txn.staged_records))
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
        result = self.sls.restore(gid, periodic=False)
        self.group = result.group
        self.group.history_limit = 3
        self.procs = list(result.processes)
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
                self.checkpoint(fail=True)
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
        "fail", "restore")
       + ("lseek", "mem", "memckpt") * 2 + ("traffic",) * 10 + ("ckpt",) * 9)
_ops = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2 ** 20)),
                min_size=8, max_size=70)


def _differential(op_list) -> None:
    worlds = []
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
              ("exit", 1), ("ckpt", 0), ("restore", 0), ("traffic", 0),
              ("ckpt", 0), ("ckpt", 0)]
    _differential(script)


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
