"""The POSIX object model is one table (``core/objmodel.py``).

(a) Completeness: every kernel object type has a row, every Table 4
constant is named by exactly one row.  (b) One round trip per row: a
live instance built through the kernel's syscalls is checkpointed,
the machine crashes, and the restored instance re-captures to the
same record — except for the fields the row says restore ignores.
(c) Table 4, exactly: one dirty object's visit and one record's
rebuild advance the clock by the row's costs, to the nanosecond.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro.kernel
from repro import Machine, load_aurora
from repro.core import costs, objmodel
from repro.core.objmodel import OBJECT_TYPES, cost_of
from repro.core.restore import GroupRestorer
from repro.core.serialize import CheckpointSerializer
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.kernel.ipc.kqueue import EVFILT_READ, KEvent
from repro.kernel.ipc.unixsock import ControlMessage
from repro.kernel.kobject import KObject
from repro.units import PAGE_SIZE

from .serialize_reference import RecordSink

#: Kernel objects with no record of their own: a process record embeds
#: its threads, its map entries (the vmspace) and its pgid / sid.
EMBEDDED = {"thread", "vmspace", "pgroup", "session"}

#: ``CKPT_*`` / ``RESTORE_*`` constants that are not a cost of one
#: object type, and who charges them instead.
NOT_PER_TYPE = {
    "CKPT_ORCH_BASE": "pipeline: per checkpoint",
    "CKPT_ATOMIC_BASE": "api: per sls_memckpt",
    "RESTORE_PAGE_INSERT": "restore.populate_pages: per page",
    "CKPT_FILE_DESC": "serialize: per fd-table slot, before its visit",
}


def _kobject_types():
    for module in pkgutil.walk_packages(repro.kernel.__path__,
                                        "repro.kernel."):
        importlib.import_module(module.name)
    seen, todo = set(), [KObject]
    while todo:
        for cls in todo.pop().__subclasses__():
            seen.add(cls.obj_type)
            todo.append(cls)
    return seen


# -- (a) completeness ----------------------------------------------------------

def test_every_kernel_object_type_has_a_row():
    assert _kobject_types() - EMBEDDED == set(OBJECT_TYPES) - {"group"}
    assert all(row.otype == key for key, row in OBJECT_TYPES.items())


def test_every_table4_constant_is_named_by_exactly_one_row():
    tree = ast.parse(pathlib.Path(objmodel.__file__).read_text())
    named: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "costs":
            named[node.attr] = named.get(node.attr, 0) + 1
    constants = {name for name in vars(costs)
                 if re.match(r"(CKPT|RESTORE)_", name)}
    assert set(named) <= constants
    assert {name: named.get(name, 0) for name in constants} == {
        name: 0 if name in NOT_PER_TYPE else 1 for name in constants}
    # The declared aliases: a device is charged as a pipe's trivial
    # record (and rebuilt for nothing); Table 4 has one sockets line.
    rows = OBJECT_TYPES
    assert rows["device"].ckpt_cost == rows["pipe"].ckpt_cost
    assert rows["device"].restore_cost == 0
    assert len({(rows[t].ckpt_cost, rows[t].restore_cost)
                for t in ("unixsock", "udpsock", "tcpsock")}) == 1


# -- live instances, one per row ---------------------------------------------------

def _fobj(proc, fd):
    return proc.fdtable.get(fd).fobj


def _pipe(kernel, proc):
    rfd, wfd = kernel.pipe(proc)
    kernel.write(proc, wfd, b"in the pipe")
    return _fobj(proc, rfd)


def _kqueue(kernel, proc):
    kq = _fobj(proc, kernel.kqueue(proc))
    for ident in range(7):
        kq.register(KEvent(ident, EVFILT_READ))
    return kq


def _pty(kernel, proc):
    first, _slave = kernel.open_pty(proc)
    kernel.close(proc, first)
    kernel.close(proc, _slave)
    mfd, _sfd = kernel.open_pty(proc)           # unit 1, restored as 0
    _fobj(proc, mfd).master_write(b"typed")
    return _fobj(proc, mfd)


def _device(kernel, proc):
    return _fobj(proc, kernel.open_device(proc, "urandom"))


def _unixsock(kernel, proc):
    left, right = kernel.socketpair(proc)
    passed = kernel.open(proc, "/passed", O_CREAT | O_RDWR)
    kernel.sock_of(proc, left).sendmsg(
        b"take this", ControlMessage([proc.fdtable.get(passed)], (1, 2, 3)))
    return kernel.sock_of(proc, right)


def _udpsock(kernel, proc):
    sock = kernel.sock_of(proc, kernel.udp_socket(proc))
    sock.bind("10.0.0.1", 5353)
    sock.enqueue(("10.9.9.9", 1000), b"datagram")
    return sock


def _tcpsock(kernel, proc):
    listener = kernel.sock_of(proc, kernel.tcp_socket(proc))
    listener.bind("10.0.0.1", 8080)
    listener.listen()
    client = kernel.sock_of(proc, kernel.tcp_socket(proc))
    client.connect("10.0.0.1", 8080)            # one pending accept
    return listener


def _shm_posix(kernel, proc):
    fd = kernel.shm_open(proc, "/segment", 4 * PAGE_SIZE)
    proc.vmspace.write(kernel.shm_mmap(proc, fd), b"shared")
    return _fobj(proc, fd)


def _shm_sysv(kernel, proc):
    shmid = kernel.shmget(0x77, 4 * PAGE_SIZE)
    proc.vmspace.write(kernel.shmat(proc, shmid), b"shared")
    return kernel.sysv_shm.segment(shmid)


def _shm_unmapped(kernel, proc):
    return _fobj(proc, kernel.shm_open(proc, "/held-open", 2 * PAGE_SIZE))


def _vnode(kernel, proc):
    fd = kernel.open(proc, "/a-file", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"contents")
    return proc.fdtable.get(fd).vnode


def _file(kernel, proc):
    fd = kernel.open(proc, "/a-file", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"moves the offset")
    return proc.fdtable.get(fd)


def _vmobject(kernel, proc):
    addr = proc.vmspace.mmap(8 * PAGE_SIZE, name="heap")
    proc.vmspace.write(addr, b"anonymous memory")
    return proc.vmspace.map.lookup(addr // PAGE_SIZE).vmobject


def _fdtable(kernel, proc):
    _pipe(kernel, proc)
    return proc.fdtable


def _proc(kernel, proc):
    proc.add_thread()
    proc.cwd = "/tmp"
    kernel.map_hpet(proc)
    kernel.fork(proc, name="child")
    return proc


#: case -> (row, builder).  Every row has at least one case.
CASES = {
    "group": ("group", lambda kernel, proc: proc.sls_group),
    "proc": ("proc", _proc),
    "fdtable": ("fdtable", _fdtable),
    "file": ("file", _file),
    "vnode": ("vnode", _vnode),
    "vmobject": ("vmobject", _vmobject),
    "pipe": ("pipe", _pipe),
    "kqueue": ("kqueue", _kqueue),
    "pty": ("pty", _pty),
    "device": ("device", _device),
    "unixsock": ("unixsock", _unixsock),
    "udpsock": ("udpsock", _udpsock),
    "tcpsock": ("tcpsock", _tcpsock),
    "shm-posix": ("shm", _shm_posix),
    "shm-sysv": ("shm", _shm_sysv),
    "shm-unmapped": ("shm", _shm_unmapped),
}


def test_every_row_has_a_case():
    assert {otype for otype, _build in CASES.values()} == set(OBJECT_TYPES)


# -- (b) round trip ---------------------------------------------------------------

def _captured(sls, group, otype):
    """The records of one type in the group's newest checkpoint, as a
    sorted list of canonical strings: ignored fields dropped and every
    OID replaced by the type of the record it names (restore gives
    POSIX objects new OIDs)."""
    extents, _pages = sls.store.merged_view(group.last_ckpt_id)
    records = sls.store.read_object_records(extents)
    live = sls.store.effective_live_oids(group.last_ckpt_id)

    def canon(value):
        if isinstance(value, dict):
            return {key: canon(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [canon(item) for item in value]
        if isinstance(value, int) and not isinstance(value, bool) \
                and value in records:
            return f"->{records[value][0]}"
        return value

    ignored = OBJECT_TYPES[otype].ignored
    return sorted(
        repr(canon({key: item for key, item in state.items()
                    if key not in ignored}))
        for oid, (rtype, state) in records.items()
        if rtype == otype and oid in live)


def _second_capture(case, crash):
    """Build the case, checkpoint, then — across a crash and a restore,
    or on the uncrashed machine — checkpoint again in full; returns
    the second checkpoint's records of the case's type."""
    otype, build = CASES[case]
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, name="app", periodic=False)
    build(machine.kernel, proc)
    sls.checkpoint(group, sync=True)
    if crash:
        machine.crash()
        machine.boot()
        sls = load_aurora(machine)
        restored = sls.restore(group.group_id, periodic=False)
        group = restored.group
        for process in restored.processes:      # SIGSLSRESTORE, SIGCHLD
            for thread in process.threads:
                thread.signals.pending.clear()
    sls.checkpoint(group, full=True, sync=True)
    return _captured(sls, group, otype)


@pytest.mark.parametrize("case", sorted(CASES))
def test_round_trip_recaptures_the_same_record(case):
    """A restore is invisible to the next capture: what the restored
    instance re-captures is what the uncrashed one would have."""
    expected = _second_capture(case, crash=False)
    assert expected, "nothing of this type was captured"
    assert _second_capture(case, crash=True) == expected


# -- (c) exact Table 4 ----------------------------------------------------------------

TABLE4 = sorted(case for case, (otype, _build) in CASES.items()
                if otype not in ("group", "proc", "fdtable", "file",
                                 "vmobject"))


@pytest.mark.parametrize("case", TABLE4)
def test_visit_and_rebuild_charge_exactly_the_rows_costs(case):
    otype, build = CASES[case]
    row = OBJECT_TYPES[otype]
    machine = Machine()
    sls = load_aurora(machine)
    kernel, clock = machine.kernel, machine.clock
    proc = kernel.spawn("micro")
    group = sls.attach(proc, periodic=False)
    kobj = build(kernel, proc)
    assert kobj.obj_type == otype
    txn = RecordSink()
    serializer = CheckpointSerializer(kernel, group, sls.store, txn)
    if row.children is not None:
        row.children(serializer, kobj)      # in-flight files: not its cost

    start = clock.now()
    oid = serializer.serialize_object(kobj)
    assert clock.now() - start == cost_of(row.ckpt_cost, kobj)
    start = clock.now()
    serializer.serialize_object(kobj)       # a second file reaches it
    assert clock.now() - start == (cost_of(row.ckpt_cost, kobj)
                                   if row.per_file else 0)

    rtype, state = txn.records[oid]
    assert rtype == otype
    sls.slsfs.checkpoint(sync=True)         # a vnode's inode is on media
    machine.crash()                         # and no port is still bound
    machine.boot()
    sls = load_aurora(machine)
    restorer = GroupRestorer(machine.kernel, sls.store, sls.slsfs)
    start = clock.now()
    rebuilt = restorer.build_object(oid, row, state)
    assert clock.now() - start == cost_of(row.restore_cost, state)
    assert rebuilt.obj_type == otype
