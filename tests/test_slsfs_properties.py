"""SLSFS per-inode records: crash + recover returns the namespace as of
the last FS checkpoint, and a checkpoint stages only what was dirtied.

Random create / mkdir / write / truncate / unlink / rename(-over) /
open-then-unlink sequences run against a live Aurora filesystem with
FS checkpoints at random points.  The live filesystem itself is the
model: a snapshot of every inode (type, size, link count, directory
entries, file bytes) and ``next_inode`` is taken at each checkpoint, and
after a crash the recovered filesystem must equal the last snapshot.
With the namespace stored as one delta record per dirty inode, a
mutation that forgets to dirty its inode shows up here as a stale
inode after recovery.

Writes land at or before EOF: a sparse write past a truncated tail
would read back the tail's old pages (page locators carry no
tombstones — a limitation that predates per-inode records).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.errors import ReproError
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.kernel.fs.vnode import VDIR, VREG
from repro.slsfs.slsfs import NAMESPACE_OID
from repro.units import PAGE_SIZE

DIRS = ("/", "/d0/", "/d1/", "/d0/sub/")
NAMES = tuple(f"{d}f{i}" for d in DIRS for i in range(3))


def snapshot(fs):
    """Everything an FS checkpoint promises to bring back."""
    inodes = {}
    for vnode in fs.all_vnodes():
        data = (vnode.read(0, vnode.size) if vnode.vtype == VREG else None)
        inodes[vnode.inode] = (vnode.vtype, vnode.size, vnode.link_count,
                               dict(vnode.entries), data)
    return inodes, fs._next_inode


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("mkdir"), st.integers(1, len(DIRS) - 1),
                  st.just(0), st.just(0)),
        st.tuples(st.just("create"), st.integers(0, len(NAMES) - 1),
                  st.just(0), st.just(0)),
        st.tuples(st.just("write"), st.integers(0, len(NAMES) - 1),
                  st.integers(0, 100), st.integers(1, 2 * PAGE_SIZE + 7)),
        st.tuples(st.just("truncate"), st.integers(0, len(NAMES) - 1),
                  st.integers(0, 100), st.just(0)),
        st.tuples(st.just("unlink"), st.integers(0, len(NAMES) - 1),
                  st.just(0), st.just(0)),
        st.tuples(st.just("rename"), st.integers(0, len(NAMES) - 1),
                  st.integers(0, len(NAMES) - 1), st.just(0)),
        # Open a file and keep the descriptor: a later unlink or
        # rename-over makes it anonymous but still writable.
        st.tuples(st.just("hold"), st.integers(0, len(NAMES) - 1),
                  st.just(0), st.just(0)),
        st.tuples(st.just("write_held"), st.integers(0, 7),
                  st.integers(0, 100), st.integers(1, PAGE_SIZE)),
        st.tuples(st.just("release"), st.integers(0, 7),
                  st.just(0), st.just(0)),
        st.tuples(st.just("checkpoint"), st.just(0), st.just(0),
                  st.just(0)),
    ),
    min_size=1, max_size=40)


def _write(vnode, where_pct: int, nbytes: int, stamp: int) -> None:
    offset = vnode.size * where_pct // 100
    vnode.write(offset, bytes([stamp % 251 + 1]) * nbytes)


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_recover_equals_the_last_checkpoint(ops):
    machine = Machine()
    sls = load_aurora(machine)
    fs, kernel = sls.slsfs, machine.kernel
    vfs = kernel.vfs
    proc = kernel.spawn("app")
    held = []
    # A file-free machine has nothing to checkpoint.
    assert not fs.has_dirty()
    expected = None

    for stamp, (op, a, b, c) in enumerate(ops):
        try:
            if op == "mkdir":
                kernel.mkdir(proc, DIRS[a].rstrip("/"))
            elif op == "create":
                kernel.close(proc, kernel.open(proc, NAMES[a],
                                               O_CREAT | O_RDWR))
            elif op == "write":
                _write(vfs.namei(NAMES[a]), b, c, stamp)
            elif op == "truncate":
                vnode = vfs.namei(NAMES[a])
                vnode.truncate(vnode.size * b // 100)
            elif op == "unlink":
                kernel.unlink(proc, NAMES[a])
            elif op == "rename":
                if a != b:
                    vfs.rename(NAMES[a], NAMES[b])
            elif op == "hold":
                held.append(kernel.open(proc, NAMES[a], O_RDWR))
            elif op == "write_held" and held:
                fd = held[a % len(held)]
                _write(proc.fdtable.get(fd).vnode, b, c, stamp)
            elif op == "release" and held:
                kernel.close(proc, held.pop(a % len(held)))
        except ReproError:
            continue        # missing parent, name taken, no such file…
        if op == "checkpoint":
            first = fs.last_ckpt_id is None
            dirty = {inode for inode in fs._dirty_inodes
                     if fs.has_inode(inode)}
            info = fs.checkpoint(sync=True)
            staged = set(info.object_records)
            if first:
                dirty.add(fs.root.inode)
            # Exactly the dirty inodes' records plus the header.
            assert staged == {NAMESPACE_OID} | {fs.inode_oids[inode]
                                                for inode in dirty}
            assert not fs.has_dirty()
            expected = snapshot(fs)

    machine.crash()
    machine.boot()
    recovered = load_aurora(machine).slsfs
    if expected is None:
        assert recovered.last_ckpt_id is None
        return
    assert snapshot(recovered) == expected
    assert not recovered.has_dirty()
    # The recovered tree is walkable: every entry names a live inode.
    for vnode in recovered.all_vnodes():
        for child in vnode.entries.values():
            assert recovered.has_inode(child)
    assert recovered.root.vtype == VDIR
