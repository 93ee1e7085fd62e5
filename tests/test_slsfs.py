"""The Aurora filesystem: persistence, fsync no-op, anonymous files."""

import pytest

from repro import Machine, load_aurora
from repro.core import costs
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.units import FS_BLOCK, KiB, MiB, MSEC, PAGE_SIZE, USEC
from repro.workloads.filebench import FileBench

from .content import held_pages


@pytest.fixture
def setup():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    return machine, sls, proc


def _reboot_with_aurora(machine):
    machine.crash()
    machine.boot()
    return load_aurora(machine)


def test_files_survive_crash(setup):
    machine, sls, proc = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/persistent", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"do not lose me")
    sls.slsfs.checkpoint(sync=True)
    _reboot_with_aurora(machine)
    kernel2 = machine.kernel
    proc2 = kernel2.spawn("reader")
    fd2 = kernel2.open(proc2, "/persistent", O_RDWR)
    assert kernel2.read(proc2, fd2, 14) == b"do not lose me"


def test_directories_survive_crash(setup):
    machine, sls, proc = setup
    kernel = machine.kernel
    kernel.mkdir(proc, "/a")
    kernel.mkdir(proc, "/a/b")
    kernel.open(proc, "/a/b/c", O_CREAT)
    sls.slsfs.checkpoint(sync=True)
    _reboot_with_aurora(machine)
    assert machine.kernel.vfs.listdir("/a/b") == ["c"]


def test_uncheckpointed_writes_lost_on_crash(setup):
    machine, sls, proc = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/f", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"v1")
    sls.slsfs.checkpoint(sync=True)
    kernel.write(proc, fd, b"v2")  # never checkpointed
    _reboot_with_aurora(machine)
    proc2 = machine.kernel.spawn("r")
    fd2 = machine.kernel.open(proc2, "/f", O_RDWR)
    assert machine.kernel.read(proc2, fd2, 2) == b"v1"


def test_truncated_file_recovers_at_its_new_size(setup):
    """A truncate alone dirties the inode, and the page locators of the
    cut tail (still in older deltas) stay out of the recovered file."""
    machine, sls, proc = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/log", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"x" * (3 * 4096))
    sls.slsfs.checkpoint(sync=True)
    proc.fdtable.get(fd).vnode.truncate(100)
    assert sls.slsfs.has_dirty()
    sls.slsfs.checkpoint(sync=True)
    _reboot_with_aurora(machine)
    vnode = machine.kernel.vfs.namei("/log")
    assert vnode.size == 100
    assert vnode.read(0, 4096) == b"x" * 100
    assert vnode.vmobject.holding([(0, vnode.vmobject.size_pages)]) == [(0, 1)]


@pytest.mark.xfail(strict=True, reason=(
    "page locators have no tombstones (ROADMAP item 11(b), DESIGN §5.19): "
    "a sparse write past a truncated tail resurrects the old tail pages"))
def test_sparse_write_past_a_truncated_tail_reads_zeros_after_crash(setup):
    """The hole between a truncated EOF and a later sparse write reads
    zeros live and must read zeros after recovery — not the bytes the
    cut tail held, whose locators are still in the older delta.  The
    property suite only writes at or before EOF, so this is the one
    place the gap is checked."""
    machine, sls, proc = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/log", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"x" * (4 * 4096))
    sls.slsfs.checkpoint(sync=True)
    vnode = proc.fdtable.get(fd).vnode
    vnode.truncate(4096)
    vnode.write(3 * 4096, b"y" * 4096)
    sls.slsfs.checkpoint(sync=True)
    assert vnode.read(4096, 4096) == bytes(4096)
    _reboot_with_aurora(machine)
    recovered = machine.kernel.vfs.namei("/log")
    assert recovered.size == 4 * 4096
    assert recovered.read(3 * 4096, 4096) == b"y" * 4096
    assert recovered.read(4096, 4096) == bytes(4096)


def test_rename_alone_is_checkpointed(setup):
    """Rename touches no file data and creates nothing: only the
    directories' dirty hook tells the filesystem to persist it."""
    machine, sls, proc = setup
    kernel = machine.kernel
    kernel.mkdir(proc, "/a")
    kernel.open(proc, "/a/old", O_CREAT)
    sls.slsfs.checkpoint(sync=True)
    kernel.vfs.rename("/a/old", "/new")
    assert sls.slsfs.has_dirty()
    info = sls.slsfs.checkpoint(sync=True)
    assert len(info.object_records) == 3    # header, "/", "/a"
    _reboot_with_aurora(machine)
    assert machine.kernel.vfs.listdir("/") == ["a", "new"]
    assert machine.kernel.vfs.listdir("/a") == []


def test_fsync_is_a_noop(setup):
    """Checkpoint consistency: fsync costs sub-microsecond (§9.1)."""
    machine, sls, proc = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/f", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"data")
    before = machine.clock.now()
    kernel.fsync(proc, fd)
    elapsed = machine.clock.now() - before
    assert elapsed <= costs.SLSFS_FSYNC + costs.SYSCALL_OVERHEAD


def test_anonymous_file_survives_crash_via_hidden_link_count(setup):
    """The paper's §5.2 edge case: an open-but-unlinked file must be
    restorable after a crash."""
    machine, sls, proc = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/scratch", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"anon state")
    group = sls.attach(proc, periodic=False)
    kernel.unlink(proc, "/scratch")
    sls.checkpoint(group, sync=True)
    gid = group.group_id

    sls2 = _reboot_with_aurora(machine)
    result = sls2.restore(gid)
    proc2 = result.root
    machine.kernel.lseek(proc2, fd, 0)
    assert machine.kernel.read(proc2, fd, 10) == b"anon state"
    # And it is still invisible in the namespace.
    assert not machine.kernel.vfs.exists("/scratch")


def test_incremental_fs_checkpoints_only_flush_dirty(setup):
    machine, sls, proc = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/big", O_CREAT | O_RDWR)
    vnode = proc.fdtable.get(fd).vnode
    vnode.write_synthetic(0, 64 * 4096, seed=1)
    info1 = sls.slsfs.checkpoint(sync=True)
    # Touch one page only.
    vnode.write_synthetic(0, 4096, seed=2)
    info2 = sls.slsfs.checkpoint(sync=True)
    assert info2.data_bytes < info1.data_bytes


def test_a_data_write_charges_one_mapping_update_per_fs_block(setup):
    """The unit of ``SLSFS_BLOCK_UPDATE`` is the 64 KiB filesystem
    block a write touches, not the page."""
    machine, sls, proc = setup
    fd = machine.kernel.open(proc, "/blocks", O_CREAT | O_RDWR)
    vnode = proc.fdtable.get(fd).vnode
    for offset, nbytes, blocks in ((0, FS_BLOCK, 1), (0, PAGE_SIZE, 1),
                                   (FS_BLOCK - PAGE_SIZE, 2 * PAGE_SIZE, 2),
                                   (FS_BLOCK, 3 * FS_BLOCK, 3)):
        before = machine.clock.now()
        vnode.write_synthetic(offset, nbytes, seed=offset)
        assert machine.clock.now() - before == \
            blocks * costs.SLSFS_BLOCK_UPDATE, (offset, nbytes)


def test_a_filebench_phase_on_slsfs_comes_back_after_a_crash():
    """Figure 3's Aurora row measures this filesystem: a FileBench
    write phase (its data committed by the FS checkpoints riding a
    10 ms group, then ``sync``) comes back from a crash with its size
    and a locator for every page it wrote."""
    machine = Machine()
    sls = load_aurora(machine)
    sls.attach(machine.kernel.spawn("filebench"), period_ns=10 * MSEC)
    # 8 192 writes at 1.8 us: the phase outlasts a period.
    FileBench(machine).write_throughput(4 * KiB, True,
                                        total_bytes=32 * MiB)
    assert len(sls.store.checkpoints_for(sls.slsfs.GROUP_ID)) > 1
    sls2 = _reboot_with_aurora(machine)
    vnode = machine.kernel.vfs.namei("/bigfile")
    assert vnode.size == 32 * MiB
    npages = 32 * MiB // PAGE_SIZE
    _records, locators = sls2.store.merged_view(sls2.slsfs.last_ckpt_id)
    table = locators[sls2.slsfs.inode_oids[vnode.inode]]
    assert all(table.lookup(pindex) is not None for pindex in range(npages))
    # Write ``i`` wrote page ``i`` with the bytes written before it.
    held = held_pages(vnode.vmobject)
    assert sorted(held) == list(range(npages))
    assert all(held[pindex].seed == pindex * PAGE_SIZE
               for pindex in range(npages))


def test_file_creation_charges_global_lock(setup):
    machine, sls, proc = setup
    before = machine.clock.now()
    machine.kernel.open(proc, "/newfile", O_CREAT)
    elapsed = machine.clock.now() - before
    assert elapsed >= costs.SLSFS_CREATE_GLOBAL_LOCK


def test_checkpointed_file_closed_then_unlinked_is_kept(setup):
    """The kept branch of the hidden link count (§5.2): no name and no
    open file, but a checkpoint references the inode — it survives,
    and the application checkpoint that holds it open restores."""
    machine, sls, proc = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/scratch", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"anon state")
    inode = proc.fdtable.get(fd).vnode.inode
    group = sls.attach(proc, periodic=False)
    sls.checkpoint(group, sync=True)
    with_fd_open = group.last_complete_id
    kernel.close(proc, fd)
    kernel.unlink(proc, "/scratch")
    assert not kernel.vfs.exists("/scratch")
    assert sls.slsfs.has_inode(inode)
    sls.checkpoint(group, sync=True)    # commits the unlinked inode
    gid = group.group_id

    sls2 = _reboot_with_aurora(machine)
    assert sls2.slsfs.has_inode(inode)
    assert sls2.slsfs.getvnode(inode).link_count == 0
    proc2 = sls2.restore(gid, ckpt_id=with_fd_open).root
    machine.kernel.lseek(proc2, fd, 0)
    assert machine.kernel.read(proc2, fd, 10) == b"anon state"
    assert not machine.kernel.vfs.exists("/scratch")


def test_file_unlinked_before_any_checkpoint_is_reclaimed(setup):
    """The reclaim branch: created, closed and unlinked between two FS
    checkpoints, nothing references the inode — it is forgotten and
    the next checkpoint skips its (still dirty) inode number."""
    machine, sls, proc = setup
    kernel = machine.kernel
    slsfs = sls.slsfs
    slsfs.checkpoint(sync=True)
    fd = kernel.open(proc, "/tmpfile", O_CREAT | O_RDWR)
    kernel.write(proc, fd, b"short-lived")
    inode = proc.fdtable.get(fd).vnode.inode
    oid = slsfs.inode_oids[inode]
    kernel.close(proc, fd)
    kernel.unlink(proc, "/tmpfile")
    assert not slsfs.has_inode(inode)
    assert inode in slsfs._dirty_inodes

    info = slsfs.checkpoint(sync=True)
    records, pages = sls.store.merged_view(info.ckpt_id)
    assert oid not in records and oid not in pages
    sls2 = _reboot_with_aurora(machine)
    assert not sls2.slsfs.has_inode(inode)
    assert not machine.kernel.vfs.exists("/tmpfile")
