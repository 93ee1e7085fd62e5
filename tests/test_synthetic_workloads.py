"""Synthetic app profiles (Table 6) and the workload generators."""

import pytest

from repro import Machine, load_aurora
from repro.apps.synthetic import PROFILES, SyntheticApp
from repro.machine import Machine as _Machine
from repro.slsfs import SLSFS, mount_ffs, mount_zfs
from repro.units import KiB, MiB, MSEC, PAGE_SIZE, pages_of
from repro.workloads.filebench import FileBench
from repro.workloads.prefix_dist import OP_GET, OP_PUT, PrefixDistWorkload


# -- synthetic profiles ------------------------------------------------------------


def test_profiles_cover_table6_apps():
    assert set(PROFILES) == {"firefox", "mosh", "pillow", "tomcat", "vim"}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profile_builds_to_spec(name):
    machine = Machine()
    profile = PROFILES[name]
    app = SyntheticApp(machine.kernel, profile)
    assert len(app.procs) == profile.nprocs
    total_threads = sum(len(p.threads) for p in app.procs)
    assert total_threads == profile.nthreads
    resident = app.resident_pages()
    expected = pages_of(profile.resident_bytes)
    assert abs(resident - expected) / expected < 0.05


def test_firefox_is_multiprocess_with_shm():
    machine = Machine()
    app = SyntheticApp(machine.kernel, PROFILES["firefox"])
    assert len(app.procs) == 4
    assert machine.kernel.posix_shm.names()  # browser shared memory


def test_idle_tick_dirties_a_small_fraction():
    machine = Machine()
    app = SyntheticApp(machine.kernel, PROFILES["vim"])
    dirtied = app.idle_tick(seed=1)
    assert 0 < dirtied < pages_of(PROFILES["vim"].resident_bytes) // 10


def test_synthetic_app_checkpoints_and_restores():
    machine = Machine()
    sls = load_aurora(machine)
    app = SyntheticApp(machine.kernel, PROFILES["mosh"])
    group = sls.attach(app.root, periodic=False)
    sls.checkpoint(group, sync=True)
    gid = group.group_id
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    result = sls2.restore(gid)
    assert len(result.processes) == 1
    assert len(result.root.threads) == PROFILES["mosh"].nthreads


def test_tomcat_stop_time_exceeds_vim():
    """OS complexity drives stop time (Table 6's point)."""
    def stop_time(name):
        machine = Machine()
        sls = load_aurora(machine)
        app = SyntheticApp(machine.kernel, PROFILES[name])
        group = sls.attach(app.root, periodic=False)
        sls.checkpoint(group, sync=True)
        app.idle_tick(seed=1)
        return sls.checkpoint(group, sync=True).stop_ns

    assert stop_time("tomcat") > 2 * stop_time("vim")


# -- prefix_dist -------------------------------------------------------------------------


def test_prefix_dist_deterministic():
    a = list(PrefixDistWorkload(seed=1).ops(100))
    b = list(PrefixDistWorkload(seed=1).ops(100))
    assert a == b
    c = list(PrefixDistWorkload(seed=2).ops(100))
    assert a != c


def test_prefix_dist_mix_ratio():
    workload = PrefixDistWorkload(seed=3, get_ratio=0.7)
    ops = list(workload.ops(2000))
    gets = sum(1 for op, _k, _v in ops if op == OP_GET)
    assert 0.6 < gets / len(ops) < 0.8


def test_prefix_dist_skewed_prefixes():
    workload = PrefixDistWorkload(seed=4, nprefixes=16)
    counts = {}
    for _ in range(4000):
        prefix = workload.next_key().split(b":")[0]
        counts[prefix] = counts.get(prefix, 0) + 1
    hottest = max(counts.values())
    coldest = min(counts.values())
    assert hottest > 5 * coldest  # power-law skew


def test_prefix_dist_value_shape():
    workload = PrefixDistWorkload(seed=5, value_size=128)
    value = workload.next_value()
    assert len(value) == 128


# -- filebench ---------------------------------------------------------------------------------


def _aurora(machine):
    """The SLSFS under ``load_aurora``, its checkpoints riding those of
    a group attached at the paper's 10 ms period."""
    sls = load_aurora(machine)
    sls.attach(machine.kernel.spawn("filebench"), period_ns=10 * MSEC)
    return sls


def test_filebench_write_accounting():
    machine = Machine()
    mount_ffs(machine)
    fb = FileBench(machine)
    throughput = fb.write_throughput(64 * KiB, True, total_bytes=8 * MiB)
    assert throughput > 0
    assert fb.stats["bytes_written"] == 8 * MiB
    assert machine.kernel.vfs.namei("/bigfile").size == 8 * MiB
    # Write-behind: every byte went to the array, and sync landed it.
    assert machine.storage.bytes_written == 8 * MiB
    assert machine.storage.last_completion <= machine.clock.now()


def test_filebench_personality_op_counts():
    machine = Machine()
    _aurora(machine)
    fb = FileBench(machine)
    ops_per_sec = fb.varmail(nops=2000)
    assert ops_per_sec > 0
    assert fb.stats["fsyncs"] > 200  # ~25% of the mix


def test_aurora_engine_charges_periodic_commits():
    """The Aurora FS's data reaches media through FS checkpoints riding
    the group's 10 ms checkpoints: besides the one ``sync`` takes at
    the end, a phase longer than a period (16 384 writes at 1.8 us)
    commits some."""
    machine = Machine()
    sls = _aurora(machine)
    fb = FileBench(machine)
    fb.write_throughput(4 * KiB, True, total_bytes=64 * MiB)
    fs_checkpoints = sls.store.checkpoints_for(SLSFS.GROUP_ID)
    assert len(fs_checkpoints) > 1
    assert sum(info.data_bytes for info in fs_checkpoints) >= 64 * MiB


def test_engines_share_device_model():
    """All engines push bytes through the same striped array."""
    for setup in (mount_zfs, mount_ffs, _aurora):
        machine = Machine()
        setup(machine)
        fb = FileBench(machine)
        fb.write_throughput(64 * KiB, True, total_bytes=4 * MiB)
        assert machine.storage.bytes_written >= 4 * MiB
