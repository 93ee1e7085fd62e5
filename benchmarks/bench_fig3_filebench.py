"""Figure 3: FileBench microbenchmarks — Aurora FS vs ZFS vs FFS.

Panels: (a) 64 KiB random/sequential write throughput, (b) 4 KiB
writes, (c) createfiles + write+fsync ops/s, (d) fileserver / varmail /
webserver personalities.

Paper's qualitative claims, asserted below:
* ZFS is slower than Aurora in both write configurations (simpler
  metadata updates);
* FFS wins the small-write panel (fragments);
* Aurora's file creation is the slowest (global lock);
* Aurora's fsync is a no-op, so it dominates write+fsync and varmail;
* ZFS syncs are slower than FFS and Aurora;
* the three are comparable on fileserver and webserver.
"""

from bench_utils import run_once

from repro.core.orchestrator import load_aurora
from repro.machine import Machine
from repro.slsfs import mount_ffs, mount_zfs
from repro.workloads.filebench import FileBench
from repro.units import KiB, MiB, MSEC


def _aurora(machine):
    """The SLSFS ``sls`` mounts, its checkpoints riding those of the
    FileBench process's group (the paper's 10 ms period)."""
    sls = load_aurora(machine)
    sls.attach(machine.kernel.spawn("filebench"), period_ns=10 * MSEC)


#: (name, what turns a fresh machine into the engine's machine).
ENGINES = [
    ("zfs", mount_zfs),
    ("zfs+csum", lambda m: mount_zfs(m, checksums=True)),
    ("ffs", mount_ffs),
    ("aurora", _aurora),
]


def _bench(setup, method, *args, **kwargs):
    machine = Machine()
    setup(machine)
    return getattr(FileBench(machine), method)(*args, **kwargs)


def run_experiment():
    results = {}
    for name, make in ENGINES:
        results[name] = {
            "w64_rand": _bench(make, "write_throughput", 64 * KiB, False,
                               total_bytes=128 * MiB),
            "w64_seq": _bench(make, "write_throughput", 64 * KiB, True,
                              total_bytes=128 * MiB),
            "w4_rand": _bench(make, "write_throughput", 4 * KiB, False,
                              total_bytes=64 * MiB),
            "w4_seq": _bench(make, "write_throughput", 4 * KiB, True,
                             total_bytes=64 * MiB),
            "createfiles": _bench(make, "createfiles", 10_000),
            "fsync4": _bench(make, "write_fsync", 4 * KiB, 5_000),
            "fsync64": _bench(make, "write_fsync", 64 * KiB, 5_000),
            "fileserver": _bench(make, "fileserver", 30_000),
            "varmail": _bench(make, "varmail", 30_000),
            "webserver": _bench(make, "webserver", 30_000),
        }
    return results


def test_fig3_filebench(benchmark, report):
    results = run_once(benchmark, run_experiment)
    lines = ["Figure 3 - FileBench: Aurora FS vs ZFS vs FFS",
             f"{'engine':<10}{'w64r':>7}{'w64s':>7}{'w4r':>7}{'w4s':>7}"
             f"  (GiB/s) |{'create':>9}{'fsync4':>9}{'fsync64':>9}"
             f"{'filesrv':>9}{'varmail':>9}{'websrv':>9}  (kops/s)"]
    for name, _make in ENGINES:
        r = results[name]
        lines.append(
            f"{name:<10}{r['w64_rand']:>7.2f}{r['w64_seq']:>7.2f}"
            f"{r['w4_rand']:>7.2f}{r['w4_seq']:>7.2f}          |"
            f"{r['createfiles'] / 1e3:>9.1f}{r['fsync4'] / 1e3:>9.1f}"
            f"{r['fsync64'] / 1e3:>9.1f}{r['fileserver'] / 1e3:>9.1f}"
            f"{r['varmail'] / 1e3:>9.1f}{r['webserver'] / 1e3:>9.1f}")
    report("fig3_filebench", "\n".join(lines))

    zfs, csum = results["zfs"], results["zfs+csum"]
    ffs, aurora = results["ffs"], results["aurora"]
    # (a)/(b): ZFS slower than Aurora in both write configurations.
    for key in ("w64_rand", "w64_seq", "w4_rand", "w4_seq"):
        assert zfs[key] < aurora[key]
        assert csum[key] < zfs[key]  # checksums cost extra
    # (b): FFS's fragment path wins small writes.
    assert ffs["w4_rand"] > aurora["w4_rand"] > zfs["w4_rand"]
    # (c): Aurora's create path is the slowest (global lock)...
    assert aurora["createfiles"] < ffs["createfiles"]
    assert aurora["createfiles"] < zfs["createfiles"]
    # ...but its no-op fsync dominates:
    assert aurora["fsync4"] > 5 * ffs["fsync4"]
    assert aurora["fsync64"] > 5 * zfs["fsync64"]
    # ...and ZFS syncs are slower than FFS.
    assert zfs["fsync4"] < ffs["fsync4"]
    # (d): Aurora wins varmail (fsync-heavy) by a wide margin...
    assert aurora["varmail"] > 3 * ffs["varmail"]
    assert aurora["varmail"] > 3 * zfs["varmail"]
    # ...and is comparable elsewhere (within 2x of the best).
    best_file = max(r["fileserver"] for r in results.values())
    best_web = max(r["webserver"] for r in results.values())
    assert aurora["fileserver"] > best_file / 2
    assert aurora["webserver"] > best_web / 2
