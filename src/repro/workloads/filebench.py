"""FileBench personalities (Fig. 3).

Drives a machine's mounted filesystem (the Aurora FS under
``load_aurora``, or :mod:`repro.slsfs.kernel_fs`'s FFS or ZFS) through
the kernel's VFS and vnodes over the benchmarks the paper runs:

* random / sequential writes at 4 KiB and 64 KiB (Fig. 3a, 3b);
* ``createfiles`` and ``write+fsync`` metadata ops (Fig. 3c);
* the ``fileserver``, ``varmail`` and ``webserver`` simulated
  applications (Fig. 3d), with each personality's characteristic
  op mix (varmail is the fsync-heavy one Aurora wins).

Each op calls the filesystem's hooks directly (no syscall cost is
charged) and then runs the events that came due, so Aurora's periodic
checkpoints fire during a phase.  A phase ends with ``sync``: its time
includes getting every byte it wrote onto media.
"""

from __future__ import annotations

import random
from typing import Dict

from ..kernel.fs.vnode import Vnode
from ..units import GiB, KiB, MiB


class FileBench:
    """One FileBench run against one machine's filesystem."""

    def __init__(self, machine, seed: int = 11):
        self.machine = machine
        self.clock = machine.clock
        self.vfs = machine.kernel.vfs
        self.rng = random.Random(seed)
        self.stats = {"fsyncs": 0, "bytes_written": 0}

    # -- ops ----------------------------------------------------------------------------

    def create(self, path: str) -> Vnode:
        """Create a file, making its parent directory first if missing."""
        parent = path[:path.rindex("/")]
        if parent and not self.vfs.exists(parent):
            self.vfs.mkdir(parent)
        vnode = self.vfs.create(path)
        self.machine.loop.run_pending()
        return vnode

    def write(self, vnode: Vnode, offset: int, nbytes: int,
              seed: int) -> None:
        """Write ``nbytes`` of synthetic data at ``offset``."""
        vnode.write_synthetic(offset, nbytes, seed)
        self.stats["bytes_written"] += nbytes
        self.machine.loop.run_pending()

    def fsync(self, vnode: Vnode) -> None:
        """fsync(2) through the vnode's filesystem."""
        vnode.fs.on_fsync(vnode)
        self.stats["fsyncs"] += 1
        self.machine.loop.run_pending()

    def _elapsed_since(self, start: int) -> float:
        """End a phase: sync(2), then its seconds since ``start``."""
        self.vfs.rootfs.sync()
        return (self.clock.now() - start) / 1e9

    # -- write microbenchmarks (Fig. 3a / 3b) --------------------------------------------

    def write_throughput(self, io_size: int, sequential: bool,
                         total_bytes: int = 512 * MiB) -> float:
        """GiB/s of write throughput at the given IO size."""
        file = self.create("/bigfile")
        file_span = 1 * GiB
        start = self.clock.now()
        offset = 0
        written = 0
        while written < total_bytes:
            if sequential:
                position = offset
                offset += io_size
            else:
                position = self.rng.randrange(0, file_span // io_size) \
                    * io_size
            self.write(file, position, io_size, seed=written)
            written += io_size
        return written / (1 << 30) / self._elapsed_since(start)

    # -- metadata microbenchmarks (Fig. 3c) --------------------------------------------------

    def createfiles(self, count: int = 20_000) -> float:
        """File creations per second."""
        start = self.clock.now()
        for index in range(count):
            self.create(f"/dir{index % 64}/file{index}")
        return count / self._elapsed_since(start)

    def write_fsync(self, io_size: int, count: int = 10_000) -> float:
        """write+fsync pairs per second."""
        file = self.create("/synced")
        start = self.clock.now()
        for index in range(count):
            self.write(file, index * io_size, io_size, seed=index)
            self.fsync(file)
        return count / self._elapsed_since(start)

    # -- application personalities (Fig. 3d) ----------------------------------------------------

    def _mixed_run(self, mix: Dict[str, float], nops: int,
                   io_size: int) -> float:
        """Run ``nops`` drawn from an op mix; returns ops/second."""
        files = [self.create(f"/set/file{i}") for i in range(128)]
        ops = list(mix)
        weights = [mix[op] for op in ops]
        start = self.clock.now()
        for index in range(nops):
            op = self.rng.choices(ops, weights)[0]
            file = files[index % len(files)]
            if op == "create":
                self.create(f"/churn/f{index}")
            elif op == "write":
                self.write(file, 0, io_size, seed=index)
            elif op == "append":
                self.write(file, file.size, io_size, seed=index)
            elif op == "fsync":
                self.fsync(file)
            else:
                # Reads are cache hits in all engines (hot set); model
                # the common cost: a memcpy's worth of CPU.  A stat is
                # CPU alone too.
                self.clock.advance(2_000 if op == "read" else 800)
                self.machine.loop.run_pending()
        return nops / self._elapsed_since(start)

    def fileserver(self, nops: int = 50_000) -> float:
        """Fileserver: create/write/append/read/delete, no fsync."""
        return self._mixed_run(
            {"create": 0.08, "write": 0.25, "append": 0.17,
             "read": 0.40, "stat": 0.10},
            nops, io_size=64 * KiB)

    def varmail(self, nops: int = 50_000) -> float:
        """Varmail: mail-server pattern — every delivery fsyncs."""
        return self._mixed_run(
            {"create": 0.12, "append": 0.25, "fsync": 0.25,
             "read": 0.28, "stat": 0.10},
            nops, io_size=16 * KiB)

    def webserver(self, nops: int = 50_000) -> float:
        """Webserver: read-dominated with a log append."""
        return self._mixed_run(
            {"read": 0.85, "append": 0.10, "stat": 0.05},
            nops, io_size=8 * KiB)
