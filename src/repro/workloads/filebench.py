"""FileBench personalities (Fig. 3).

Drives any engine exposing the :class:`~repro.slsfs.fsbase.
BenchFilesystem` interface through the benchmarks the paper runs:

* random / sequential writes at 4 KiB and 64 KiB (Fig. 3a, 3b);
* ``createfiles`` and ``write+fsync`` metadata ops (Fig. 3c);
* the ``fileserver``, ``varmail`` and ``webserver`` simulated
  applications (Fig. 3d), with each personality's characteristic
  op mix (varmail is the fsync-heavy one Aurora wins).
"""

from __future__ import annotations

import random
from typing import Dict

from ..units import GiB, KiB, MiB


class FileBench:
    """One FileBench run against one engine."""

    def __init__(self, fs, seed: int = 11):
        self.fs = fs
        self.clock = fs.clock
        self.rng = random.Random(seed)

    # -- write microbenchmarks (Fig. 3a / 3b) --------------------------------------------

    def write_throughput(self, io_size: int, sequential: bool,
                         total_bytes: int = 512 * MiB) -> float:
        """GiB/s of write throughput at the given IO size."""
        file = self.fs.create("bigfile")
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
            self.fs.write(file, position, io_size, seed=written)
            written += io_size
        self.fs.drain()
        elapsed = self.clock.now() - start
        return written / (1 << 30) / (elapsed / 1e9)

    # -- metadata microbenchmarks (Fig. 3c) --------------------------------------------------

    def createfiles(self, count: int = 20_000) -> float:
        """File creations per second."""
        start = self.clock.now()
        for index in range(count):
            self.fs.create(f"dir{index % 64}/file{index}")
        self.fs.drain()
        elapsed = self.clock.now() - start
        return count / (elapsed / 1e9)

    def write_fsync(self, io_size: int, count: int = 10_000) -> float:
        """write+fsync pairs per second."""
        file = self.fs.create("synced")
        start = self.clock.now()
        for index in range(count):
            self.fs.write(file, index * io_size, io_size, seed=index)
            self.fs.fsync(file)
        self.fs.drain()
        elapsed = self.clock.now() - start
        return count / (elapsed / 1e9)

    # -- application personalities (Fig. 3d) ----------------------------------------------------

    def _mixed_run(self, mix: Dict[str, float], nops: int,
                   io_size: int) -> float:
        """Run ``nops`` drawn from an op mix; returns ops/second."""
        files = [self.fs.create(f"set/file{i}") for i in range(128)]
        ops = list(mix)
        weights = [mix[op] for op in ops]
        start = self.clock.now()
        for index in range(nops):
            op = self.rng.choices(ops, weights)[0]
            file = files[index % len(files)]
            if op == "create":
                self.fs.create(f"churn/f{index}")
            elif op == "write":
                self.fs.write(file, 0, io_size, seed=index)
            elif op == "append":
                self.fs.write(file, file.size, io_size, seed=index)
            elif op == "fsync":
                self.fs.fsync(file)
            elif op == "read":
                # Reads are cache hits in all engines (hot set); model
                # the common cost: a memcpy's worth of CPU.
                self.clock.advance(2_000)
            elif op == "stat":
                self.clock.advance(800)
        self.fs.drain()
        elapsed = self.clock.now() - start
        return nops / (elapsed / 1e9)

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
