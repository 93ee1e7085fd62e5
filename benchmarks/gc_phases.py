#!/usr/bin/env python3
"""Where CPython's cyclic collector runs in an end-to-end workload.

The first thing to run when a host metric moves on a workload the diff
does not touch.  The collector's schedule depends on the *population*
of tracked objects, not on the code that runs: a full (generation-2)
collection starts when the objects promoted since the last one exceed
25 % of the heap, so shrinking a long-lived population can make an
unchanged phase cross that line once more (+50–70 ms per collection on
the 131 k-page heaps), and growing it can hide a real regression.

Runs one rep of each workload of ``benchmarks/e2e`` the way
``harness.run_rep`` does (set-up, ``gc.collect()``, the timed
checkpoint phase, the sample, ``gc.collect()``, the timed crash →
restore phase, with the reference pulses interleaved) and prints, per
phase, the automatic collections and their milliseconds per
generation, the phase's wall time and ``len(gc.get_objects())`` at its
end.  Compare parent and change with the same seed: collection counts
and object counts repeat exactly, milliseconds do not::

    python benchmarks/gc_phases.py --seed 1
    python benchmarks/gc_phases.py --seed 1 --workload vm_wide

Each workload runs in its own child process so one heap does not leak
into the next.  Imports ``benchmarks/e2e`` read-only.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PHASES = ("setup", "run", "recover")


class Collections:
    """``gc.callbacks`` hook: collections and seconds per generation."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.count = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            generation = info["generation"]
            self.count[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._started


def measure(name: str, seed: int, smoke: bool) -> None:
    """One rep of workload ``name`` in this process; prints its rows."""
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import WORKLOADS
    from repro.core import telemetry

    telemetry.reset()
    telemetry.set_enabled(True)
    work = WORKLOADS[name](seed, smoke)
    work.tick = harness.Meter().pulse       # the harness's interleaved pulses
    hook = Collections()
    gc.callbacks.append(hook)
    print(f"[{name}] seed {seed}: automatic collections (count / ms) "
          f"per generation")
    print(f"  {'phase':<8} {'gen0':>14} {'gen1':>14} {'gen2 (full)':>14} "
          f"{'gc ms':>8} {'wall ms':>9} {'tracked objects':>16}")
    for phase in PHASES:
        if phase == "recover":
            work.sample()
        gc.collect()            # as harness.timed does; not counted
        hook.reset()
        start = time.perf_counter()
        getattr(work, phase)()
        wall = time.perf_counter() - start
        cells = " ".join(f"{n:>6} /{s * 1000:>6.1f}"
                         for n, s in zip(hook.count, hook.seconds))
        print(f"  {phase:<8} {cells} {sum(hook.seconds) * 1000:>8.1f} "
              f"{wall * 1000:>9.1f} {len(gc.get_objects()):>16}")
    gc.callbacks.remove(hook)
    if work.obs.failures:
        raise SystemExit(f"{name}: {work.obs.failures[0]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's ~1/10-size inputs")
    args = parser.parse_args()
    for path in (ROOT, ROOT / "src"):
        sys.path.insert(0, str(path))
    if args.workload and len(args.workload) == 1:
        measure(args.workload[0], args.seed, args.smoke)
        return 0
    from benchmarks.e2e.run import WORKLOAD_NAMES
    status = 0
    for name in args.workload or WORKLOAD_NAMES:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed)]
        if args.smoke:
            command.append("--smoke")
        status |= subprocess.run(command, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    raise SystemExit(main())
