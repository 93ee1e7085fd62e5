#!/usr/bin/env python
"""Simulation-scale benchmark: wall-clock cost per simulated second.

Everything else in ``benchmarks/`` measures *simulated* time — the
paper's numbers.  This one measures the cost of running the simulation
itself, which is what bounds how large a scenario the reproduction can
model.  A consistency group is driven at the checkpoint cadence
(100 Hz) over address spaces of growing size and kernel state of
growing fd counts, with a small per-tick dirty set — the paper's
steady state.  The metric is wall-clock seconds per simulated second
(= per 100 checkpoints).

The columnar hot path (bitmap pmaps, run-based merges, slab
collapses, batched extent staging) is measured against the legacy path
(dict-of-PTE pmap + per-page merge/collapse): the reference models in
``tests/vm_reference.py``, patched in for the baseline run.  The
legacy write-protect pass is O(address space) per
checkpoint, so the baseline is only measured up to 256k pages; the
1M-page / 10k-fd point exists to show the columnar path completes it
at all.

Emits ``BENCH_simscale.json`` at the repo root::

    python benchmarks/bench_simscale.py            # full sweep
    python benchmarks/bench_simscale.py --smoke    # CI-sized sweep

``--smoke`` shrinks the sweep to the 64k point, runs fewer ticks and
fails (exit 1) if the columnar speedup regresses below the threshold.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import Machine, load_aurora
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.units import PAGE_SIZE
from tests.vm_reference import legacy_hot_path

HZ = 100
#: (address-space pages, open fds) sweep points.  The last point is
#: the acceptance target: 1M pages / 10k fds at 100 Hz.
SWEEP = [(64 * 1024, 64), (256 * 1024, 256), (1024 * 1024, 10 * 1000)]
#: The legacy pmap's write-protect pass walks every page per tick;
#: past this size the baseline takes minutes per simulated second.
BASELINE_MAX_PAGES = 256 * 1024
#: Per-tick dirty set: a few contiguous runs, the steady-state shape.
DIRTY_RUNS_PER_TICK = 4
DIRTY_RUN_PAGES = 16
#: Kernel-state churn: 0.1% of the open fds mutate per tick.  Zero at
#: the small sweep points (they isolate the VM hot path the baseline
#: contrast targets); 10 per tick at the 10k-fd endpoint, which
#: exercises the incremental kernel-state path at scale.
FD_DIRTY_FRACTION = 0.001

JSON_PATH = ROOT / "BENCH_simscale.json"


def run_config(npages: int, nfds: int, ticks: int,
               legacy: bool) -> dict:
    """Drive ``ticks`` checkpoints over an ``npages``-page process with
    ``nfds`` open files; return wall-clock stats (setup and the first
    full checkpoint are excluded from the timed region)."""
    with legacy_hot_path() if legacy else contextlib.nullcontext():
        machine = Machine()
        sls = load_aurora(machine)
        kernel = machine.kernel
        proc = kernel.spawn("simscale")
        addr = proc.vmspace.mmap(npages * PAGE_SIZE, name="heap")
        proc.vmspace.fill(addr, npages, seed=1)
        kernel.vfs.mkdir("/simscale")
        fds = [kernel.open(proc, f"/simscale/f{i}", O_RDWR | O_CREAT)
               for i in range(nfds)]
        for fd in fds:
            kernel.write(proc, fd, b"seed")
        group = sls.attach(proc, periodic=False)
        # First checkpoint captures the full image; steady state starts
        # after it.
        sls.checkpoint(group, sync=True)

        span = npages - DIRTY_RUN_PAGES
        fd_writes = int(nfds * FD_DIRTY_FRACTION)
        sim_t0 = machine.clock.now()
        t0 = time.perf_counter()
        for tick in range(ticks):
            for run in range(DIRTY_RUNS_PER_TICK):
                # Deterministic scatter across the address space.
                start = (tick * 7919 + run * 104729) % span
                proc.vmspace.touch(addr + start * PAGE_SIZE,
                                   DIRTY_RUN_PAGES,
                                   seed=tick * DIRTY_RUNS_PER_TICK + run)
            for fd in fds[:fd_writes]:
                kernel.write(proc, fd, b"x")
            sls.checkpoint(group, sync=True)
        elapsed = time.perf_counter() - t0
        return {
            "pages": npages,
            "fds": nfds,
            "ticks": ticks,
            "wall_s": elapsed,
            "wall_s_per_sim_s": elapsed * HZ / ticks,
            "wall_ms_per_tick": elapsed * 1000 / ticks,
            "sim_ns_elapsed": machine.clock.now() - sim_t0,
            "pages_flushed": group.stats["pages_flushed"],
            "dirty_runs": sls.shadow.stats["dirty_runs"],
        }


def run_sweep(sweep, ticks: int, with_baseline: bool) -> dict:
    rows = []
    for npages, nfds in sweep:
        print(f"[simscale] columnar: {npages} pages, {nfds} fds, "
              f"{ticks} ticks @ {HZ} Hz ...", flush=True)
        columnar = run_config(npages, nfds, ticks, legacy=False)
        row = {
            "pages": npages,
            "fds": nfds,
            "columnar": columnar,
            "baseline": None,
            "speedup": None,
        }
        if with_baseline and npages <= BASELINE_MAX_PAGES:
            print(f"[simscale] baseline: {npages} pages, {nfds} fds ...",
                  flush=True)
            baseline = run_config(npages, nfds, ticks, legacy=True)
            row["baseline"] = baseline
            row["speedup"] = (baseline["wall_s_per_sim_s"]
                              / columnar["wall_s_per_sim_s"])
        rows.append(row)
    return {
        "hz": HZ,
        "ticks_per_point": ticks,
        "dirty_pages_per_tick": DIRTY_RUNS_PER_TICK * DIRTY_RUN_PAGES,
        "fd_dirty_fraction": FD_DIRTY_FRACTION,
        "sweep": rows,
    }


def report(results: dict) -> None:
    print(f"\nSimulation scale - wall-clock per simulated second "
          f"({HZ} Hz, {results['dirty_pages_per_tick']} dirty pages/tick)")
    print(f"{'pages':>9} {'fds':>6} {'columnar':>12} {'baseline':>12} "
          f"{'speedup':>8}")
    for row in results["sweep"]:
        col = row["columnar"]["wall_s_per_sim_s"]
        if row["baseline"] is not None:
            base = f"{row['baseline']['wall_s_per_sim_s']:>10.2f} s"
            speed = f"{row['speedup']:>7.1f}x"
        else:
            base = f"{'-':>12}"
            speed = f"{'-':>8}"
        print(f"{row['pages']:>9} {row['fds']:>6} {col:>10.2f} s "
              f"{base} {speed}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 64k-page point only, fewer "
                             "ticks, fail below --threshold speedup")
    parser.add_argument("--ticks", type=int, default=None,
                        help="measured checkpoints per sweep point "
                             "(default: 100 full, 20 smoke)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the legacy-path baseline runs")
    parser.add_argument("--threshold", type=float, default=None,
                        help="minimum acceptable speedup (default: "
                             "10.0 full at 256k, 2.0 smoke at 64k)")
    parser.add_argument("--output", type=pathlib.Path, default=JSON_PATH,
                        help=f"result path (default {JSON_PATH.name})")
    args = parser.parse_args()

    if args.smoke:
        sweep = SWEEP[:1]
        ticks = args.ticks or 20
        # Generous: the 64k point's legacy write-protect term is small,
        # so its true speedup (~3x) sits far below the 256k gate; the
        # smoke job only guards against losing the columnar path
        # outright.
        threshold = args.threshold if args.threshold is not None else 2.0
    else:
        sweep = SWEEP
        ticks = args.ticks or HZ
        threshold = args.threshold if args.threshold is not None else 10.0

    results = run_sweep(sweep, ticks, with_baseline=not args.no_baseline)
    results["smoke"] = args.smoke
    report(results)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    if args.no_baseline:
        return 0
    # Acceptance: the largest baselined point must show the columnar
    # speedup (full run: >= 10x at 256k pages; smoke: >= 3x at 64k).
    checked = [row for row in results["sweep"]
               if row["speedup"] is not None]
    if not checked:
        return 0
    gate = max(checked, key=lambda row: row["pages"])
    print(f"speedup at {gate['pages']} pages: {gate['speedup']:.1f}x "
          f"(threshold {threshold:.1f}x)")
    if gate["speedup"] < threshold:
        print("FAIL: columnar speedup below threshold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
