#!/usr/bin/env python3
"""The end-to-end benchmark's one command.

One workload, as the benchmark driver calls it (the last line of
standard output is the result object the contract prescribes)::

    python3 benchmarks/e2e/run.py --workload vm_wide --seed 1 \\
        --seconds 10 --trace 0          # end-to-end metrics
    python3 benchmarks/e2e/run.py --workload vm_wide --seed 1 \\
        --seconds 10 --trace 1          # per-layer metrics

Every workload, each in its own child process so peak RSS and heap
state do not leak from one to the next, end-to-end and per-layer::

    python -m benchmarks.e2e.run                        # full size
    python -m benchmarks.e2e.run --smoke                # ~1/10 size, 1 rep
    python -m benchmarks.e2e.run --runs 10 --out a.json # 10 seeds, saved

Every metric is printed by name with its unit; outputs are verified
(restored content == last durable content, simulated numbers identical
rep to rep and with telemetry off) and any failed check makes the
command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
DEFAULT_SEED = 20210926
WORKLOAD_NAMES = ("vm_wide", "posix_wide", "fleet_32", "cluster_6",
                  "paper_apps")


def _import_harness():
    """The program is built from source in the checkout: ``src/`` next
    to ``benchmarks/``.  Without it there is nothing to measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmarks.e2e: no program to measure: {ROOT}/src/repro "
              f"is missing", file=sys.stderr)
        raise SystemExit(2)
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from benchmarks.e2e import harness
    return harness


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_one(args) -> int:
    """Measure one workload in this process and print the result."""
    harness = _import_harness()
    outcome = harness.measure(args.workload, args.seed, args.seconds,
                              args.smoke, traced=bool(args.trace))
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"[{args.workload}] {kind} metrics, seed {args.seed}, "
          f"{outcome.reps} rep(s)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<44} {_fmt(value):>14} {unit}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for error in outcome.errors:
        print(f"  FAIL: {error}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        # The contract wants a number for every metric: a traced metric
        # whose layer no longer resolves (n/a above) is sent as 0.
        "metrics": {name: {"value": 0 if value is None else value,
                           "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


def _child(workload: str, seed: int, args, trace: int):
    """Run one workload in a child process; returns its result object
    (None when the child printed none)."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=900)
    lines = done.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    print("\n".join(lines), flush=True)
    if done.returncode != 0 and (result is None or result["correct"]):
        result = None
    return result


def run_all(args) -> int:
    """Every workload × both modes × ``--runs`` seeds, in children."""
    _import_harness()           # fail early when the program is missing
    runs = []
    failed = False
    for seed in range(args.seed, args.seed + args.runs):
        row = {"seed": seed, "workloads": {}}
        for workload in WORKLOAD_NAMES:
            e2e = _child(workload, seed, args, trace=0)
            layers = _child(workload, seed, args, trace=1)
            ok = bool(e2e and layers and e2e["correct"]
                      and layers["correct"])
            failed |= not ok
            row["workloads"][workload] = {
                "correct": ok,
                "attempted": e2e["attempted"] if e2e else 0,
                "failed": e2e["failed"] if e2e else 0,
                "e2e": e2e["metrics"] if e2e else {},
                "per_layer": layers["metrics"] if layers else {},
            }
        runs.append(row)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"benchmark": "e2e", "smoke": args.smoke,
             "seconds": args.seconds, "runs": runs}, indent=1) + "\n")
        print(f"wrote {args.out}")
    print("FAILED: at least one check failed" if failed
          else "all checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Aurora SLS end-to-end benchmark (see README.md "
                    "beside this file)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="measure one workload in this process "
                             "(default: all five, each in a child)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=10,
                        help="keep repeating reps for this long "
                             "(default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "from plain + traced + telemetry-off reps")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/10 size, one rep, "
                             "same checks")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: repeat with seeds "
                             "seed..seed+runs-1 (default 1)")
    parser.add_argument("--out", help="all-workloads mode: write every "
                                      "result to this JSON file")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
