#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python -m benchmarks.e2e.compare parent.json change.json

For every workload × end-to-end metric it prints both medians, the
change as a share of the parent's median, the metric's bound from
``BENCHMARK.json`` and a verdict:

``ok``          the change's median is no worse than the parent's by
                more than the bound;
``improved``    better by more than the run-to-run spread (by more than
                the bound when the files carry no spread);
``REGRESSION``  worse by more than the bound;
``unresolved``  the run-to-run spread (distance between the quartiles,
                as a share of the median) is wider than the bound, so a
                move of the size of the bound cannot be told from noise
                — unless every run of one side beats every run of the
                other, which settles it anyway.

Files with fewer than four runs per side carry no spread; their
verdicts rest on the medians alone and say so.  Exit code 1 when any
row is a regression.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(path):
    """workload -> metric -> list of values (one per run)."""
    out = {}
    for run in json.loads(pathlib.Path(path).read_text())["runs"]:
        for workload, row in run["workloads"].items():
            metrics = out.setdefault(workload, {})
            for name, cell in row["e2e"].items():
                metrics.setdefault(name, []).append(cell["value"])
    return out


def spread(values):
    """Interquartile distance as a share of the median; None when the
    sample is too small to have quartiles worth the name."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent, change, bound: float, lower_is_better: bool = True):
    """(relative change of the median, verdict string)."""
    sign = 1 if lower_is_better else -1
    a, b = statistics.median(parent), statistics.median(change)
    worse_by = sign * (b - a) / a
    spreads = [s for s in (spread(parent), spread(change)) if s is not None]
    noise = max(spreads, default=None)
    separated_worse = min(sign * v for v in change) > max(sign * v
                                                          for v in parent)
    separated_better = max(sign * v for v in change) < min(sign * v
                                                           for v in parent)
    if noise is not None and noise > bound \
            and not (separated_worse or separated_better):
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "REGRESSION"
    # Without a spread to hold it against, only a move larger than the
    # bound is called an improvement.
    if -worse_by > (bound if noise is None else noise):
        return worse_by, "improved"
    return worse_by, "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    regressions = 0
    for workload in parent:
        if workload not in change:
            print(f"[{workload}] missing from {argv[1]}")
            continue
        runs = (len(next(iter(parent[workload].values()))),
                len(next(iter(change[workload].values()))))
        small = "" if min(runs) >= 4 else "  (medians only: < 4 runs)"
        print(f"[{workload}] {runs[0]} vs {runs[1]} run(s){small}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in parent[workload] or name not in change[workload]:
                print(f"  {name:<22} missing")
                continue
            a, b = parent[workload][name], change[workload][name]
            delta, word = verdict(a, b, metric["bound"],
                                  metric["better"] == "lower")
            regressions += word == "REGRESSION"
            print(f"  {name:<22} {statistics.median(a):>12.6g} -> "
                  f"{statistics.median(b):>12.6g} {metric['unit']:<3} "
                  f"{100 * delta:>+8.2f}% (bound {100 * metric['bound']:g}%)"
                  f"  {word}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
