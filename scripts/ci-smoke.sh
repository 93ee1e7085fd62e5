#!/usr/bin/env bash
# The CI smoke targets, runnable before pushing:
#
#     scripts/ci-smoke.sh <target>      # one of the names below
#     scripts/ci-smoke.sh all
#
# CI's `smoke` job runs one target per matrix entry.  Images and
# scratch output go to a fresh temporary directory (under $TMPDIR);
# result files CI uploads (nemesis_seed*.json, BENCH_simscale_smoke.json)
# land in the repository root.  Needs pytest and hypothesis for the
# chaos, e2e and determinism targets; nothing is installed from here.
set -euo pipefail

TARGETS="scrub trace chaos cluster fleet blackbox nemesis e2e simscale determinism"

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

sls() { python -m repro.core.cli "$@"; }

# Scrub of a store an actual workload wrote.
smoke_scrub() {
    sls init "$WORK/aurora.img"
    sls spawn "$WORK/aurora.img" stress --memory-kib 256
    sls run "$WORK/aurora.img" 1 --millis 100
    sls checkpoint "$WORK/aurora.img" 1 --name ci
    sls scrub "$WORK/aurora.img"
}

# Short 100 Hz benchmark through the CLI: export a Chrome trace of the
# checkpoint loop, validate it, and exercise the metrics/events/SLO
# consumers end to end.
smoke_trace() {
    sls init "$WORK/aurora.img"
    sls spawn "$WORK/aurora.img" smoke --memory-kib 256
    sls trace "$WORK/aurora.img" 1 --checkpoints 50 --chrome "$WORK/trace.json"
    python -m repro.core.tracing "$WORK/trace.json"
    sls metrics "$WORK/aurora.img" 1 --format prom -o "$WORK/metrics.prom"
    sls metrics "$WORK/aurora.img" 1 --format json -o "$WORK/metrics.json"
    python -c "import json, sys; json.load(open(sys.argv[1]))" "$WORK/metrics.json"
    sls events "$WORK/aurora.img" 1
    sls slo "$WORK/aurora.img" 1 --checkpoints 50
}

# The self-healing storage path under seeded fault schedules: the
# crash-schedule explorer's workload with random transient /
# intermittent faults (retries must absorb every retryable schedule),
# then an online repair of a deliberately corrupted image —
# `sls scrub --repair` must fix it and re-scrub clean.
smoke_chaos() {
    python -m pytest -q tests/test_resilience.py \
        -k "chaos or property or degraded or repair"
    sls init "$WORK/chaos.img"
    sls spawn "$WORK/chaos.img" chaos --memory-kib 128
    sls run "$WORK/chaos.img" 1 --millis 50
    python - "$WORK/chaos.img" <<'PY'
import sys
from repro.core.cli import _boot_from_image, _save_image
from repro.objstore.store import ObjectStore, SUPERBLOCK_SLOTS
image = sys.argv[1]
machine = _boot_from_image(image)
store = ObjectStore(machine)
assert store.mount()
slot = SUPERBLOCK_SLOTS[(store._generation + 1) % 2]
payload = machine.storage.read(slot)
machine.storage.discard_extent(slot)
machine.storage.write(slot, b"\xff" + payload[1:])
_save_image(machine, image)
PY
    sls scrub "$WORK/chaos.img" --repair
    sls scrub "$WORK/chaos.img"
}

# Quorum cluster end to end through the CLI: a 6-node / 3-AZ campaign
# that loses one AZ mid-run, segment-repairs the rejoining nodes, fails
# over to a standby — then the same image's SLO report (which now
# carries quorum-lag / failover / repair series).
smoke_cluster() {
    sls init "$WORK/cluster.img"
    sls spawn "$WORK/cluster.img" quorum --memory-kib 256
    sls cluster "$WORK/cluster.img" 1 --checkpoints 12 --az-outage 1 --repair --failover
    sls cluster "$WORK/cluster.img" 1 --checkpoints 6
    sls slo "$WORK/cluster.img" 1 --checkpoints 20
}

# Fleet control plane: the `sls fleet` table over a small
# mixed-profile fleet.
smoke_fleet() {
    sls init "$WORK/fleet.img"
    sls fleet "$WORK/fleet.img" --tenants 4 --millis 150
}

# The crash-persistent flight recorder end to end: a seeded run crashed
# mid-checkpoint by a FaultPlan (after an earlier transient fault so
# the black box has an injected fault to recover), remounted cold, then
# `sls blackbox` must reconstruct the timeline — both the injected
# fault and the last durable commit appear, the crashed checkpoint
# does not.
smoke_blackbox() {
    sls init "$WORK/bb.img"
    sls spawn "$WORK/bb.img" app --memory-kib 256
    sls run "$WORK/bb.img" 1 --millis 50
    python - "$WORK/bb.img" <<'PY'
import sys
from repro.core.cli import _boot_from_image, _save_image
from repro.core.faults import FaultPlan, InjectedCrash
from repro.core.orchestrator import load_aurora
image = sys.argv[1]
machine = _boot_from_image(image)
sls = load_aurora(machine)
result = sls.restore(1, periodic=False)
group = result.group
# An early transient write fault: retried, committed, and
# therefore persisted into the next snapshots.
plan = FaultPlan(name="ci-blackbox")
plan.transient_at_io(2)
machine.set_fault_plan(plan)
sls.checkpoint(group, name="survivor", sync=True)
# Then power fails mid-checkpoint (before the flip).
plan = FaultPlan(name="ci-blackbox-crash")
plan.crash_at_stage("flush", "before")
machine.set_fault_plan(plan)
try:
    sls.checkpoint(group, name="victim", sync=True)
    raise SystemExit("scheduled crash never fired")
except InjectedCrash:
    pass
_save_image(machine, image)
PY
    sls blackbox "$WORK/bb.img" | tee "$WORK/bb.out"
    grep -q "fault.injected" "$WORK/bb.out"
    grep -q "last durable commit: group 1" "$WORK/bb.out"
    grep -q "survivor" "$WORK/bb.out"
    if grep -q "victim" "$WORK/bb.out"; then
        echo "the crashed checkpoint must not appear in the black box"
        exit 1
    fi
    sls top "$WORK/bb.img" --tenants 3 --millis 100
}

# Partition tolerance end to end: the nemesis harness's seeded
# campaigns through `sls nemesis` (three seeds, JSON artifacts), the
# two hard invariants asserted in every campaign — no quorum-acked
# checkpoint lost, no fenced checkpoint readable — plus the
# quorum-stall nonzero-exit contract of `sls cluster`.
smoke_nemesis() {
    sls nemesis --list
    sls nemesis --seed 7 --json nemesis_seed7.json
    sls nemesis --seed 42 --json nemesis_seed42.json
    sls nemesis --seed 1337 --json nemesis_seed1337.json
    python - <<'PY'
import json
for seed in (7, 42, 1337):
    doc = json.load(open(f"nemesis_seed{seed}.json"))
    assert doc["seed"] == seed
    assert len(doc["campaigns"]) == 6, doc
    for row in doc["campaigns"]:
        assert row["passed"], (seed, row)
        assert row["violations"] == [], (seed, row)
print("all campaigns passed at all seeds")
PY
    sls init "$WORK/stall.img"
    sls spawn "$WORK/stall.img" app --memory-kib 128
    if sls cluster "$WORK/stall.img" 1 --nodes 2 --azs 2 --checkpoints 6 --az-outage 1 | tee "$WORK/stall.out"; then
        echo "stalled cluster run must exit nonzero"
        exit 1
    fi
    grep -q "quorum stalled:" "$WORK/stall.out"
}

# The repo's one end-to-end benchmark (BENCHMARK.json) at about a tenth
# of its size: all five workloads, plain and traced, with every
# correctness check — then the harness's own tests.  Host times from a
# shared runner are not gated; a failed check is.
smoke_e2e() {
    python -m benchmarks.e2e.run --smoke
    python -m pytest -q benchmarks/e2e
}

# Reduced simulation-scale benchmark: 64k-page point, few ticks,
# generous speedup threshold.  Guards the columnar hot path against
# wall-clock regressions without the full sweep's runtime.
smoke_simscale() {
    python benchmarks/bench_simscale.py --smoke --output BENCH_simscale_smoke.json
}

# Same seed, same bytes and same simulated clock in every interpreter
# process (ROADMAP 7(c)): the golden store-image test and the e2e smoke
# under three string-hash seeds; the image digests must match their
# pins (the test, warm and cold) and every metric that is not host time
# must read the same in all three.
smoke_determinism() {
    for hashseed in 0 1 random; do
        export PYTHONHASHSEED="$hashseed"
        python -m pytest -q tests/test_store_image_golden.py
        python -m benchmarks.e2e.run --smoke --out "$WORK/e2e.$hashseed.json" > /dev/null
    done
    unset PYTHONHASHSEED
    python - "$WORK" <<'PY'
import json, sys
work = sys.argv[1]
HOST = ("peak_rss_mb", "setup_s", "trace.coverage_pct", "trace.overhead_pct")
def simulated(seed):
    out = {}
    (run,) = json.load(open(f"{work}/e2e.{seed}.json"))["runs"]
    for workload, row in run["workloads"].items():
        assert row["correct"], (seed, workload)
        for kind in ("e2e", "per_layer"):
            for name, metric in row[kind].items():
                if "wall" not in name and name not in HOST:
                    out[f"{workload}/{name}"] = metric["value"]
    return out
base = simulated("0")
for seed in ("1", "random"):
    other = simulated(seed)
    moved = sorted(key for key in base.keys() | other.keys()
                   if base.get(key) != other.get(key))
    assert not moved, f"PYTHONHASHSEED={seed} moved {moved[:10]}"
print(f"{len(base)} simulated metrics identical under "
      f"PYTHONHASHSEED 0 / 1 / random")
PY
}

target="${1:-}"
if [ "$target" = all ]; then
    for name in $TARGETS; do
        echo "== smoke: $name"
        "smoke_$name"
    done
elif [[ " $TARGETS " == *" $target "* ]]; then
    "smoke_$target"
else
    echo "usage: $0 <$(echo $TARGETS | tr ' ' '|')|all>" >&2
    exit 2
fi
