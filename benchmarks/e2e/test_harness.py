"""Tests of the benchmark's own machinery.

Run with ``pytest benchmarks/e2e`` (tier-1 collects ``tests/`` only).
The measuring apparatus gets the same rigour as the system it measures:
self-time arithmetic, the percentile, wrapper hygiene, the determinism
guard, the compare verdicts, and — by running the real command at
smoke size — that what it emits is exactly what ``BENCHMARK.json``
declares.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.e2e import compare, harness, trace  # noqa: E402
from benchmarks.e2e.run import WORKLOAD_NAMES  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic -----------------------------------------------------------------


def test_self_time_on_a_nested_trace():
    # driver [0, 100] ── a [10, 60] ── b [20, 30]
    #                 │             └─ b [40, 55] ── a [45, 50]
    #                 └─ b [70, 90]
    spans = [
        ("driver", -1, 0.0, 100.0, 0, 1000),
        ("a", 0, 10.0, 60.0, 100, 600),
        ("b", 1, 20.0, 30.0, 200, 300),
        ("b", 1, 40.0, 55.0, 400, 550),
        ("a", 3, 45.0, 50.0, 450, 500),
        ("b", 0, 70.0, 90.0, 700, 900),
    ]
    times = trace.self_times(spans)
    assert times["driver"] == [30.0, 300, 1]
    assert times["a"] == [25.0 + 5.0, 250 + 50, 2]
    assert times["b"] == [10.0 + 10.0 + 20.0, 100 + 100 + 200, 3]
    # Self times partition the root span exactly, in both clocks.
    assert sum(t[0] for t in times.values()) == 100.0
    assert sum(t[1] for t in times.values()) == 1000
    # Inclusive time counts a layer re-entering itself once.
    inclusive = trace.inclusive_wall(spans)
    assert inclusive == {"driver": 100.0, "a": 50.0, "b": 10.0 + 15.0 + 20.0}


# -- percentile ------------------------------------------------------------------------


def test_percentile_is_exact_nearest_rank():
    samples = [15, 20, 35, 40, 50]
    assert harness.percentile(samples, 5) == 15
    assert harness.percentile(samples, 30) == 20
    assert harness.percentile(samples, 40) == 20
    assert harness.percentile(samples, 50) == 35
    assert harness.percentile(samples, 95) == 50
    assert harness.percentile(samples, 100) == 50
    assert harness.percentile([7], 50) == 7
    assert harness.percentile([], 50) is None


@pytest.mark.parametrize("samples", [
    [365759, 120000, 98000],            # the ROADMAP's p50 > max case
    [1] * 9 + [10 ** 9],
    list(range(1, 201)),
])
def test_percentiles_are_samples_and_ordered(samples):
    p50, p95 = (harness.percentile(samples, p) for p in (50, 95))
    assert p50 in samples and p95 in samples
    assert min(samples) <= p50 <= p95 <= max(samples)


# -- wrapper hygiene -------------------------------------------------------------------


def _patched_attributes():
    out = {}
    for entries in trace.ENTRY_POINTS.values():
        for owner, attribute in entries:
            out[owner, attribute] = vars(trace._resolve(owner))[attribute]
    return out


def test_install_uninstall_leaves_every_attribute_identical():
    before = _patched_attributes()
    tracer = trace.Tracer(sim_now=lambda: 0)
    tracer.install()
    during = _patched_attributes()
    assert tracer.unresolved == []
    assert all(during[key] is not before[key] for key in before)
    tracer.uninstall()
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_are_transparent_outside_a_phase():
    from repro import serde
    tracer = trace.Tracer(sim_now=lambda: 0)
    tracer.install()
    try:
        assert serde.loads(serde.dumps({"k": [1, 2]})) == {"k": [1, 2]}
        assert tracer.phases == {}
        tracer.begin("ckpt")
        blob = serde.dumps({"k": 1})
        tracer.end()
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.phases["ckpt"]] == ["driver", "serde"]
    assert tracer.payload == {("ckpt", "serde.dumps"): len(blob)}


def test_unresolved_entry_point_disables_its_layer_only(capsys):
    table = {
        "serde": [("repro.serde", "dumps")],
        "gone": [("repro.serde", "no_such_function")],
        "missing": [("repro.no_such_module", "f")],
    }
    tracer = trace.Tracer(sim_now=lambda: 0, table=table)
    tracer.install()
    tracer.uninstall()
    assert sorted(tracer.unresolved) == ["gone", "missing"]
    warnings = capsys.readouterr().err.strip().splitlines()
    assert len(warnings) == 2
    assert all("not traced" in line for line in warnings)


# -- determinism guard -----------------------------------------------------------------


def test_first_difference_names_the_field():
    a = {"sim_clock_ns": 10, "store.used_bytes": 5, "only_a": 1}
    assert harness.first_difference(a, dict(a)) is None
    b = dict(a, **{"store.used_bytes": 6, "sim_clock_ns": 11})
    assert harness.first_difference(a, b) == ("sim_clock_ns", 10, 11)
    # Keys one side lacks (event-derived values with telemetry off) are
    # not compared.
    assert harness.first_difference(a, {"sim_clock_ns": 10}) is None


# -- compare ---------------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100, 101, 99, 100, 100.5, 99.5]
    assert compare.verdict(steady, steady, 0.10)[1] == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           0.10)[1] == "REGRESSION"
    assert compare.verdict(steady, [v * 0.8 for v in steady],
                           0.10)[1] == "improved"
    noisy = [100, 140, 70, 120, 85, 130]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy],
                           0.10)[1] == "unresolved"
    # Noise wider than the bound, but every run of the change is worse
    # than every run of the parent: settled.
    assert compare.verdict(noisy, [v + 200 for v in noisy],
                           0.10)[1] == "REGRESSION"
    # Fewer than four runs: medians only.
    assert compare.verdict([100], [105], 0.10)[1] == "ok"
    assert compare.verdict([100], [120], 0.10)[1] == "REGRESSION"


# -- the declared contract -------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["bound"])
            for m in SPEC["end_to_end"]] == list(harness.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == list(harness.PER_LAYER_METRICS)
    assert len(SPEC["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def _smoke(workload: str, trace_flag: int):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace_flag), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180)
    assert done.returncode == 0, done.stdout
    return done.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_emits_exactly_the_declared_metrics(workload):
    for flag, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        lines = _smoke(workload, flag)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            cell = result["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert isinstance(cell["value"], (int, float))
        # One command prints every metric by name, with its unit.
        printed = "\n".join(lines[:-1])
        assert all(m["name"] in printed for m in declared)


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "vm_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
