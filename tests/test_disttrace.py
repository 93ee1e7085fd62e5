"""Distributed trace propagation: one checkpoint trace spanning
primary → replicas → quorum ack.

The acceptance criterion from the ISSUE: a quorum-acked checkpoint's
trace contains spans from at least W distinct nodes, the Chrome
export gives each node its own lane, and the export still satisfies
the schema validator.
"""

import pytest

from repro import Machine, load_aurora
from repro.core import telemetry, tracing
from repro.core.cluster import SLSCluster
from repro.units import PAGE_SIZE

NODES = 5
AZS = 3
SEGMENT_BYTES = 512


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _cluster(name="svc"):
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn(name)
    addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, name=name, periodic=False)
    cluster = SLSCluster(sls, group, nodes=NODES, azs=AZS,
                         segment_bytes=SEGMENT_BYTES)
    return machine, sls, proc, addr, group, cluster


def _commit_and_pump(sls, proc, addr, group, cluster, payload, name):
    proc.vmspace.write(addr, payload)
    result = sls.checkpoint(group, name=name, sync=True)
    cluster.pump()
    return result


# -- the replicated checkpoint trace ----------------------------------------------------


def test_quorum_acked_checkpoint_trace_spans_w_distinct_nodes():
    machine, sls, proc, addr, group, cluster = _cluster()
    result = _commit_and_pump(sls, proc, addr, group, cluster,
                              b"payload-v1", "v1")
    assert cluster.durable == result.info.ckpt_id
    (trace_obj,) = tracing.tracer().traces(tracing.CHECKPOINT,
                                           group=group.group_id)
    repl = [s for s in trace_obj.spans if s.name.startswith("repl.")]
    nodes = {s.labels["node"] for s in repl if "node" in s.labels}
    assert len(nodes) >= cluster.write_quorum
    # Every protocol leg is represented, tenant-attributed.
    names = {s.name for s in repl}
    assert {"repl.ship", "repl.deliver", "repl.apply",
            "repl.ack"} <= names
    assert all(s.labels.get("tenant") == "svc" for s in repl)
    # Ack marks are instants on the primary's clock.
    assert all(s.duration_ns == 0 for s in repl
               if s.name == "repl.ack")


def test_chrome_export_gives_each_node_its_own_lane():
    machine, sls, proc, addr, group, cluster = _cluster()
    _commit_and_pump(sls, proc, addr, group, cluster, b"x" * 64, "v1")
    (trace_obj,) = tracing.tracer().traces(tracing.CHECKPOINT,
                                           group=group.group_id)
    export = tracing.chrome_trace([trace_obj])
    tracing.validate_chrome_trace(export)
    lanes = {}
    for entry in export["traceEvents"]:
        if entry["name"].startswith("repl."):
            lanes.setdefault(entry["tid"], set()).add(entry["name"])
    # One lane per node, disjoint from the primary's lane id.
    assert len(lanes) == NODES
    assert trace_obj.trace_id not in lanes
    assert all(tid >= tracing.NODE_LANE_BASE for tid in lanes)
    # Primary-side pipeline spans stay on the trace's own lane.
    primary = [entry for entry in export["traceEvents"]
               if entry["tid"] == trace_obj.trace_id]
    assert any(entry["name"] == "checkpoint" for entry in primary)


def test_segment_repair_spans_land_in_the_originating_trace():
    machine, sls, proc, addr, group, cluster = _cluster()
    _commit_and_pump(sls, proc, addr, group, cluster, b"y" * 256, "v1")
    victim = cluster.nodes[0]
    victim.wipe()
    report = cluster.repair()
    assert report["segments"] > 0
    (trace_obj,) = tracing.tracer().traces(tracing.CHECKPOINT,
                                           group=group.group_id)
    repairs = [s for s in trace_obj.spans if s.name == "repl.repair"]
    assert repairs, "repair recorded no span in the checkpoint trace"
    assert {s.labels["node"] for s in repairs} == {victim.node_id}
    assert all(s.labels.get("tenant") == "svc" for s in repairs)


def test_async_commit_hook_pump_still_joins_the_checkpoint_trace():
    """The commit hook fires after the trace scope closed; the
    capture falls back to the group's newest finished checkpoint
    trace, so hook-driven pumps still propagate."""
    machine, sls, proc, addr, group, cluster = _cluster()
    cluster.install()
    proc.vmspace.write(addr, b"hooked")
    result = sls.checkpoint(group, name="v1", sync=True)
    assert cluster.durable == result.info.ckpt_id
    (trace_obj,) = tracing.tracer().traces(tracing.CHECKPOINT,
                                           group=group.group_id)
    nodes = {s.labels["node"] for s in trace_obj.spans
             if s.name == "repl.apply"}
    assert len(nodes) >= cluster.write_quorum
    cluster.stop()
