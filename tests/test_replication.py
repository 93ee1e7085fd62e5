"""Continuous replication and failover (Table 2's HA mode): the single
standby is the N = W = R = 1 quorum cluster."""

import pytest

from repro import Machine, load_aurora
from repro.core import events
from repro.core.cluster import SLSCluster
from repro.core.faults import FaultPlan
from repro.errors import LeaseValid, SLSError
from repro.units import MSEC, PAGE_SIZE


def make_service(periodic=False):
    primary = Machine()
    sls = load_aurora(primary)
    proc = primary.kernel.spawn("svc")
    addr = proc.vmspace.mmap(32 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, name="svc", periodic=periodic)
    cluster = SLSCluster(sls, group, nodes=1, azs=1)
    return primary, sls, proc, group, addr, cluster


def test_manual_ship_and_failover():
    primary, sls, proc, group, addr, cluster = make_service()
    node = cluster.nodes[0]

    proc.vmspace.write(addr, b"state-1")
    sls.checkpoint(group, sync=True)
    assert cluster.pump() == group.last_complete_id
    assert cluster.pump() == group.last_complete_id
    assert node.stats["streams"] == 1  # nothing new the second time

    primary.crash()
    result = cluster.failover()
    assert result.root.vmspace.read(addr, 7) == b"state-1"


def test_incremental_streams_shrink():
    _primary, sls, proc, group, addr, cluster = make_service()
    node = cluster.nodes[0]
    for page in range(32):
        proc.vmspace.write(addr + page * PAGE_SIZE,
                           bytes([page]) * PAGE_SIZE)
    sls.checkpoint(group, sync=True)
    cluster.pump()
    first_bytes = node.stats["bytes"]

    proc.vmspace.write(addr, b"one dirty page")
    sls.checkpoint(group, sync=True)
    cluster.pump()
    delta_bytes = node.stats["bytes"] - first_bytes
    assert delta_bytes < first_bytes / 2
    assert node.stats["streams"] == 2


def test_installed_link_pumps_automatically():
    primary, sls, proc, group, addr, cluster = make_service(periodic=True)
    cluster.install()
    for tick in range(20):
        proc.vmspace.write(addr, f"tick-{tick:03d}".encode())
        primary.run_for(5 * MSEC)
    assert cluster.nodes[0].stats["streams"] >= 5
    behind = [info for info in sls.store.checkpoints_for(group.group_id)
              if info.ckpt_id > cluster.durable]
    assert len(behind) <= 1

    primary.crash()
    result = cluster.failover()
    value = result.root.vmspace.read(addr, 8).decode()
    assert value.startswith("tick-")
    assert int(value.split("-")[1]) >= 15  # bounded loss


def test_failover_without_replication_fails():
    _primary, _sls, _proc, _group, _addr, cluster = make_service()
    with pytest.raises(SLSError):
        cluster.failover()


def test_a_live_primary_is_never_displaced():
    """An outage of any length is no licence to promote: while the
    primary is alive and renewing its lease, failover refuses — the
    retired 100 ms outage deadline promoted the standby over a live
    primary and lost the tail the standby never received."""
    primary, sls, proc, group, addr, cluster = make_service(periodic=True)
    node = cluster.nodes[0]
    cluster.install()

    proc.vmspace.write(addr, b"state-A")
    sls.checkpoint(group, sync=True)
    ckpt_a = group.last_complete_id
    assert cluster.durable == ckpt_a

    # The link goes down for 150 ms — three lease terms — while the
    # primary keeps committing.
    primary.set_fault_plan(FaultPlan(name="down").flaky_link(times=10_000))
    for tick in range(15):
        proc.vmspace.write(addr, f"state-B{tick:02d}".encode())
        primary.run_for(10 * MSEC)
    assert node.down_since is not None
    assert primary.clock.now() - node.down_since > 100 * MSEC
    assert events.log().matching(events.LINK_DOWN, node=0)
    assert cluster.durable == ckpt_a
    with pytest.raises(LeaseValid):
        cluster.failover()

    # The link heals: the pump ships the tail, nothing was lost.
    primary.clear_fault_plan()
    for _round in range(8):     # a degraded peer is probed every 4th
        cluster.pump()
    assert node.down_since is None
    assert cluster.durable == group.last_complete_id
    expected = proc.vmspace.read(addr, 9)

    # When the primary really dies, failover proceeds and restores
    # that tail.
    sls.checkpoint(group, sync=True)
    primary.crash()
    result = cluster.failover()
    assert result.root.vmspace.read(addr, 9) == expected


def test_stop_halts_pumping():
    primary, _sls, _proc, _group, _addr, cluster = make_service(
        periodic=True)
    cluster.install()
    primary.run_for(30 * MSEC)
    cluster.stop()
    shipped = cluster.nodes[0].stats["streams"]
    primary.run_for(50 * MSEC)
    assert cluster.nodes[0].stats["streams"] == shipped
