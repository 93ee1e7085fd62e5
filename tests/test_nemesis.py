"""Partition tolerance: nemesis campaigns, epoch fencing, leases,
anti-entropy reconciliation, and seeded-partition reproducibility.

The heavyweight invariants live in the campaign engine
(:mod:`repro.core.nemesis`): no quorum-acked checkpoint is ever lost,
no fenced (minority-side) checkpoint is ever readable.  This file pins
campaign seeds, checks
the fencing/lease/forced-promote unit behavior directly, verifies
:meth:`FaultPlan.random` partition schedules reproduce exactly, and
property-tests that *any* healing partition schedule converges every
node onto the oracle's last quorum-acked checkpoint.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import SLSCluster
from repro.core.faults import (ASYM_PARTITION, PARTIAL_PARTITION,
                               PARTITION, PRIMARY, FaultPlan)
from repro.core.nemesis import CAMPAIGNS, NemesisFixture, run_all, \
    run_campaign
from repro.core.segments import DigestTree
from repro.errors import LeaseValid, LinkDown, StaleReplica

# -- campaigns (the hard invariants) ----------------------------------------


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_invariants_hold(name):
    """Every campaign passes both invariants at a pinned seed."""
    result = run_campaign(name, seed=7)
    assert result.passed, result.violations


def test_campaigns_hold_across_seeds():
    """A second seed sweep: same invariants, different schedules."""
    for seed in (3, 42):
        for result in run_all(seed):
            assert result.passed, (seed, result.name,
                                   result.violations)


# -- fencing / lease / forced promote unit behavior -------------------------


def test_lease_refuses_failover_while_incumbent_healthy():
    fx = NemesisFixture(seed=1)
    v1, _ = fx.commit("v1")
    assert fx.cluster.pump() == v1  # pump renews the lease
    with pytest.raises(LeaseValid):
        fx.cluster.failover()
    # force overrides (operator knows better than the lease).
    fx.cluster.failover(force=True)


def test_fenced_primary_drains_and_reconcile_truncates():
    fx = NemesisFixture(seed=2)
    v1, _ = fx.commit("v1")
    assert fx.cluster.pump() == v1
    fx.plan.asym_partition(list(range(6)), [PRIMARY])
    v2, _ = fx.commit("v2")
    assert fx.cluster.pump() == v1
    fx.machine.clock.advance(2 * fx.cluster.lease_ns)
    fx.cluster.pump()
    fx.cluster.failover()  # bumps the epoch on a quorum of stores
    assert all(node.promised_epoch == 2 for node in fx.cluster.nodes)
    fx.cluster.pump()  # the displaced primary's next ship is fenced
    assert fx.cluster.stats["fenced_writes"] >= 1
    assert fx.cluster.fenced
    # Fenced: the pump is inert from here on.
    assert fx.cluster.pump() == v1
    fx.plan.heal()
    report = fx.cluster.reconcile()
    assert report["fenced"] > 0
    for node in fx.cluster.nodes:
        assert v2 not in node.applied


def test_force_alone_never_discards_acknowledged_state():
    fx = NemesisFixture(seed=3)
    v1, _ = fx.commit("v1")
    assert fx.cluster.pump() == v1
    fx.cluster.node_down(0)
    v2, _ = fx.commit("v2")
    assert fx.cluster.pump() == v2
    fx.cluster.node_up(0)  # rejoins holding only v1
    with pytest.raises(StaleReplica):
        fx.cluster.promote(0)
    with pytest.raises(StaleReplica, match="force_data_loss"):
        fx.cluster.promote(0, force=True)
    fx.cluster.promote(0, force=True, force_data_loss=True)
    assert fx.cluster.stats["forced_promotes"] == 1
    assert fx.cluster.durable == v1


def test_epoch_promise_and_attribution_survive_node_reboot():
    fx = NemesisFixture(seed=4)
    v1, _ = fx.commit("v1")
    assert fx.cluster.pump() == v1
    node = fx.cluster.nodes[2]
    node.sls.store.promise_cluster_epoch(5)
    before = dict(node.applied_epoch)
    fx.cluster.node_down(2)
    fx.cluster.node_up(2)
    node = fx.cluster.nodes[2]
    assert node.promised_epoch == 5  # rode the superblock
    assert node.applied_epoch == before  # rode the checkpoint names


def test_stall_reason_names_the_gap():
    fx = NemesisFixture(seed=5)
    v1, _ = fx.commit("v1")
    assert fx.cluster.pump() == v1
    assert fx.cluster.stall_reason() is None
    fx.plan.partition([PRIMARY], [1, 2, 3, 4, 5])
    fx.commit("v2")
    fx.cluster.pump()
    reason = fx.cluster.stall_reason()
    assert reason is not None
    assert f"/{fx.cluster.write_quorum}" in reason


# -- seeded partition schedules reproduce exactly ---------------------------


def test_random_partition_plans_reproduce():
    """Same seed → identical cut schedule, delays, and description."""
    kinds_seen = set()
    for seed in range(40):
        one = FaultPlan.random(seed, io_count=50, nodes=6)
        two = FaultPlan.random(seed, io_count=50, nodes=6)
        assert one.describe() == two.describe()
        assert one.cut_schedule() == two.cut_schedule()
        for kind, _at, _pairs in one.cut_schedule():
            kinds_seen.add(kind)
    assert kinds_seen == {PARTITION, ASYM_PARTITION, PARTIAL_PARTITION}


def test_random_without_nodes_never_draws_partitions():
    """The legacy (nodeless) schedule space is untouched."""
    for seed in range(20):
        plan = FaultPlan.random(seed, io_count=50)
        assert not plan.cut_schedule()
        assert plan.describe() == FaultPlan.random(
            seed, io_count=50).describe()


def test_delivery_hook_drops_cut_directions_only():
    plan = FaultPlan(name="unit")
    plan.asym_partition([0], [1])
    with pytest.raises(LinkDown):
        plan.on_deliver(0, 1)
    assert plan.on_deliver(1, 0) == 0  # reverse stays up
    plan.delay_link(1, 0, 123)
    assert plan.on_deliver(1, 0) == 123
    plan.heal()
    assert plan.on_deliver(0, 1) == 0


# -- property: any healing partition schedule converges ---------------------

ENDPOINTS = [PRIMARY, 0, 1, 2, 3]

directed_pairs = st.sets(
    st.tuples(st.sampled_from(ENDPOINTS),
              st.sampled_from(ENDPOINTS)).filter(lambda p: p[0] != p[1]),
    min_size=1, max_size=8)


def _check_heal_converges(pairs, seed):
    fx = NemesisFixture(seed=seed)
    v1, _ = fx.commit("v1")
    assert fx.cluster.pump() == v1
    fx.plan.partial_partition(sorted(pairs))
    v2, state2 = fx.commit("v2")
    stalled = fx.cluster.pump()
    assert stalled in (v1, v2)  # never beyond the chain, never lost
    fx.plan.heal()
    assert fx.cluster.pump() == v2
    # Every node's digest tree agrees after the heal.
    roots = set()
    for node in fx.cluster.nodes:
        manifests = fx.cluster._node_manifests(node)
        roots.add(DigestTree(manifests).root)
    assert len(roots) == 1
    fx.machine.crash()
    recovery = fx.cluster.recover()
    assert recovery.durable == v2
    assert fx.read(recovery.result.root) == state2


@settings(max_examples=10, deadline=None)
@given(pairs=directed_pairs, seed=st.integers(0, 2 ** 16))
def test_any_healing_partition_schedule_converges(pairs, seed):
    """Cut any directed link set among primary + 4 nodes: after the
    heal, every node converges on the last quorum-acked checkpoint
    and recovery restores it byte-identically."""
    _check_heal_converges(pairs, seed)


@pytest.mark.slow
@settings(max_examples=100, deadline=None)
@given(pairs=directed_pairs, seed=st.integers(0, 2 ** 16))
def test_any_healing_partition_schedule_converges_deep(pairs, seed):
    _check_heal_converges(pairs, seed)
