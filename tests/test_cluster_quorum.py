"""Property-based tests of the quorum cluster's durability math.

Three invariants, each verified over randomized states and membership
(deep variants — ≥200 examples each — run under ``-m slow``):

* **Read-quorum sufficiency** — after full replication, *any* subset
  of at least read-quorum nodes reconstructs byte-identical
  application state, fd table included, under object churn (W + R > N:
  every read quorum intersects every write quorum).
* **Write-quorum necessity** — a partition with fewer than
  write-quorum reachable nodes never advances the durability
  watermark: the new checkpoint is not acknowledged, and recovery
  yields exactly the prior durable state, never a partial V2.
* **Repair convergence** — after losing up to two complete copies
  (node media wipes, within the f=2 tolerance of a 3/5 quorum),
  segment repair reconverges to full replication with every segment
  checksum intact.

Plus the **outage matrix** (the failure list of the retired
``benchmarks/bench_cluster.py``): cluster sizes × outage patterns
injected halfway through a run, every cell checked for zero
acknowledged loss — the 6-node AZ-outage cell in tier-1, the full
matrix under ``-m slow``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.core.cluster import SLSCluster
from repro.core.faults import PRIMARY, FaultPlan
from repro.core.nemesis import fd_table_state, reopen_fds
from repro.units import PAGE_SIZE

NODES = 5
AZS = 3
WRITE_QUORUM = NODES // 2 + 1      # 3
READ_QUORUM = NODES - WRITE_QUORUM + 1  # 3
SEGMENT_BYTES = 512

payloads = st.binary(min_size=1, max_size=96)

subsets = st.sets(st.integers(0, NODES - 1),
                  min_size=READ_QUORUM, max_size=NODES)

survivor_sets = st.sets(st.integers(0, NODES - 1),
                        min_size=0, max_size=WRITE_QUORUM - 1)

wipe_sets = st.sets(st.integers(0, NODES - 1), min_size=1, max_size=2)

#: Per commit: close and reopen a bound UDP socket and a pipe first?
reopens = st.tuples(st.booleans(), st.booleans())


class Fixture:
    """One primary with an attached service and its cluster."""

    def __init__(self, nodes=NODES):
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        self.proc = self.machine.kernel.spawn("svc")
        self.addr = self.proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
        self.group = self.sls.attach(self.proc, name="svc",
                                     periodic=False)
        self.cluster = SLSCluster(self.sls, self.group, nodes=nodes,
                                  azs=AZS, segment_bytes=SEGMENT_BYTES)
        self.churn_fds = []

    def commit(self, payload: bytes, name: str, reopen=False) -> int:
        """Write ``payload`` (stamped so V1 != V2 always) and take a
        sync checkpoint; returns the primary checkpoint id.  With
        ``reopen``, first close the bound UDP socket and the pipe the
        last such commit opened and open new ones holding ``payload``."""
        if reopen:
            self.churn_fds = reopen_fds(self.proc, self.churn_fds, payload)
        self.proc.vmspace.write(self.addr, payload)
        self.proc.vmspace.write(self.addr + 3 * PAGE_SIZE,
                                name.encode() + b":" + payload)
        result = self.sls.checkpoint(self.group, name=name, sync=True)
        return int(result.info.ckpt_id)

    def read(self, root, length: int) -> bytes:
        return (root.vmspace.read(self.addr, length)
                + b"|" + root.vmspace.read(self.addr + 3 * PAGE_SIZE,
                                           length + 4)
                + b"|" + fd_table_state(root))


def _check_read_quorum_sufficiency(subset, v1, v2, reopen):
    fx = Fixture()
    fx.commit(v1, name="v1", reopen=reopen[0])
    newest = fx.commit(v2, name="v2", reopen=reopen[1])
    assert fx.cluster.pump() == newest
    expected = fx.read(fx.proc, len(v2))
    fx.machine.crash()
    recovery = fx.cluster.recover(node_ids=sorted(subset))
    assert recovery.durable == newest
    assert fx.read(recovery.result.root, len(v2)) == expected


@settings(max_examples=20, deadline=None)
@given(subset=subsets, v1=payloads, v2=payloads, reopen=reopens)
def test_read_quorum_subsets_reconstruct_identical_state(
        subset, v1, v2, reopen):
    """(a) Any ≥R-node subset recovers byte-identical state, fd table
    included — whatever each commit closed and reopened."""
    _check_read_quorum_sufficiency(subset, v1, v2, reopen)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(subset=subsets, v1=payloads, v2=payloads, reopen=reopens)
def test_read_quorum_subsets_reconstruct_identical_state_deep(
        subset, v1, v2, reopen):
    _check_read_quorum_sufficiency(subset, v1, v2, reopen)


def _check_write_quorum_necessity(survivors, v1, v2):
    fx = Fixture()
    acked = fx.commit(v1, name="v1")
    assert fx.cluster.pump() == acked
    durable_state = fx.read(fx.proc, len(v1))
    # Partition: fewer than write-quorum nodes stay reachable.
    for node_id in range(NODES):
        if node_id not in survivors:
            fx.cluster.node_down(node_id, reason="partition")
    fx.commit(v2, name="v2")
    assert fx.cluster.pump() == acked, \
        "durability advanced without a write quorum"
    # The primary dies; the partition heals (every node reboots).
    fx.machine.crash()
    recovery = fx.cluster.recover()
    assert recovery.durable == acked
    assert fx.read(recovery.result.root, len(v1)) == durable_state
    # The unacknowledged checkpoint is gone everywhere, not lingering
    # on the minority that briefly held it.
    for node in fx.cluster.nodes:
        assert node.applied_max == acked


@settings(max_examples=20, deadline=None)
@given(survivors=survivor_sets, v1=payloads, v2=payloads)
def test_sub_write_quorum_partition_never_advances_durability(
        survivors, v1, v2):
    """(b) A <W partition acknowledges nothing; recovery yields the
    prior durable state exactly."""
    _check_write_quorum_necessity(survivors, v1, v2)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(survivors=survivor_sets, v1=payloads, v2=payloads)
def test_sub_write_quorum_partition_never_advances_durability_deep(
        survivors, v1, v2):
    _check_write_quorum_necessity(survivors, v1, v2)


def _check_repair_convergence(wiped, v1, v2):
    fx = Fixture()
    fx.commit(v1, name="v1")
    newest = fx.commit(v2, name="v2")
    assert fx.cluster.pump() == newest
    expected = fx.read(fx.proc, len(v2))
    # Lose k<=2 complete copies: replacement nodes come up blank.
    for node_id in wiped:
        fx.cluster.nodes[node_id].wipe()
        for acks in fx.cluster.acks.values():
            acks.discard(node_id)
    report = fx.cluster.repair()
    assert report["checkpoints"] == 2 * len(wiped)
    assert report["segments"] > 0
    # Converged: every node holds every checkpoint, and every cached
    # segment reassembles with its checksum intact (verify() raises
    # SegmentCorrupt otherwise).
    audit = fx.cluster.verify()
    assert audit["fully_replicated"], audit
    assert audit["segments_verified"] > 0
    # The rebuilt copies are real: recovery restricted to the wiped
    # nodes alone reconstructs the durable state (k<=2 wipes leave
    # >=1 of them... only when enough survive; use them plus one).
    fx.machine.crash()
    donors = sorted(wiped) + [n for n in range(NODES)
                              if n not in wiped][:READ_QUORUM - len(wiped)]
    recovery = fx.cluster.recover(node_ids=sorted(set(donors)))
    assert recovery.durable == newest
    assert fx.read(recovery.result.root, len(v2)) == expected


@settings(max_examples=20, deadline=None)
@given(wiped=wipe_sets, v1=payloads, v2=payloads)
def test_repair_converges_after_copy_losses(wiped, v1, v2):
    """(c) Repair after k<=2 media losses reconverges to full
    replication with checksums intact."""
    _check_repair_convergence(wiped, v1, v2)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(wiped=wipe_sets, v1=payloads, v2=payloads)
def test_repair_converges_after_copy_losses_deep(wiped, v1, v2):
    _check_repair_convergence(wiped, v1, v2)


# -- the outage matrix ----------------------------------------------------------


def _inject_outage(cluster, outage):
    """Down the pattern's nodes; returns the node ids taken out."""
    if outage == "none":
        return []
    if outage == "node":
        cluster.node_down(1, reason="matrix")
        return [1]
    downed = cluster.az_down(1, reason="matrix")
    if outage == "az+1":
        # An AZ plus one node of another: below the write quorum, so
        # durability stalls until repair re-establishes copies.
        victim = next(node.node_id for node in cluster.nodes
                      if not node.down and node.az != 1)
        cluster.node_down(victim, reason="matrix")
        downed.append(victim)
    return downed


def _check_outage_cell(nodes, outage, checkpoints):
    """One cell: the outage hits halfway through ``checkpoints``
    commits; whatever was quorum-acknowledged is what comes back."""
    fx = Fixture(nodes=nodes)
    cluster = fx.cluster
    partition = outage == "partition"
    if partition:
        plan = FaultPlan(name="matrix-partition")
        fx.machine.set_fault_plan(plan)
    step_of = {}
    downed = []
    for step in range(checkpoints):
        if step == checkpoints // 2:
            if partition:
                # The primary is cut from every node but keeps
                # committing on its side: a doomed tail.
                plan.partition([PRIMARY], list(range(nodes)))
            else:
                downed = _inject_outage(cluster, outage)
        step_of[fx.commit(b"step-%04d" % step, name=f"s{step}")] = step
        cluster.pump()

    if partition:
        acked = step_of[cluster.durable]
        fx.machine.clock.advance(2 * cluster.lease_ns)
        cluster.pump()          # zero grants past expiry: lease lost
        cluster.failover()      # quorum epoch bump on the majority side
        plan.heal()
        cluster.pump()          # the displaced primary fences itself
        recon = cluster.reconcile()
        assert recon["fenced"] >= checkpoints - 1 - acked, \
            "a doomed checkpoint was never fenced"
        assert cluster.stats["epoch_bumps"] == 1
        fx.machine.crash()
        root = cluster.recover().result.root
    else:
        for node_id in downed:
            cluster.node_up(node_id)
        if downed:
            assert cluster.repair()["segments"] > 0, \
                "nodes were lost but repair rebuilt nothing"
        acked = step_of[cluster.durable]
        fx.machine.crash()
        root = cluster.failover().root
    assert root.vmspace.read(fx.addr, 9) == b"step-%04d" % acked, \
        "an acknowledged checkpoint was lost"


def test_az_outage_on_six_nodes_loses_nothing_acknowledged():
    _check_outage_cell(6, "az", checkpoints=6)


@pytest.mark.slow
@pytest.mark.parametrize("outage",
                         ["none", "node", "az", "az+1", "partition"])
@pytest.mark.parametrize("nodes", [3, 6, 9])
def test_outage_matrix_loses_nothing_acknowledged(nodes, outage):
    _check_outage_cell(nodes, outage, checkpoints=10)


# -- what a replica must hold: the primary's liveness, and only content ---------


@pytest.mark.parametrize("nodes", [1, 3])
def test_failover_after_close_restores_only_the_open_socket(nodes):
    """A replica checkpoint carries the primary's live set: an object
    closed before the last acknowledged checkpoint is not restored
    (its record still sits in an older delta on every replica)."""
    machine = Machine()
    sls = load_aurora(machine)
    kernel = machine.kernel
    proc = kernel.spawn("svc")
    group = sls.attach(proc, name="svc", periodic=False)
    cluster = SLSCluster(sls, group, nodes=nodes, azs=1,
                         segment_bytes=SEGMENT_BYTES)

    def bound_socket(datagram):
        fd = kernel.udp_socket(proc)
        sock = kernel.sock_of(proc, fd)
        sock.bind("10.0.0.1", 5353)
        sock.enqueue(("10.9.9.9", 1000), datagram)
        return fd

    first = bound_socket(b"one")
    sls.checkpoint(group, sync=True)
    cluster.pump()
    kernel.close(proc, first)
    second = bound_socket(b"two")
    newest = int(sls.checkpoint(group, sync=True).info.ckpt_id)
    assert cluster.pump() == newest
    open_fds = proc.fdtable.fds()
    live_records = len(sls.store.merged_view(newest)[0])

    machine.crash()
    root = cluster.failover().root
    assert root.fdtable.fds() == open_fds
    restored = root.fdtable.get(second).fobj
    assert restored.recvfrom()[0] == b"two"
    for node in cluster.nodes:
        info = node.sls.store.get_checkpoint(node.applied[newest])
        assert info.live_oids is not None
        records, _pages = node.sls.store.merged_view(info.ckpt_id)
        assert len(records) == live_records


def test_status_lag_counts_what_a_blank_node_lacks():
    """``status()`` lag is the number of acknowledged checkpoints at or
    below the watermark that an up node does not hold — all of them
    for a wiped node — and unknown (None) for a down node, whose map
    of applied checkpoints died with it."""
    fx = Fixture(nodes=3)
    for step in range(4):
        fx.commit(b"step%d" % step, name=f"s{step}")
        fx.cluster.pump()
    cluster = fx.cluster
    assert [row["lag"] for row in cluster.status()["nodes"]] == [0, 0, 0]
    cluster.nodes[2].wipe()
    cluster.node_down(1)
    status = cluster.status()
    assert len([c for c in cluster.acks if c <= status["durable"]]) == 4
    assert [(row["applied"], row["lag"]) for row in status["nodes"]] == [
        (status["durable"], 0), (None, None), (None, 4)]


def test_a_node_keeps_its_leg_book_across_crash_reboot_and_wipe():
    """A replica is one object with its leg: the retry policy is never
    rebuilt (its jitter stream carries on through crash, reboot and
    wipe), and only ``node_up`` resets peer health — the reboots inside
    ``recover()`` keep a degraded record."""
    fx = Fixture(nodes=3)
    cluster = fx.cluster
    node = cluster.nodes[0]
    retry = node.retry
    node.crash()
    node.reboot()
    node.wipe()
    assert node.retry is retry
    fx.commit(b"v1", name="v1")
    assert cluster.pump() is not None
    for _ in range(2):
        node.health.record_failure(fx.machine.clock.now())
    degraded = node.health
    assert degraded.degraded
    cluster.node_down(0)
    cluster.recover()
    assert not node.down and node.health is degraded and degraded.degraded
    cluster.node_down(0)
    cluster.node_up(0)
    assert not node.health.degraded
    assert node.retry is retry


def _assert_replicas_bounded(fx, limit):
    """Each up replica holds at most the primary's ``limit`` plus what
    it holds above the watermark, and caches shards for no more."""
    durable = fx.cluster.durable
    for node in fx.cluster.up_nodes():
        above = sum(ckpt > durable for ckpt in node.applied)
        assert len(node.applied) <= limit + above, (node, durable)
        assert len(node.shards) <= len(node.applied), node


def _assert_replicas_hold_what_the_primary_holds(fx):
    primary = fx.sls.store.used_bytes()
    for node in fx.cluster.nodes:
        assert abs(node.sls.store.used_bytes() - primary) \
            <= primary // 10, (node, node.sls.store.used_bytes(), primary)


def test_replicas_trim_with_the_primary():
    """ROADMAP item 7(a): a replica used to hold every checkpoint ever
    shipped (15 in 315 392 B against the primary's 2 in 106 496 B).  It
    now trims in the flip that applies the next one, to what the
    primary keeps plus what recovery's copy count needs."""
    fx = Fixture(nodes=3)
    fx.group.history_limit = 2
    for step in range(15):
        newest = fx.commit(b"step%d" % step, name=f"s{step}")
        assert fx.cluster.pump() == newest
        _assert_replicas_bounded(fx, 2)
    _assert_replicas_hold_what_the_primary_holds(fx)
    expected = fx.read(fx.proc, 6)
    fx.machine.crash()
    assert fx.read(fx.cluster.failover().root, 6) == expected


def test_primary_maps_stay_bounded_under_retention():
    """ROADMAP item 7: ``_streams``, ``acks`` and
    ``_commit_seen`` used to gain one entry per checkpoint forever.  A
    stream goes once all N nodes hold it; quorum bookkeeping goes once
    its checkpoint has left the primary's chain below the watermark —
    while a crashed-but-rebootable node keeps what it still needs, and
    catching it up re-serializes nothing.  The replicas trim with the
    primary (item 7(a)), the node that was down included."""
    fx = Fixture(nodes=3)
    fx.group.history_limit = 4
    cluster = fx.cluster
    derived = []
    shard_delta = cluster._shard_delta

    def counting(sls, local, ckpt, *base):
        if sls is cluster.primary:
            derived.append(ckpt)
        return shard_delta(sls, local, ckpt, *base)

    cluster._shard_delta = counting
    peaks = [0, 0, 0]
    for step in range(200):
        if step == 100:
            cluster.node_down(2)
        if step == 110:
            cluster.node_up(2)
        newest = fx.commit(b"step%d" % step, name=f"s{step}")
        assert cluster.pump() == newest
        sizes = [len(cluster._streams), len(cluster.acks),
                 len(cluster._commit_seen)]
        peaks = [max(pair) for pair in zip(peaks, sizes)]
        if not 100 <= step < 110:
            assert sizes[0] == 0 and max(sizes) <= 5, (step, sizes)
        _assert_replicas_bounded(fx, 4)
    # The outage pinned only the streams the down node had missed that
    # were still in the chain (history 4), and every checkpoint was
    # serialized for the wire once, bar one: the oldest the down node
    # missed had lost its base to the primary's trim by the time it
    # came back, so it went again as a delta the node could land.
    assert peaks[0] <= 4 and max(peaks) <= 6, peaks
    assert len(set(derived)) == 200 and len(derived) == 201
    assert newest in cluster.nodes[2].applied
    _assert_replicas_hold_what_the_primary_holds(fx)
    expected = fx.read(fx.proc, 8)
    fx.machine.crash()
    assert fx.read(cluster.failover().root, 8) == expected


def test_a_replica_back_from_an_outage_holds_what_it_missed():
    """A node down while the primary trimmed past what it missed used
    to get the memoized delta of the primary's oldest checkpoint on top
    of a base it never held, and silently lack what was written while
    it was away; the trim re-parents that checkpoint, so it is shipped
    as a delta the node can land."""
    fx = Fixture(nodes=3)
    fx.group.history_limit = 4
    for step in range(12):
        if step == 3:
            fx.cluster.node_down(2)
        if step == 10:
            fx.cluster.node_up(2)
        if step == 5:
            fx.proc.vmspace.write(fx.addr + 8 * PAGE_SIZE, b"away")
        newest = fx.commit(b"step%d" % step, name=f"s{step}")
        assert fx.cluster.pump() == newest
    node = fx.cluster.nodes[2]
    assert newest in node.applied
    root = node.sls.restore(fx.group.group_id,
                            ckpt_id=node.applied[newest],
                            periodic=False).root
    assert root.vmspace.read(fx.addr + 8 * PAGE_SIZE, 4) == b"away"
    assert fx.read(root, 6) == fx.read(fx.proc, 6)


def test_rebooting_a_healthy_replica_reconciles_to_nothing():
    """A stream is a function of content alone: a rebooted node
    re-derives byte-identical shards from its own store even though
    its checkpoint ids differ from the primary's (whose SLSFS commits
    interleave with the group's), so reconcile finds no divergence."""
    from repro.kernel.fs.file import O_CREAT, O_RDWR

    fx = Fixture(nodes=3)
    kernel = fx.machine.kernel
    fd = kernel.open(fx.proc, "/journal", O_CREAT | O_RDWR)
    for step in range(6):
        kernel.write(fx.proc, fd, b"line-%d" % step)
        fx.commit(b"step-%d" % step, name=f"s{step}")
        fx.cluster.pump()
    node = fx.cluster.nodes[2]
    assert list(node.applied) != list(node.applied.values())
    fx.cluster.node_down(2)
    fx.cluster.node_up(2)
    report = fx.cluster.reconcile()
    assert (report["divergent"], report["wire_segments"],
            report["reconcile_bytes"]) == (0, 0, 0)


def test_a_rebooted_trimmed_replica_reconciles_to_nothing():
    """A trim makes a replica's oldest checkpoint a baseline: its own
    delta is then the full stream, not the incremental one the pump
    shipped, so a rebooted node and its peers still agree on every
    digest, and a wiped node rebuilds from the full stream."""
    fx = Fixture(nodes=3)
    fx.group.history_limit = 2
    for step in range(6):
        newest = fx.commit(b"step%d" % step, name=f"s{step}")
        fx.cluster.pump()
    fx.cluster.node_down(2)
    fx.cluster.node_up(2)
    report = fx.cluster.reconcile()
    assert (report["divergent"], report["wire_segments"],
            report["reconcile_bytes"]) == (0, 0, 0)
    expected = fx.read(fx.proc, 6)
    fx.cluster.nodes[0].wipe()
    assert fx.cluster.repair()["checkpoints"] == 2
    assert [sorted(node.applied) for node in fx.cluster.nodes] == \
        [sorted(fx.cluster.nodes[1].applied)] * 3
    fx.machine.crash()
    recovery = fx.cluster.recover(node_ids=[0, 1])
    assert recovery.durable == newest
    assert recovery.donor is fx.cluster.nodes[0]
    assert fx.read(recovery.result.root, 6) == expected


def test_reconcile_rebuilds_a_corrupt_copy_from_its_differing_segments():
    """The digest-diff path: one flipped byte on one replica's media is
    found by the digest exchange, outvoted by the healthy majority,
    and healed by shipping only the segments that differ."""
    fx = Fixture(nodes=3)
    first = fx.commit(b"x" * 64, name="v1")
    # A delta of real pages, several segments long.
    for page in range(4, 8):
        fx.proc.vmspace.write(fx.addr + page * PAGE_SIZE,
                              bytes([page]) * PAGE_SIZE)
    newest = fx.commit(b"y" * 64, name="v2")
    assert fx.cluster.pump() == newest
    expected = fx.read(fx.proc, 64)

    victim = fx.cluster.nodes[1]
    info = victim.sls.store.get_checkpoint(victim.applied[newest])
    extent = next(iter(next(iter(info.pages.values())).extents()))
    media = victim.machine.storage
    payload = media.read(extent)
    media.discard_extent(extent)
    media.write(extent, payload[:100] + bytes([payload[100] ^ 0xFF])
                + payload[101:])
    fx.cluster.node_down(1)
    fx.cluster.node_up(1)

    report = fx.cluster.reconcile()
    segments = len(fx.cluster.shards_for(newest)[0])
    assert report["divergent"] == 1
    assert report["checkpoints"] == 1 and report["targets"] == 1
    assert 0 < report["wire_segments"] < segments
    assert report["local_segments"] == segments - report["wire_segments"]
    assert report["reconcile_bytes"] <= \
        report["wire_segments"] * SEGMENT_BYTES
    assert first in victim.applied and newest in victim.applied
    audit = fx.cluster.verify()
    assert audit["fully_replicated"], audit
    fx.machine.crash()
    recovery = fx.cluster.recover(node_ids=[1, 2])
    assert recovery.donor is victim
    assert fx.read(recovery.result.root, 64) == expected
