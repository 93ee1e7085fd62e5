"""The cluster's timing model against its closed form.

A pump ships a committed delta to every node at once, each leg on its
own primary→node link queue, so a checkpoint is durable at the W-th of
N concurrent leg completions.  Fault-free, every leg takes the same
time and the quorum lag is one serialization plus one leg:

    lag = S + NET_RTT // 2 + transfer_time(B)

where S is the primary-clock time ``shards_for`` took and B is the
delta's ``manifest.total_bytes``.  With per-link skew the lag is the
W-th smallest leg completion, so up to N − W slow replicas do not move
it.  The network constants are written out here (10 GbE, 60 us round
trip) rather than read from ``costs``, so a drifted cost constant
fails these tests instead of moving both sides.

Also here: one ``RetryPolicy`` backoff rule for ``run()`` and the leg
scheduler, and a flaky leg that delays no other leg's quorum.
"""

from __future__ import annotations

import pytest

from repro import Machine, load_aurora
from repro.core import events, telemetry
from repro.core.cluster import SLSCluster
from repro.core.faults import PRIMARY, FaultPlan
from repro.core.resilience import RetryPolicy
from repro.errors import LinkDown, RetriesExhausted
from repro.hw.clock import SimClock
from repro.units import PAGE_SIZE

#: One-way latency of a leg: half the 10 GbE LAN's 60 us round trip.
ONE_WAY_NS = 30_000
#: Link bandwidth in bytes per second (10 Gbit/s).
LINK_BYTES_PER_S = 10 * 2 ** 30 // 8


@pytest.fixture(autouse=True)
def fresh_telemetry():
    """The event log is process-wide: start and leave it empty."""
    telemetry.reset()
    yield
    telemetry.reset()


def leg_ns(nbytes: int) -> int:
    """One fault-free leg: the one-way latency plus serialization."""
    return ONE_WAY_NS + nbytes * 1_000_000_000 // LINK_BYTES_PER_S


class Fixture:
    """A primary with one attached heap and an N-node cluster that
    already holds a first checkpoint."""

    def __init__(self, nodes: int, azs: int = 3):
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        self.proc = self.machine.kernel.spawn("svc")
        self.addr = self.proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
        self.group = self.sls.attach(self.proc, name="svc",
                                     periodic=False)
        self.cluster = SLSCluster(self.sls, self.group, nodes=nodes,
                                  azs=azs, segment_bytes=1024)
        self.plan = FaultPlan(name="timing")
        self.machine.set_fault_plan(self.plan)
        self.step = 0
        self.commit()
        assert self.cluster.pump() is not None

    def commit(self) -> int:
        self.step += 1
        for page in range(3):
            self.proc.vmspace.write(self.addr + page * PAGE_SIZE,
                                    b"step-%04d:%d" % (self.step, page))
        return int(self.sls.checkpoint(self.group,
                                       sync=True).info.ckpt_id)

    def pump_timed(self):
        """Commit and pump one checkpoint; returns ``(ckpt, S, B, lag,
        pump_ns)``, timing the primary clock around every
        ``shards_for`` call and the whole pump."""
        cluster, clock = self.cluster, self.machine.clock
        ckpt = self.commit()
        serialize_ns = []
        shards_for = cluster.shards_for

        def timed(ckpt_id):
            before = clock.now()
            shards = shards_for(ckpt_id)
            serialize_ns.append(clock.now() - before)
            return shards

        cluster.shards_for = timed
        started = clock.now()
        try:
            assert cluster.pump() == ckpt
        finally:
            del cluster.shards_for
        acks = events.log().matching(events.QUORUM_ACK, ckpt=ckpt)
        assert len(acks) == 1
        nbytes = cluster.nodes[0].shards[ckpt][0].total_bytes
        return (ckpt, sum(serialize_ns), nbytes,
                acks[0].fields["lag_ns"], clock.now() - started)


@pytest.mark.parametrize("nodes", [6, 3])
def test_fault_free_lag_is_one_serialization_plus_one_leg(nodes):
    fx = Fixture(nodes)
    assert fx.cluster.write_quorum == nodes // 2 + 1
    for _ in range(3):
        _ckpt, serialize, nbytes, lag, pump_ns = fx.pump_timed()
        assert serialize > 0 and nbytes > 0
        assert lag == serialize + leg_ns(nbytes)
        # Every leg took the same time: the pump returned with them.
        assert pump_ns == lag


@pytest.mark.parametrize("nodes, ship_us, ack_us", [
    (6, [5, 0, 40, 10, 25, 15], [0, 30, 0, 0, 0, 2]),
    (3, [20, 0, 7], [0, 9, 0]),
])
def test_skewed_lag_is_the_wth_smallest_leg_completion(nodes, ship_us,
                                                       ack_us):
    fx = Fixture(nodes)
    for node in range(nodes):
        fx.plan.delay_link(PRIMARY, node, ship_us[node] * 1000)
        fx.plan.delay_link(node, PRIMARY, ack_us[node] * 1000)
    _ckpt, serialize, nbytes, lag, pump_ns = fx.pump_timed()
    legs = sorted(leg_ns(nbytes) + 1000 * (ship + ack)
                  for ship, ack in zip(ship_us, ack_us))
    assert lag == serialize + legs[fx.cluster.write_quorum - 1]
    assert pump_ns == serialize + legs[-1]


@pytest.mark.parametrize("slow, moves", [(1, False), (2, False),
                                         (3, True)])
def test_up_to_n_minus_w_slow_replicas_do_not_move_the_lag(slow, moves):
    """N = 6, W = 4: a leg made 10x slower (``delay_link`` of nine
    legs) costs the quorum nothing while at most N - W = 2 replicas
    are slow; with three, the W-th completion is a slow leg."""
    fx = Fixture(6)
    _ckpt, _serialize, nbytes, _lag, _pump_ns = fx.pump_timed()
    delay = 9 * leg_ns(nbytes)
    for node in range(slow):
        fx.plan.delay_link(PRIMARY, node, delay)
    for _ in range(3):
        _ckpt, serialize, nbytes, lag, pump_ns = fx.pump_timed()
        slow_leg = leg_ns(nbytes) + delay
        assert lag == serialize + (slow_leg if moves else leg_ns(nbytes))
        assert pump_ns == serialize + slow_leg


def _retry_trail(op):
    """The retry events and counters one operation left."""
    trail = [(event.fields["attempt"], event.fields["backoff_ns"],
              event.fields["error"])
             for event in events.log().matching(events.RETRY, op=op)]
    registry = telemetry.registry()
    return (trail, registry.value("sls.resilience.retries", op=op),
            registry.value("sls.resilience.exhausted", op=op))


@pytest.mark.parametrize("flaps", [3, 10])
def test_run_and_the_leg_scheduler_share_one_backoff_rule(flaps):
    """The same seeded policy against the same failure sequence backs
    off identically whether ``run()`` waits on the clock or a leg
    schedules its next attempt: same delays, events and counters (ten
    flaps outlast the five attempts, so both give up)."""
    fx = Fixture(nodes=1, azs=1)
    node = fx.cluster.nodes[0]
    node.retry = RetryPolicy(fx.machine.clock, seed=99, op="leg")
    fx.plan.flaky_link(times=flaps)
    ckpt = fx.commit()
    started = fx.machine.clock.now()
    landed = fx.cluster.ship_checkpoint(node, ckpt)
    leg = _retry_trail("leg")

    clock = SimClock(started)
    policy = RetryPolicy(clock, seed=99, op="run")
    left = [flaps]

    def attempt():
        if left[0]:
            left[0] -= 1
            raise LinkDown("flap")
        return True

    try:
        ran = policy.run(attempt)
    except RetriesExhausted:
        ran = False
    assert _retry_trail("run") == leg
    assert ran == landed == (flaps < 5)
    assert leg[1] == min(flaps, 4) and leg[2] == (flaps >= 5)
    waited = sum(backoff for _attempt, backoff, _error in leg[0])
    assert clock.now() - started == waited


def test_a_flaky_leg_delays_no_other_legs_quorum():
    """Node 0's link drops its first two ship attempts: it backs off
    on its own timeline while the other five legs land, so the quorum
    lag is still the fault-free closed form — and the flaky leg's
    backoff still lands before ``pump()`` returns."""
    fx = Fixture(6)
    cut = (PRIMARY, 0)
    # The lease ping to node 0 drops too; two ship attempts follow it.
    fx.plan.partial_partition([cut]).heal_after_drops(3)
    ckpt, serialize, nbytes, lag, pump_ns = fx.pump_timed()
    assert lag == serialize + leg_ns(nbytes)
    assert fx.plan.deliveries.count((PRIMARY, 0, "dropped")) == 3
    retries = events.log().matching(events.RETRY, op="cluster.ship.n0")
    backoff = sum(event.fields["backoff_ns"] for event in retries[-2:])
    assert backoff > 0
    assert ckpt in fx.cluster.nodes[0].applied
    assert 0 in fx.cluster.acks[ckpt]
    assert pump_ns == serialize + backoff + leg_ns(nbytes)
