#!/usr/bin/env python3
"""High availability by continuous checkpoint replication (Table 2).

A primary machine runs a stateful service under Aurora; every
checkpoint is streamed incrementally to a standby machine — the
one-node case of the quorum cluster.  When the primary suffers a
power failure, the standby takes over from the last replicated
checkpoint — losing at most one period of work, with no application
code for replication, serialization or recovery.

Run:  python examples/high_availability.py
"""

from repro import Machine, load_aurora
from repro.core.cluster import SLSCluster
from repro.units import MSEC, PAGE_SIZE, fmt_size


def main():
    primary = Machine()
    primary_sls = load_aurora(primary)

    kernel = primary.kernel
    proc = kernel.spawn("orders-service")
    heap = proc.vmspace.mmap(256 * PAGE_SIZE, name="orders")
    group = primary_sls.attach(proc, name="orders-service",
                               period_ns=10 * MSEC)
    cluster = SLSCluster(primary_sls, group, nodes=1, azs=1)
    cluster.install()
    standby = cluster.nodes[0]
    print("primary serving; standby receiving incremental streams "
          "every 10 ms")

    orders = 0
    for _tick in range(60):
        orders += 1
        proc.vmspace.write(heap, orders.to_bytes(8, "little"))
        proc.vmspace.write(heap + 8 * orders,
                           f"order-{orders}".encode())
        primary.run_for(2 * MSEC)

    chain = primary_sls.store.checkpoints_for(group.group_id)
    behind = sum(info.ckpt_id > cluster.durable for info in chain)
    print(f"processed {orders} orders; "
          f"{standby.stats['streams']} streams shipped "
          f"({fmt_size(standby.stats['bytes'])} total), "
          f"standby lag: {behind} checkpoint(s)")

    print("PRIMARY POWER FAILURE")
    primary.crash()

    result = cluster.failover()
    restored = result.root
    recovered = int.from_bytes(restored.vmspace.read(heap, 8), "little")
    print(f"standby took over at order {recovered} "
          f"(lost {orders - recovered} in-flight orders, "
          f"<= one period + replication lag)")
    assert orders - recovered <= 10
    # The standby continues as the new primary.
    recovered += 1
    restored.vmspace.write(heap, recovered.to_bytes(8, "little"))
    standby.machine.run_for(20 * MSEC)
    print(f"standby now serving (order counter at {recovered}); "
          f"history on standby: "
          f"{len(standby.sls.store.checkpoints_for(group.group_id, include_partial=True))} checkpoints")


if __name__ == "__main__":
    main()
