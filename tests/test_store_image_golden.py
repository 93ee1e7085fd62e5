"""Golden store images: same seed, same bytes on every device extent.

Two small seeded runs — a fleet of EDF-scheduled tenants with async
flushes and history GC, and a quorum cluster that loses an AZ mid-run —
pin the sha256 over every extent of every device they wrote.  Both run
long enough that each flight-recorder snapshot is over budget and
sheds, so the digest covers the recorder's shedding decisions as well
as the catalog, superblock, record and page bytes.

An encoder, decoder or recorder change that moves one byte on media
fails here (PR 13's table-driven encoder and encode-once recorder
kept the pins the recursive encoder set).  The pins move only with an
intended on-disk format change; the last one was the checkpoint
metadata record's extent-grouped ``object_records`` index (both
images) together with GC adopting record extents by reference and
releasing the victim's extents after its flip (the fleet image, the
only one that garbage-collects); the cluster image alone moved once
more when replica checkpoints began to carry the primary's live set
(the wire stream's only effect on media) and ``segment_repaired``
events lost ``pgs=``.  The digest must also not depend on process state: it is taken
cold (a fresh interpreter, nothing memoised) and warm (repeated in
this process) and must read the same.
"""

import hashlib
import os
import subprocess
import sys

from repro import Machine, load_aurora
from repro.core import telemetry
from repro.core.cluster import SLSCluster
from repro.units import MSEC, PAGE_SIZE

FLEET_SHA256 = "906cd1c55c0ad2889659289bc3704c9b945b92644e133dc1cb302c4cd3004cc3"
CLUSTER_SHA256 = "e6b30563bca137a943147939f23a2bbb52e4968346ffdb48d73ce29787953d0b"


def image_digest(machines) -> str:
    digest = hashlib.sha256()
    for machine in machines:
        for device in machine.storage.devices:
            for offset in sorted(device._extents):
                payload = device._extents[offset]
                digest.update(b"%d:" % offset)
                digest.update(payload if isinstance(payload, (bytes, bytearray))
                              else repr(payload).encode())
    return digest.hexdigest()


def fleet_image() -> str:
    telemetry.reset()
    machine = Machine()
    sls = load_aurora(machine)
    tenants = []
    for index, period_ms in enumerate((10, 10, 20, 20, 25, 50)):
        proc = machine.kernel.spawn(f"tenant{index}")
        addr = proc.vmspace.mmap(12 * PAGE_SIZE, name="heap")
        proc.vmspace.fill(addr, 12, seed=index)
        sls.attach(proc, name=f"tenant{index}", period_ns=period_ms * MSEC,
                   history_limit=3)
        tenants.append((proc, addr))
    for step in range(40):
        for index, (proc, addr) in enumerate(tenants):
            page = (step + index) % 12
            proc.vmspace.write(addr + page * PAGE_SIZE,
                               b"tenant%d step %03d" % (index, step))
        machine.run_for(5 * MSEC)
    digest = image_digest([machine])
    telemetry.reset()
    return digest


def cluster_scenario():
    """A 5-node cluster that loses AZ 1 half-way through 24 commits,
    heals and repairs; returns ``(sls, group, cluster, repair_report)``
    with the run's telemetry still in the registry."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("svc")
    addr = proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 16, seed=11)
    group = sls.attach(proc, name="svc", periodic=False)
    cluster = SLSCluster(sls, group, nodes=5, azs=3, segment_bytes=1024)
    downed = []
    for step in range(24):
        if step == 12:
            downed = cluster.az_down(1, reason="golden")
        proc.vmspace.write(addr + (step % 16) * PAGE_SIZE,
                           b"svc step %03d" % step)
        sls.checkpoint(group, name=f"v{step}", sync=True)
        cluster.pump()
    for node_id in downed:
        cluster.node_up(node_id)
    return sls, group, cluster, cluster.repair()


def cluster_image() -> str:
    telemetry.reset()
    sls, _group, cluster, _report = cluster_scenario()
    digest = image_digest([sls.machine] + [node.sls.machine
                                           for node in cluster.nodes])
    telemetry.reset()
    return digest


def test_fleet_and_cluster_images_match_their_pins_warm_and_cold():
    warm = [(fleet_image(), cluster_image()) for _ in range(2)]
    assert warm[0] == warm[1], "digest depends on in-process state"
    assert warm[0] == (FLEET_SHA256, CLUSTER_SHA256)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root, os.path.join(root, "src"), env.get("PYTHONPATH", "")])
    cold = subprocess.run(
        [sys.executable, "-c",
         "from tests.test_store_image_golden import *;"
         "print(fleet_image(), cluster_image())"],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    assert tuple(cold.stdout.split()) == (FLEET_SHA256, CLUSTER_SHA256)
