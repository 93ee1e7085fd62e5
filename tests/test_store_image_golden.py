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
events lost ``pgs=``, and again when replication legs began to run
concurrently: a pump now returns one leg after the delta is
serialized, not N, so the primary's commit timestamps (in its
checkpoint records) and the event times every store's flight record
keeps moved — no extent moved, and every node's other bytes are
unchanged.  Both moved together once more when the device began to
book one ``nvme.write`` span per device per flush instead of one per
command: the span ring each flight record captures holds fewer, newer
spans.  Every other extent is unchanged (19 flight-record extents in
the fleet image, 30 in the cluster image).  Both moved together again
when a record extent became one table per record shape (no envelope
per object, no bare single-record extent) and a system shadow's name
stopped growing by ``sys:`` per checkpoint: record, metadata, catalog
and flight-record bytes, and what follows them on the array.  Both
moved together once more when a checkpoint's owned extents went to
media as ``[offset, count, length]`` runs (metadata bytes and what
follows them; the logical pins held) and a synthetic page became one
SHAKE-128 stream: that step kept every extent's offset and length and
changed only raw page payloads (33 fleet extents, 144 cluster ones).
Both moved together once more when record tables and the
page-locator map became typed columns (packed int and coded scalar
columns, the page map one table): record and metadata bytes, and what
follows them on the array; the logical pins held.  The fleet image
alone moved when a trimming commit became one transaction: a history
trim no longer writes a catalog, flight record and superblock of its
own, so what follows lands at other offsets and times, and the
cluster image and both logical pins held (was ``6e7a8818…e031f3f57a``).
Both moved together when the superblock stopped carrying the free
list (was ``18c5fddf…ca0e67f5b60f`` and ``c3393bb2…0f198051c472``):
shorter superblocks, and from their shorter writes earlier
``time_ns`` in later checkpoint metadata and earlier event times in
flight records.  In the fleet image every extent keeps its offset and
only those moved (2 superblocks, 18 metadata records differing in
``time_ns`` alone, 11 flight records).  In the cluster image the two
nodes of the AZ that goes down mount when they rejoin, and the mount
now frees their superseded catalog and flight record, so what they
write afterwards lands at other offsets; the other four stores keep
every offset.  Both logical pins held.

A second pin per scenario is logical: each retained checkpoint's
merged view — its objects' ``(oid, otype, state)`` and each OID's page
bytes — on every store, with no offset or record layout in it
(:func:`logical_digest`).  It was recorded before the table format
and did not move with it; it moved once with the name fix, and only
in ``vmobject`` records' ``name`` (16 records in the fleet's retained
views, 132 across the cluster's six stores; was
``1479ade5…ab16433`` and ``2ef7fa20…67f992cc``); it moved again with
the synthetic page formula, in page bytes only — with each page
hashed by its seed or length instead of its bytes, the views read the
same before and after (was ``4b680b9b…bf23e47b54`` and
``d531af35…c6a46d``).  The digest must also not
depend on process state: it is taken cold (a fresh interpreter,
nothing memoised) and warm (repeated in this process) and must read
the same.  It reads the media through
``NVMeDevice.extents()``, which builds each flight record a flip only
captured, so the pins also hold every record built at the end of a run
to the bytes of its flip.
"""

import hashlib
import os
import subprocess
import sys

from repro import Machine, load_aurora, serde
from repro.core import telemetry
from repro.core.cluster import SLSCluster
from repro.units import MSEC, PAGE_SIZE

FLEET_SHA256 = "abfdc318f462e1df97efd8e01bfb62a4debec82e570d504cdf57f1fef42870d9"
CLUSTER_SHA256 = "5f16ece88d77e56f77c74600d2d91fb6f3bb71af498f5a7d6c477e5312da8b50"
FLEET_LOGICAL_SHA256 = "c78e69488d1fb20cb10acdc49ea99076f8de9b72587b6b900f8a09e16f7339c6"
CLUSTER_LOGICAL_SHA256 = "8fefbad00b17c7eeff07a883da39ce6a3008de25c0d24dec47ce48228491d584"


def image_digest(machines) -> str:
    digest = hashlib.sha256()
    for machine in machines:
        for device in machine.storage.devices:
            for offset, payload in sorted(device.extents()):
                digest.update(b"%d:" % offset)
                digest.update(payload if isinstance(payload, (bytes, bytearray))
                              else repr(payload).encode())
    return digest.hexdigest()


def logical_digest(stores) -> str:
    """sha256 over what each retained checkpoint restores: its merged
    view's ``(oid, otype, state)`` in OID order, then each OID's pages
    by index.  No offset, extent or record layout enters it."""
    digest = hashlib.sha256()
    for store in stores:
        for ckpt_id in sorted(store.checkpoints):
            extents, pages = store.merged_view(ckpt_id)
            digest.update(b"ckpt %d:" % ckpt_id)
            objects = store.read_object_records(extents)
            for oid in sorted(objects):
                digest.update(serde.dumps([oid, *objects[oid]]))
            for oid in sorted(pages):
                runs = pages[oid].runs
                digest.update(b"pages %d:" % oid)
                fetched = iter(store.fetch_pages(runs))
                for run in runs:
                    for pindex in range(run[1], run[1] + run[2]):
                        digest.update(b"%d:" % pindex)
                        digest.update(next(fetched).realize())
    return digest.hexdigest()


def fleet_run():
    """Six EDF-scheduled tenants with history GC; returns the
    machine and its orchestrator."""
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
    return machine, sls


def fleet_image() -> str:
    machine, _sls = fleet_run()
    digest = image_digest([machine])
    telemetry.reset()
    return digest


def fleet_logical() -> str:
    _machine, sls = fleet_run()
    digest = logical_digest([sls.store])
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


def cluster_logical() -> str:
    telemetry.reset()
    sls, _group, cluster, _report = cluster_scenario()
    digest = logical_digest([sls.store] + [node.sls.store
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


def test_fleet_and_cluster_logical_views_match_their_pins():
    assert (fleet_logical(), cluster_logical()) == \
        (FLEET_LOGICAL_SHA256, CLUSTER_LOGICAL_SHA256)
