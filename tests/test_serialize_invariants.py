"""Serialization invariants of the POSIX object model (§5.2).

"This structure allows Aurora to scan over all persistent objects and
serialize each of them to storage exactly once."  These tests verify
the exactly-once property directly, plus OID stability across
checkpoints and AIO capture/reissue.
"""

import pytest

from repro import Machine, load_aurora
from repro.core.serialize import CheckpointSerializer
from repro.kernel.aio import AIO_READ, AIO_WRITE
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.units import PAGE_SIZE


class _CountingTxn:
    def __init__(self):
        self.put_counts = {}

    def put_object(self, oid, otype, state):
        self.put_counts[oid] = self.put_counts.get(oid, 0) + 1

    def put_pages(self, oid, runs, owner=None):
        pass


@pytest.fixture
def setup():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    return machine, sls, proc, group


def _serialize(machine, sls, group):
    txn = _CountingTxn()
    serializer = CheckpointSerializer(machine.kernel, group, sls.store,
                                      txn)
    serializer.serialize_all()
    return txn


def test_shared_objects_serialized_exactly_once(setup):
    """One OpenFile in three fd-table slots across two processes, one
    vnode under two OpenFiles, one pipe under two fds: every object
    appears exactly once in the checkpoint."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    fd = kernel.open(proc, "/shared", O_CREAT | O_RDWR)
    kernel.dup(proc, fd)                       # same OpenFile, 2 slots
    kernel.open(proc, "/shared", O_RDWR)       # same vnode, new file
    kernel.pipe(proc)                          # one pipe, 2 fds
    kernel.fork(proc)                          # everything shared again

    txn = _serialize(machine, sls, group)
    duplicates = {oid: count for oid, count in txn.put_counts.items()
                  if count > 1}
    assert duplicates == {}


def test_oids_stable_across_checkpoints(setup):
    """The kernel-address -> OID map is persistent: the same objects
    get the same identities in every checkpoint (that is what makes
    incremental deltas meaningful)."""
    machine, sls, proc, group = setup
    kernel = machine.kernel
    kernel.open(proc, "/f", O_CREAT | O_RDWR)
    kernel.pipe(proc)
    first = set(_serialize(machine, sls, group).put_counts)
    second = set(_serialize(machine, sls, group).put_counts)
    assert first == second


def test_new_objects_get_new_oids(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    first = set(_serialize(machine, sls, group).put_counts)
    kernel.open(proc, "/late", O_CREAT)
    second = set(_serialize(machine, sls, group).put_counts)
    assert first < second


def test_inflight_aio_captured_and_reads_reissued(setup):
    machine, sls, proc, group = setup
    kernel = machine.kernel
    kernel.aio.submit(AIO_READ, None, 4096, 8192,
                      duration_ns=10 ** 12)  # won't complete in time
    res = sls.checkpoint(group, sync=True)
    gid = group.group_id
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)
    sls2.restore(gid)
    # The pending read was reissued on the new kernel.
    assert len(machine.kernel.aio.inflight) == 1
    request = next(iter(machine.kernel.aio.inflight.values()))
    assert request.offset == 4096 and request.length == 8192


def test_history_listing(setup):
    machine, sls, proc, group = setup
    sls.checkpoint(group, name="alpha", sync=True)
    sls.checkpoint(group, name="beta", sync=True)
    rows = sls.history(group.group_id)
    assert [row["name"] for row in rows] == ["alpha", "beta"]
    assert rows[0]["ckpt_id"] < rows[1]["ckpt_id"]
