"""A posix-shaped metadata golden: GC re-encoding a large adopted base.

The fleet and cluster goldens (``tests/test_store_image_golden.py``)
never build a large adopted base with holes in it.  This run does, the
way ``posix_wide`` does at a tenth of its size: 300 open files and a
history of two, so every checkpoint after the second deletes the
oldest and its child adopts a base of several record extents, some of
whose OIDs the child rewrote (a sample of files written per tick) or
no longer reaches (a few files closed and others opened per tick).

The pin is the sha256 over every checkpoint-metadata payload the store
writes, in write order: the commits' and every GC child rewrite's.  It
was recorded before the record index became a table of per-extent
entries and must not move with it — or with any change that claims to
leave metadata bytes alone.  It moved once, when the page-locator map
became one typed table (OID, run-count, kind and run-field columns
instead of a dict keyed by ``str(oid)``; was ``5239f36f…82ddd66e5c70``),
and once when a trimming commit became one transaction (was
``7a0d028e…2f46a144d59``): a delete no longer writes a catalog, flight
record and superblock of its own, so later extents land at other
offsets and ``time_ns`` reads earlier; with each document's extent
offsets renumbered in ``owned_extents`` order and ``time_ns`` left
out, all 28 documents are what they were.  It moved once more when the
superblock stopped carrying the free list (was ``f6ebf61d…e288fb28cd3``):
shorter superblock writes make ``time_ns`` read earlier, and with it
left out all 28 documents are byte for byte what they were.
"""

import hashlib
import random

from repro import Machine, load_aurora
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.objstore import records

META_SHA256 = "97606ae9936a05f15967056e5d884a57baebe35c5e20df995b4749ae5b3c736b"
#: The group's 10 commits and 8 child rewrites (history 2), and the
#: file system's 10 commits.
META_PAYLOADS = 28


def posix_run(monkeypatch):
    """The seeded run; returns every metadata payload written, in
    order, the store and the group's id."""
    written = []
    encode = records.encode

    def capture(kind, body):
        payload = encode(kind, body)
        if kind == records.REC_CKPT_META:
            written.append(payload)
        return payload

    monkeypatch.setattr(records, "encode", capture)
    rng = random.Random(45)
    machine = Machine()
    sls = load_aurora(machine)
    kernel = machine.kernel
    proc = kernel.spawn("posix")
    kernel.mkdir(proc, "/g")
    fds = [kernel.open(proc, f"/g/f{index}", O_CREAT | O_RDWR)
           for index in range(300)]
    group = sls.attach(proc, periodic=False, history_limit=2)
    for tick in range(10):
        for fd in rng.sample(fds, 30):
            kernel.write(proc, fd, b"t%03d" % tick)
        for fd in rng.sample(fds, 3):
            fds.remove(fd)
            kernel.close(proc, fd)
        fds += [kernel.open(proc, f"/g/n{tick}.{index}", O_CREAT | O_RDWR)
                for index in range(3)]
        sls.checkpoint(group, sync=True)
    return written, sls.store, group.group_id


def test_posix_shaped_metadata_matches_its_pin(monkeypatch):
    written, store, group_id = posix_run(monkeypatch)
    # The retained base spans several record extents, adopted ones
    # with holes among them.
    base, _newest = store.checkpoints_for(group_id)
    assert len(set(base.object_records.values())) >= 8
    digest = hashlib.sha256()
    for payload in written:
        digest.update(hashlib.sha256(payload).digest())
    assert len(written) == META_PAYLOADS
    assert digest.hexdigest() == META_SHA256
