"""Reference for the serializer's fd-table replay.

The oracle of a replayed walk is the walk itself: with a group's
``walk_memos`` cleared, ``serialize_fdtable`` visits every slot, as it
did before tables remembered anything.  ``tests/test_serialize_replay.py``
runs one machine that forgets before every checkpoint beside one that
does not — nothing under ``src/`` imports this.  The oracle of the
replay's visits is the scan it replaced (:func:`scan_slots`): every
memoised slot's file and vnode stamp read against the floor.
"""

from repro.kernel.fs.file import DTYPE_VNODE


def scan_slots(memo, floor):
    """The slots a replay from ``floor`` visits, found as the replay
    did before the kernel kept a dirty log: by reading the stamp of the
    file and the vnode of every memoised slot, in slot order."""
    return [pos for pos, file in enumerate(memo.files)
            if file.ftype != DTYPE_VNODE or file.dirty_epoch > floor
            or file.fobj.dirty_epoch > floor]


def forget_walks(sls) -> None:
    """Make the next checkpoint of every group walk every slot."""
    for group in sls.groups.values():
        group.walk_memos.clear()


class RecordSink:
    """A checkpoint transaction that keeps the records a serializer
    stages and charges no store cost (one pass in isolation)."""

    def __init__(self):
        self.records = {}

    def put_object(self, oid, otype, state):
        self.records[oid] = (otype, state)

    def put_pages(self, oid, runs, owner=None):
        pass
