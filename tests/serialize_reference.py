"""Reference for the serializer's fd-table replay.

The oracle of a replayed walk is the walk itself: with a group's
``walk_memos`` cleared, ``serialize_fdtable`` visits every slot, as it
did before tables remembered anything.  ``tests/test_serialize_replay.py``
runs one machine that forgets before every checkpoint beside one that
does not — nothing under ``src/`` imports this.
"""


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

    def put_pages(self, oid, pages):
        pass
