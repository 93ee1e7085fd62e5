"""Record shapes: an object record extent is one table per record
shape (``otype`` and state key tuple), in first-seen order, one column
per key — ``records.encode_objects`` / ``records.decode_objects``.

Whatever mix of kinds and shapes goes in — two key shapes of one kind,
empty states, nested values, negative and huge OIDs — every ``(oid,
otype, state)`` comes back, exactly as a plain reading of the tables
(``records.decode`` and a zip per row) gives it, and ``wanted`` keeps
exactly the rows of its OIDs.  A flipped byte anywhere in the payload
is a :class:`CorruptRecord`, never a wrong answer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptRecord
from repro.objstore import records

values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
    | st.binary(max_size=24) | st.text(max_size=16),
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.lists(st.integers(), max_size=3), max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=16,
)
oids = (st.integers(min_value=0, max_value=2 ** 64 - 1)
        | st.integers(min_value=-(2 ** 70), max_value=-1)
        | st.integers(min_value=2 ** 64, max_value=2 ** 130))
otypes = st.sampled_from(["pipe", "file", "vnode", "slsfs-inode", ""])
#: Few key names, so shapes recur — in more than one order too.
states = st.dictionaries(st.sampled_from(["a", "b", "fd", "n", "z"]),
                         values, max_size=4)
objects = st.lists(st.tuples(oids, otypes, states), max_size=12,
                   unique_by=lambda obj: obj[0])


def _by_table(objs):
    """The encoder's row order: tables in first-seen order, rows in
    staging order within each."""
    order = {}
    for obj in objs:
        order.setdefault((obj[1], tuple(obj[2])), []).append(obj)
    return [obj for rows in order.values() for obj in rows]


def generic_objects(payload, wanted):
    """The tables read the plain way: one dict per row."""
    found = []
    for otype, keys, row_oids, columns in records.decode(
            payload, records.REC_OBJECT_BATCH):
        for row, oid in enumerate(row_oids):
            if wanted is None or oid in wanted:
                found.append((oid, otype, {key: columns[at][row]
                                           for at, key in enumerate(keys)}))
    return found


@settings(max_examples=200, deadline=None)
@given(objects, st.data())
def test_a_batch_reads_as_the_generic_path_reads_it(objs, data):
    payload = records.encode_objects(objs)
    assert records.decode_objects(payload) == _by_table(objs)
    wanted = set(data.draw(st.lists(st.sampled_from(
        [oid for oid, _otype, _state in objs] + [7]), max_size=4)))
    assert records.decode_objects(payload, wanted) == [
        obj for obj in _by_table(objs) if obj[0] in wanted]
    for subset in (None, wanted):
        assert records.decode_objects(payload, subset) == \
            generic_objects(payload, subset)


@pytest.mark.parametrize("oid", [0, 1, 255, 256, 2 ** 56 + 3, 2 ** 64 - 1,
                                 2 ** 64, 2 ** 200, -1, -(2 ** 64)])
def test_the_shape_reads_every_int_width(oid):
    """An OID column and a state column read back every int width."""
    state = {"n": [oid, [oid, -oid]]}
    payload = records.encode_objects([(oid, "pipe", state),
                                      (oid + 1, "pipe", {"n": oid})])
    assert records.decode_objects(payload, {oid}) == [(oid, "pipe", state)]
    assert records.decode_objects(payload) == [
        (oid, "pipe", state), (oid + 1, "pipe", {"n": oid})]
    assert records.decode_objects(payload, {oid + 2}) == []


@settings(max_examples=100, deadline=None)
@given(objects.filter(bool), st.data())
def test_a_flipped_byte_is_corrupt(objs, data):
    payload = bytearray(records.encode_objects(objs))
    at = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    payload[at] ^= data.draw(st.integers(min_value=1, max_value=255))
    with pytest.raises(CorruptRecord):
        records.decode_objects(bytes(payload))


def test_one_table_per_kind_and_key_shape():
    objs = [(11, "pipe", {"buf": b"x", "n": 1}),
            (12, "file", {"path": "/a"}),
            (13, "pipe", {"buf": b"", "n": 2}),
            (14, "pipe", {"n": 3, "buf": b"y"}),
            (15, "pipe", {}),
            (16, "file", {"path": {"nested": [[1, -2], None]}}),
            (17, "pipe", {})]
    payload = records.encode_objects(objs)
    assert records.decode(payload, records.REC_OBJECT_BATCH) == [
        ["pipe", ["buf", "n"], [11, 13], [[b"x", b""], [1, 2]]],
        ["file", ["path"], [12, 16], [["/a", {"nested": [[1, -2], None]}]]],
        ["pipe", ["n", "buf"], [14], [[3], [b"y"]]],
        ["pipe", [], [15, 17], []]]
    assert records.decode_objects(payload, {15, 16}) == [
        (16, "file", {"path": {"nested": [[1, -2], None]}}),
        (15, "pipe", {}), ]


def test_another_record_kind_is_not_an_object_extent():
    with pytest.raises(CorruptRecord, match="expected 'object-batch'"):
        records.decode_objects(records.encode(records.REC_CATALOG, []))
    with pytest.raises(CorruptRecord, match="malformed object table"):
        records.decode_objects(records.encode(records.REC_OBJECT_BATCH,
                                              [["pipe", ["n"], [1]]]))
