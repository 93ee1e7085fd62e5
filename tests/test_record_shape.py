"""Object records read off their constant envelope (``serde.Shape``)
against the generic path: ``records.decode`` plus field reads.

``records.decode_object`` and ``records.decode_objects`` must return
exactly what the generic path returns, or raise the same error, for
canonical records (any state, negative and huge OIDs), non-canonical
envelopes (an extra key, a wrong kind, a non-int OID, a missing field,
a body that is not a dict) and damaged records (truncated, a bad
checksum, a damaged body behind a valid checksum)."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serde
from repro.errors import CorruptRecord
from repro.objstore import records
from tests.serde_reference import frame

states = st.recursive(
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
        | st.integers(min_value=2 ** 64, max_value=2 ** 130)
        | st.sampled_from([0, 11, 12, 13]))
otypes = st.sampled_from(["pipe", "file", "vnode", "slsfs-inode"]) \
    | st.text(max_size=12)


@st.composite
def canonical(draw):
    return records.encode_object(draw(oids), draw(otypes), draw(states))


@st.composite
def odd_envelope(draw):
    """A record the encoder writes, but not in the object shape."""
    oid, otype, state = draw(oids), draw(otypes), draw(states)
    body = {"oid": oid, "otype": otype, "state": state}
    change = draw(st.sampled_from(
        ["extra body key", "extra top key", "kind", "oid", "missing",
         "not a dict"]))
    document = {"kind": records.REC_OBJECT, "body": body}
    if change == "extra body key":
        body[draw(st.sampled_from(["aaa", "oie", "ou", "z"]))] = state
    elif change == "extra top key":
        document[draw(st.sampled_from(["a", "c", "zz"]))] = 1
    elif change == "kind":
        document["kind"] = draw(st.sampled_from(
            [records.REC_OBJECT_BATCH, records.REC_CATALOG, "objecT", ""]))
    elif change == "oid":
        body["oid"] = draw(st.none() | st.text(max_size=4)
                           | st.binary(max_size=4) | st.booleans()
                           | st.lists(st.integers(), max_size=2))
    elif change == "missing":
        del body[draw(st.sampled_from(sorted(body)))]
    else:
        document["body"] = draw(st.lists(st.integers(), max_size=3)
                                | st.none() | st.text(max_size=4))
    return serde.dumps(document)


@st.composite
def frame_damaged(draw):
    """A canonical record whose frame rejects it: cut short, or a byte
    changed under the checksum."""
    record = bytearray(draw(canonical()))
    if draw(st.booleans()):
        return bytes(record[:draw(st.integers(0, len(record) - 1))])
    index = draw(st.integers(0, len(record) - 1))
    record[index] ^= draw(st.integers(1, 255))
    return bytes(record)


@st.composite
def body_damaged(draw):
    """A canonical record with a damaged body behind a valid checksum:
    a byte changed and the end cut, or bytes appended (a copy of the
    body's own end, so the envelope's last chunk still closes it)."""
    body = bytearray(draw(canonical())[21:])
    if draw(st.booleans()):
        body += body[-draw(st.integers(1, len(body))):]
        return frame(bytes(body))
    index = draw(st.integers(0, len(body) - 1))
    body[index] = draw(st.integers(0, 255))
    del body[draw(st.integers(1, len(body))):]
    return frame(bytes(body))


any_record = canonical() | odd_envelope() | frame_damaged() | body_damaged()
#: A batch's own checksum covers its records; damage behind a record's
#: valid checksum is left out of batches, where an unwanted record's
#: state is by design never walked.
batch_record = canonical() | odd_envelope() | frame_damaged()


def outcome(call, *args):
    try:
        return ("value", call(*args))
    except Exception as exc:    # the generic path raises more than one kind
        return (type(exc).__name__, str(exc))


def generic_object(data):
    body = records.decode(data, records.REC_OBJECT)
    return body["oid"], body["otype"], body["state"]


def names_unwanted(data, wanted):
    """Whether a record decodes to the object envelope, exactly, with
    an OID outside ``wanted``."""
    try:
        document = serde.loads(data)
    except CorruptRecord:
        return False
    if (type(document) is not dict or sorted(document) != ["body", "kind"]
            or document["kind"] != records.REC_OBJECT):
        return False
    body = document["body"]
    if type(body) is not dict or sorted(body) != ["oid", "otype", "state"]:
        return False
    try:
        return body["oid"] not in wanted
    except TypeError:           # an unhashable OID
        return False


def generic_objects(batch, wanted):
    found = []
    for item in records.decode(batch, records.REC_OBJECT_BATCH)["records"]:
        if wanted is None or not names_unwanted(item, wanted):
            found.append(generic_object(item))
    return found


@settings(max_examples=400, deadline=None)
@given(any_record)
def test_an_object_record_reads_as_the_generic_path_reads_it(data):
    assert outcome(records.decode_object, data) == \
        outcome(generic_object, data)
    # A single-record extent: returned whatever ``wanted`` says.
    expected = outcome(generic_object, data)
    single = outcome(records.decode_objects, data, {11})
    if expected[0] == "value":
        assert single == ("value", [expected[1]])
    else:
        assert single[0] != "value"


@settings(max_examples=300, deadline=None)
@given(st.lists(batch_record, max_size=6),
       st.none() | st.sets(oids, max_size=3)
       | st.sets(st.sampled_from([0, 11, 12, 13])))
def test_a_batch_reads_as_the_generic_path_reads_it(items, wanted):
    batch = records.encode_objects(items)
    assert outcome(records.decode_objects, batch, wanted) == \
        outcome(generic_objects, batch, wanted)


@pytest.mark.parametrize("oid", [0, 1, 255, 256, 2 ** 56 + 3, 2 ** 64 - 1,
                                 2 ** 64, 2 ** 200, -1, -(2 ** 64)])
def test_the_shape_reads_every_int_width(oid):
    record = records.encode_object(oid, "pipe", {"n": [oid, [oid, -oid]]})
    assert records.decode_object(record) == \
        (oid, "pipe", {"n": [oid, [oid, -oid]]})
    batch = records.encode_objects([record])
    assert records.decode_objects(batch, {oid}) == [
        (oid, "pipe", {"n": [oid, [oid, -oid]]})]
    assert records.decode_objects(batch, {oid + 1}) == []


def test_a_shape_holds_the_encoders_bytes():
    """The chunks are the encoder's: a record rebuilt from them around
    its fields' encodings is the record."""
    record = records.encode_object(12, "pipe", {"n": 1})
    shape = records._OBJECT
    rebuilt = shape._head + b"".join(
        serde.fragment(value) + chunk
        for value, (chunk, _size) in zip((12, "pipe", {"n": 1}),
                                         shape._rest))
    assert rebuilt == record[21:]
    assert zlib.crc32(rebuilt) == int.from_bytes(record[5:13], "big")
    with pytest.raises(ValueError):
        serde.Shape({"k": serde.HOLE, "v": bytes(serde.HOLE)})
