"""The TLV record format: round trips, determinism, corruption — and
byte-for-byte agreement with the reference model in
``tests/serde_reference.py``."""

import enum
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serde
from repro.errors import CorruptRecord
from tests.serde_reference import frame, ref_dumps, ref_encode, ref_loads


def test_scalar_round_trips():
    for value in (None, True, False, 0, 1, -1, 2 ** 80, -(2 ** 80),
                  b"", b"bytes", "", "text", "uniçode"):
        assert serde.loads(serde.dumps(value)) == value


def test_container_round_trips():
    value = {"a": [1, 2, {"nested": b"x"}], "b": None, "c": [True, -5]}
    assert serde.loads(serde.dumps(value)) == value


def test_tuple_decodes_as_list():
    assert serde.loads(serde.dumps((1, 2))) == [1, 2]


def test_bytearray_decodes_as_bytes():
    assert serde.loads(serde.dumps(bytearray(b"xy"))) == b"xy"


def test_dict_keys_sorted_for_determinism():
    a = serde.dumps({"x": 1, "y": 2})
    b = serde.dumps({"y": 2, "x": 1})
    assert a == b


def test_non_string_dict_key_rejected():
    with pytest.raises(TypeError):
        serde.dumps({1: "x"})


def test_unsupported_type_rejected():
    with pytest.raises(TypeError):
        serde.dumps(3.14)


def test_corrupt_magic():
    data = bytearray(serde.dumps([1]))
    data[0] ^= 0xFF
    with pytest.raises(CorruptRecord):
        serde.loads(bytes(data))


def test_corrupt_body_checksum():
    data = bytearray(serde.dumps({"key": b"payload-bytes"}))
    data[-1] ^= 0x01
    with pytest.raises(CorruptRecord):
        serde.loads(bytes(data))


def test_truncated_record():
    data = serde.dumps([1, 2, 3])
    with pytest.raises(CorruptRecord):
        serde.loads(data[:len(data) - 4])


def test_short_header_rejected():
    with pytest.raises(CorruptRecord):
        serde.loads(b"ATLV")


json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(json_like)
def test_round_trip_property(value):
    def normalize(v):
        if isinstance(v, tuple):
            return [normalize(x) for x in v]
        if isinstance(v, list):
            return [normalize(x) for x in v]
        if isinstance(v, dict):
            return {k: normalize(x) for k, x in v.items()}
        return v

    assert serde.loads(serde.dumps(value)) == normalize(value)


@settings(max_examples=100, deadline=None)
@given(json_like, st.integers(min_value=0, max_value=200),
       st.integers(min_value=1, max_value=255))
def test_single_byte_corruption_never_misdecodes(value, pos, flip):
    """Flipping any body byte must raise, never return wrong data."""
    data = bytearray(serde.dumps(value))
    header = len(serde.MAGIC) + 1 + 16
    if len(data) <= header:
        return
    index = header + (pos % (len(data) - header))
    data[index] ^= flip
    try:
        decoded = serde.loads(bytes(data))
    except CorruptRecord:
        return
    # CRC32 has collisions in theory; equality is the only acceptable
    # non-raising outcome.
    assert decoded == serde.loads(serde.dumps(value))


# -- the reference model ----------------------------------------------------------------


class Color(enum.IntEnum):
    RED = 1
    DEEP = -(2 ** 70)


class Label(str):
    """A str subclass (not memoised by the encoder)."""


class Pre:
    """Marks a subtree the test hands to the encoder pre-encoded."""

    def __init__(self, value, framed=False):
        self.value, self.framed = value, framed


def plain(value):
    """The tree with the :class:`Pre` marks removed."""
    if isinstance(value, Pre):
        return plain(value.value)
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def spliced(value):
    """The tree with every marked subtree replaced by its fragment
    (framed lists through :func:`serde.frame_list`)."""
    if isinstance(value, Pre):
        inner = value.value
        if value.framed and isinstance(inner, list):
            return serde.frame_list(
                [serde.fragment(spliced(item)) for item in inner])
        return serde.fragment(spliced(inner))
    if isinstance(value, list):
        return [spliced(item) for item in value]
    if isinstance(value, tuple):
        return tuple(spliced(item) for item in value)
    if isinstance(value, dict):
        return {key: spliced(item) for key, item in value.items()}
    return value


def decoded(value):
    """What a decoder returns for ``plain(value)``."""
    if isinstance(value, (list, tuple)):
        return [decoded(item) for item in value]
    if isinstance(value, dict):
        return {str(key): decoded(item) for key, item in value.items()}
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, Color):
        return int(value)
    if isinstance(value, Label):
        return str(value)
    return value


leaves = (st.none() | st.booleans() | st.integers()
          | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
          | st.integers(min_value=-2, max_value=1100)
          | st.sampled_from(list(Color))
          | st.binary(max_size=80) | st.binary(max_size=8).map(bytearray)
          | st.text(max_size=80) | st.text(max_size=8).map(Label))
marked_values = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=8) | st.text(max_size=4).map(Label),
                          children, max_size=4)
        | st.builds(Pre, children, st.booleans())),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(marked_values)
def test_encoder_matches_the_reference_byte_for_byte(value):
    reference = ref_dumps(plain(value))
    assert serde.dumps(plain(value)) == reference
    assert serde.dumps(spliced(value)) == reference
    assert bytes(serde.fragment(spliced(value))) == ref_encode(plain(value))
    assert serde.loads(reference) == decoded(plain(value))
    assert ref_loads(reference) == decoded(plain(value))


def test_fragments_splice_verbatim():
    rows = [{"n": i, "tag": "x" * i} for i in range(5)]
    framed = serde.frame_list([serde.fragment(row) for row in rows])
    assert serde.dumps({"rows": framed}) == serde.dumps({"rows": rows})
    assert serde.dumps(serde.frame_list([])) == serde.dumps([])
    # A fragment is spliced, never encoded as the byte string it is.
    assert serde.loads(serde.dumps(serde.fragment(b"raw"))) == b"raw"
    assert len(serde.fragment(rows)) == len(ref_encode(rows))


def test_subclasses_encode_as_their_base_type_and_floats_do_not():
    assert serde.dumps([Color.RED, Color.DEEP]) == ref_dumps([1, -(2 ** 70)])
    assert serde.dumps({Label("k"): Label("v")}) == ref_dumps({"k": "v"})
    for bad in (1.5, {"x": 2.0}, [object()], {1: 2}, {b"k": 1}):
        with pytest.raises(TypeError):
            serde.dumps(bad)


def outcome(loads, data):
    try:
        return ("value", loads(data))
    except (CorruptRecord, UnicodeDecodeError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("data, message", [
    (b"ATLV", "record shorter than header"),
    (b"XTLV" + ref_dumps(None)[4:], "bad magic"),
    (b"ATLV\x02" + ref_dumps(None)[5:], "unsupported version 2"),
    (ref_dumps([1, 2])[:-1], "record truncated"),
    (ref_dumps("abc")[:-1] + b"X", "checksum mismatch"),
    (frame(b""), "record truncated"),
    (frame(b"\x03\x00\x00"), "record truncated"),
    (frame(ref_encode(b"abcd")[:-1]), "record truncated"),
    (frame(b"\x07" + (3).to_bytes(8, "big") + b"\x00"), "record truncated"),
    (frame(b"\x09"), "unknown tag 0x09"),
    (frame(b"\xff" + bytes(8)), "unknown tag 0xff"),
    (frame(b"\x08" + (1).to_bytes(8, "big") + ref_encode(7)
           + ref_encode(None)), "dict key is not a string"),
    (frame(ref_encode(1) + ref_encode(2)), "trailing bytes after value"),
])
def test_malformed_records_raise_the_same_error_from_both_decoders(
        data, message):
    assert outcome(serde.loads, data) == ("CorruptRecord", message)
    assert outcome(ref_loads, data) == ("CorruptRecord", message)


@settings(max_examples=300, deadline=None)
@given(marked_values, st.data())
def test_decoders_agree_on_damaged_records(value, data):
    """Truncated records raise from both decoders; a damaged body
    behind a *valid* checksum (so the TLV walk itself is what rejects
    it) gets the same verdict — same value or same error — from both."""
    record = ref_dumps(plain(value))
    cut = data.draw(st.integers(min_value=0, max_value=len(record) - 1))
    assert outcome(serde.loads, record[:cut])[0] == "CorruptRecord"
    assert outcome(serde.loads, record[:cut]) == \
        outcome(ref_loads, record[:cut])
    body = bytearray(ref_encode(plain(value)))
    index = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
    body[index] = data.draw(st.integers(min_value=0, max_value=255))
    del body[data.draw(st.integers(min_value=1, max_value=len(body))):]
    damaged = frame(bytes(body))
    assert zlib.crc32(bytes(body)) == int.from_bytes(damaged[5:13], "big")
    assert outcome(serde.loads, damaged) == outcome(ref_loads, damaged)
