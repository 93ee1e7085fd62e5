"""The TLV record format: round trips, determinism, corruption — and
byte-for-byte agreement with the reference model in
``tests/serde_reference.py``."""

import enum
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serde
from repro.errors import CorruptRecord
from tests.serde_reference import (Column, frame, ref_dumps, ref_encode,
                                   ref_loads)


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
    WIDE = 2 ** 56


class Label(str):
    """A str subclass (not memoised by the encoder)."""


class Pre:
    """Marks a subtree the test hands to the encoder pre-encoded."""

    def __init__(self, value, framed=False):
        self.value, self.framed = value, framed


class Col:
    """Marks a list of scalars the test hands to the encoder as a table
    column (:func:`serde.column`)."""

    def __init__(self, items):
        self.items = items


def plain(value, column=Column):
    """The tree with the :class:`Pre` marks removed and each
    :class:`Col` made a ``column`` of its items: the reference's
    :class:`Column` mark by default, ``serde.column`` for the encoder."""
    if isinstance(value, Pre):
        return plain(value.value, column)
    if isinstance(value, Col):
        return column(value.items)
    if isinstance(value, (list, tuple)):
        return [plain(item, column) for item in value]
    if isinstance(value, dict):
        return {key: plain(item, column) for key, item in value.items()}
    return value


def spliced(value):
    """The tree with every marked subtree replaced by its fragment
    (framed lists through :func:`serde.frame_list`) and every column by
    its :func:`serde.column`."""
    if isinstance(value, Col):
        return serde.column(value.items)
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
          | st.integers(min_value=2 ** 64 - 2, max_value=2 ** 64 + 1)
          | st.sampled_from(list(Color))
          | st.binary(max_size=80) | st.binary(max_size=8).map(bytearray)
          | st.text(max_size=80) | st.text(max_size=8).map(Label))
#: Column cells: ints at and past the int64 bounds, and a few distinct
#: strings, bools and None — so columns pack, code and fall back.
cells = (st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
         | st.sampled_from((-(2 ** 63), 2 ** 63 - 1, 2 ** 63, -(2 ** 63) - 1))
         | st.none() | st.booleans() | st.text(alphabet="ab", max_size=2))
columns = (st.lists(cells, max_size=8)
           | st.lists(st.integers(min_value=-(2 ** 63),
                                  max_value=2 ** 63 - 1), max_size=8)
           | st.lists(st.none() | st.booleans()
                      | st.text(alphabet="ab", max_size=2), max_size=8))
marked_values = st.recursive(
    leaves | st.builds(Col, columns),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=8) | st.text(max_size=4).map(Label)
                          | st.sampled_from(("a", "b", "kind", "oid")),
                          children, max_size=4)
        | st.builds(Pre, children, st.booleans())),
    max_leaves=24,
)


def check_encoding(value):
    reference = ref_dumps(plain(value))
    assert serde.dumps(plain(value, serde.column)) == reference
    assert serde.dumps(spliced(value)) == reference
    assert bytes(serde.fragment(spliced(value))) == ref_encode(plain(value))
    assert serde.loads(reference) == decoded(plain(value))
    assert ref_loads(reference) == decoded(plain(value))


@settings(max_examples=300, deadline=None)
@given(marked_values)
def test_encoder_matches_the_reference_byte_for_byte(value):
    check_encoding(value)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(marked_values)
def test_encoder_matches_the_reference_at_length(value):
    """The same, at 5 000 examples: dict shapes are cached across
    examples, so long runs meet key sets again in new orders."""
    check_encoding(value)


class Mimic:
    """Not a ``str``, but equal to, hashing and sorting as one: a key
    set holding it matches the cached shape of its text's key set."""

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return self.text == other

    def __hash__(self):
        return hash(self.text)

    def __lt__(self, other):
        return self.text < other

    def __gt__(self, other):
        return self.text > other


class Alias(str):
    """A ``str`` whose equality and hash are another key's."""

    def __new__(cls, text, alias):
        key = super().__new__(cls, text)
        key.alias = alias
        return key

    def __eq__(self, other):
        return self.alias == other

    def __hash__(self):
        return hash(self.alias)


def encoding_outcome(encode, value):
    try:
        return ("bytes", encode(value))
    except TypeError:
        return ("TypeError", None)


@pytest.mark.parametrize("values", [
    # One key set in two insertion orders: two shapes, one encoding.
    ({"b": 1, "a": [2]}, {"a": [2], "b": 1}),
    # A str-subclass key after the exact key set it equals was cached.
    ({"k": 1, "m": 2}, {Label("k"): 1, "m": 2}),
    ({"m": 2, "k": 1}, {"m": 2, Alias("z", "k"): 1}),
    # A non-str key in a key set that otherwise matches a cached shape.
    ({"k": 1, "m": 2}, {"k": 1, Mimic("m"): 2}),
    ({"k": 1}, {Mimic("k"): 1}, {"k": 1, 2: 3}, {"k": 1, b"m": 2}),
    # Ints at the ends of the small-int table and of the one-word path.
    tuple({"v": n, "w": [n, (n,)]} for n in (
        1023, 1024, 2 ** 16, 2 ** 56, 2 ** 64 - 1, 2 ** 64, -1, -(2 ** 64))),
    ([1023, 1024, 2 ** 16, 2 ** 56, 2 ** 64 - 1, 2 ** 64, -1, -(2 ** 64)],),
    (1023, 1024, 2 ** 16, 2 ** 56, 2 ** 64 - 1, 2 ** 64, -1, -(2 ** 64)),
    # True and 1 in one slot; an IntEnum where an exact int is inlined.
    ({"x": True}, {"x": 1}, [True, 1, False, 0]),
    ({"x": Color.RED}, [Color.DEEP, Color.RED, Color.WIDE], Color.WIDE,
     {"x": [Color.RED, (Color.DEEP,)], "y": Color.WIDE}),
    # Fragments as a dict value and as a list item.
    ({"f": serde.fragment({"n": 2 ** 40}), "g": 0},
     [serde.fragment([1, "a"]), serde.frame_list([serde.fragment(None)])]),
    # Lists in lists in dicts.
    ({"runs": [[1, [2, (3, "s")]], [], ((None, [b"x", {"d": [[]]}]),)]},),
])
def test_encoder_edge_cases_match_the_reference(values):
    """Each value, in order (a shape cached by one is met by the
    next), encodes to the reference's bytes or raises as it does."""
    for value in values:
        expected = encoding_outcome(ref_dumps, plain_encoded(value))
        assert encoding_outcome(serde.dumps, value) == expected
        assert encoding_outcome(serde.dumps, value) == expected


def plain_encoded(value):
    """``value`` with every fragment replaced by the value it encodes."""
    if isinstance(value, serde.Encoded):
        return ref_loads(frame(bytes(value)))
    if isinstance(value, (list, tuple)):
        return [plain_encoded(item) for item in value]
    if isinstance(value, dict):
        return {key: plain_encoded(item) for key, item in value.items()}
    return value


def test_the_shape_cache_is_bounded():
    """Key sets seen once age out of the shape cache, and what stays is
    at most its bound; a table keyed by data (more than
    ``_SHAPE_KEYS`` keys) is never kept."""
    serde._dict_shape.cache_clear()
    bound = serde._dict_shape.cache_info().maxsize
    for i in range(10_000):
        value = {str(i): i, "kind": "x" if i % 2 else [i]}
        assert serde.dumps(value) == ref_dumps(value)
    assert bound == serde._SHAPE_CACHE
    assert serde._dict_shape.cache_info().currsize == bound
    serde._dict_shape.cache_clear()
    assert serde._SHAPE_KEYS == 32
    for size in (32, 33, 4000):
        table = {str(oid): [[oid, 1]] for oid in range(size, 0, -1)}
        assert serde.dumps(table) == ref_dumps(table)
    assert serde._dict_shape.cache_info().currsize == 1


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
    (frame(b"\x0b"), "unknown tag 0x0b"),
    (frame(b"\xff" + bytes(8)), "unknown tag 0xff"),
    (frame(b"\x08" + (1).to_bytes(8, "big") + ref_encode(7)
           + ref_encode(None)), "dict key is not a string"),
    (frame(ref_encode(1) + ref_encode(2)), "trailing bytes after value"),
    # Sizes no body can hold, each behind a valid checksum (a list of
    # two items puts the next read past any index).
    (frame(b"\x07" + (2 ** 63).to_bytes(8, "big") + ref_encode(1)),
     "record truncated"),
    (frame(b"\x07" + (2).to_bytes(8, "big") + b"\x06"
           + (2 ** 64 - 1).to_bytes(8, "big") + b"abc"), "record truncated"),
    (frame(b"\x08" + (2 ** 40).to_bytes(8, "big") + ref_encode("k")
           + ref_encode(1)), "record truncated"),
    (frame(b"\x07" + (2).to_bytes(8, "big") + b"\x05"
           + (2 ** 63).to_bytes(8, "big") + b"xy"), "record truncated"),
    (frame(b"\x08" + (1).to_bytes(8, "big") + b"\x06"
           + (2 ** 62).to_bytes(8, "big") + b"k" + ref_encode(1)),
     "record truncated"),
    # Typed columns: a packed column one byte short, a code past the
    # distinct values, values that are not a list, codes cut short.
    (frame(b"\x09" + (2).to_bytes(8, "big") + bytes(15)), "record truncated"),
    (frame(b"\x09" + (2 ** 61).to_bytes(8, "big") + bytes(16)),
     "record truncated"),
    (frame(b"\x0a" + (2).to_bytes(8, "big") + ref_encode(["a"]) + b"\x00\x01"),
     "malformed coded column"),
    (frame(b"\x0a" + (1).to_bytes(8, "big") + ref_encode("ab") + b"\x01"),
     "malformed coded column"),
    (frame(b"\x0a" + (3).to_bytes(8, "big") + ref_encode([None]) + b"\x00"),
     "record truncated"),
    (frame(b"\x0a" + (1).to_bytes(8, "big") + ref_encode([]) + b"\x00"),
     "malformed coded column"),
])
def test_malformed_records_raise_the_same_error_from_both_decoders(
        data, message):
    assert outcome(serde.loads, data) == ("CorruptRecord", message)
    assert outcome(ref_loads, data) == ("CorruptRecord", message)


@settings(max_examples=300, deadline=None)
@given(st.lists(cells, max_size=300) | columns)
def test_a_column_round_trips_with_its_types(values):
    """A typed column decodes to its values and their exact types — a
    coded bool stays a ``bool``, though ``array('q')`` would take it."""
    back = serde.loads(serde.dumps({"c": serde.column(values)}))["c"]
    assert back == values
    assert list(map(type, back)) == list(map(type, values))


def test_column_encodings_are_chosen_by_type_and_range():
    ints = [-(2 ** 63), 2 ** 63 - 1, 0, -1, 1 << 56]
    packed = serde.column(ints)
    # Little-endian int64s whatever the host's byte order.
    assert bytes(packed) == (bytes([0x09]) + len(ints).to_bytes(8, "big")
                             + struct.pack(f"<{len(ints)}q", *ints))
    coded = serde.column([True, False, True, None, "syn", "syn", None, True])
    assert coded[0] == 0x0A and coded.endswith(bytes([0, 1, 0, 2, 3, 3, 2, 0]))
    assert serde.loads(serde.dumps(coded))[:3] == [True, False, True]
    # One past either int64 bound, ints mixed with bools, fewer than
    # four rows, lists, bytes, distinct values that do not recur and
    # more distinct values than a code byte holds all stay TLV.
    wide = [str(i) for i in range(257)] * 2
    for values in ([2 ** 63, 1, 2, 3], [0, 1, 2, -(2 ** 63) - 1],
                   [1, True, 2, 3], [False, 0, 1, 2], [7, 8, 9],
                   ["x", "x", "x"], [[1], [2], [1], [2]], [b"a", b"b"] * 2,
                   ["a", "b", "c", "a"], wide):
        assert serde.column(values) is values
    assert serde.column(wide[:256] * 2)[0] == 0x0A


def check_damaged_record(value, data):
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


@settings(max_examples=300, deadline=None)
@given(marked_values, st.data())
def test_decoders_agree_on_damaged_records(value, data):
    check_damaged_record(value, data)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(marked_values, st.data())
def test_decoders_agree_on_damaged_records_at_length(value, data):
    """The same, at 5 000 examples: the fast walk hands every damaged
    body to the checked walk, and rare damage (a length byte that makes
    a size no body can hold) shows up only in long runs."""
    check_damaged_record(value, data)
