"""Deterministic tag-length-value serialization for on-disk records.

The Aurora object store persists kernel object state as byte records on
the simulated NVMe array.  We deliberately do not use :mod:`pickle`:
records must be a stable wire format that survives "reboots" into a
fresh interpreter, must never execute code on load, and must be
checksummable byte-for-byte.  This module provides a small, strict TLV
encoding for the value shapes kernel serializers actually produce:

* ``None``, ``bool``, ``int`` (arbitrary precision, signed)
* ``bytes``, ``str`` (UTF-8)
* ``list`` / ``tuple`` (decoded as ``list``)
* ``dict`` with ``str`` keys, encoded in sorted key order so that equal
  dicts always produce identical bytes (important for dedup tests).

The format is self-describing and versioned via :data:`MAGIC`.

**Typed columns** (:func:`column`) decode as lists in one C call and one
list build: *packed*, tag 0x09 (row count, a little-endian int64 a row),
or *coded*, tag 0x0A (row count, the distinct values, a byte a row).

**Fragments and the encode-once rule.**  Every value is a tag byte, and
every variable-size value a fixed-width 8-byte length or count after
it, so the encoding of a container is the concatenation of its
children's encodings behind one header — and its size is a sum.  A
caller that owns an *immutable* value can therefore encode it once
(:func:`fragment`), keep the resulting :class:`Encoded` bytes, and hand
them back inside any later document: the encoder splices an
:class:`Encoded` verbatim where it would have encoded the value, and
:func:`frame_list` puts a list header in front of a run of fragments.
The output bytes are exactly those of encoding the original value, so
readers never see the difference (:func:`loads` knows nothing of
fragments).  A superblock flip is built from fragments so that it
encodes only what changed since the last flip: each checkpoint's
catalog entry (kept on its ``CheckpointInfo``, re-encoded when its
metadata extent moves) and the flight record's tenant SLO rows (after
a write to that tenant's state).  A flight record's event, span and
history-counter rows are fragments too, encoded when the record is
first read (once each, and a counter's again only at a new value).

The encoder dispatches on the exact ``type`` of a value; subclasses
(``IntEnum``, ``str`` enums, ``OrderedDict``, named tuples) take an
``isinstance`` fallback and encode as their base type.

**Encoding.**  A record kind's key set is a shape fixed once and
filled many times, so a dict is encoded from its shape
(:func:`_dict_shape`): its key tuple, in insertion order, compiled once
to the dict's header, its keys in sorted order and their encodings.
The cache is an LRU of :data:`_SHAPE_CACHE` key sets of at most
:data:`_SHAPE_KEYS` keys: record kinds need a few dozen, and a larger
dict is a table keyed by data (a migration stream's records keyed by
OID), met once, whose shape is compiled for the call and not kept.
Only a tuple of exact ``str`` keys has a shape; any other dict sorts
its keys on every call, as the format requires.  A dict's values and a list's
items of exact type are encoded inline, one call per container and not
per item (the mirror of the fast walk below): an int from the
small-int table or, below 2**64, as one header-and-word ``struct``
pack cut to its size; a short string through the memo; ``None`` and
``bool``; and a nested list's header.  Everything else (subclasses,
:class:`Encoded`, bytes, larger ints) dispatches through the table,
and a top-level int takes the same int path.

**Decoding.**  :func:`loads` checks the frame (magic, version, length,
CRC) and then walks the body once with no bounds checks
(:func:`_walk`): the body is padded so a header read cannot fall off
it, an int of up to eight bytes is read with its header in one
``struct`` call, and scalars are decoded inline in a dict, a list and a
list inside a list (one call per container, not per item).  A walk
that raises, or ends anywhere but at the body's end, hands the record
to the checked walk (:func:`_check`), which gives the exact verdict —
so the checked walk runs only on damaged bodies.  Both walks read a
typed column alike; a short one or a code past its values is damage.
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

from .errors import CorruptRecord

#: Format magic, bumped if the encoding ever changes incompatibly.
MAGIC = b"ATLV"
VERSION = 1

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_NEGINT = 0x04
_TAG_BYTES = 0x05
_TAG_STR = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08
_TAG_INTS = 0x09
_TAG_CODES = 0x0A

#: Tag byte + length/count of every variable-size value.
_HEAD = struct.Struct(">BQ")
_pack_head = _HEAD.pack
_unpack_head = _HEAD.unpack_from
#: Record frame: magic, version, CRC-32 of the body, body length.
_FRAME = struct.Struct(f">{len(MAGIC)}sBQQ")
_FRAME_SIZE = _FRAME.size
_unpack_frame = _FRAME.unpack_from

_NONE = bytes([_TAG_NONE])
_FALSE = bytes([_TAG_FALSE])
_TRUE = bytes([_TAG_TRUE])

#: Strings no longer than this are memoised (dict keys, record kinds,
#: event kinds, label values); longer ones are payload, encoded each time.
_MEMO_STR_CHARS = 64


class Encoded(bytes):
    """One value's TLV encoding, spliced verbatim wherever it appears
    in a document being encoded (where plain ``bytes`` would be
    encoded as a byte string).  The content must be what the encoder
    would have produced for the value — build it with :func:`fragment`
    or :func:`frame_list`, never by hand."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Encoded({len(self)} bytes)"


# -- encoding ---------------------------------------------------------------------------

_Encoder = Callable[[bytearray, Any], None]


def _encode_int_bytes(value: int) -> bytes:
    # Arbitrary precision: store magnitude as big-endian bytes.
    magnitude = abs(value)
    nbytes = (magnitude.bit_length() + 7) >> 3 or 1
    return (_pack_head(_TAG_INT if value >= 0 else _TAG_NEGINT, nbytes)
            + magnitude.to_bytes(nbytes, "big"))


#: Encodings of the ints that dominate records (counts, ids, flags).
_SMALL_INTS = tuple(_encode_int_bytes(i) for i in range(1024))
_SMALL_INT_LIMIT = len(_SMALL_INTS)
#: A header and an eight-byte word, packed as one: an int in
#: ``[_SMALL_INT_LIMIT, _WORD_LIMIT)`` is the word shifted to its top
#: ``size`` bytes, and its encoding the first ``_HEAD_SIZE + size``.
_WORD = struct.Struct(">BQQ")
_pack_word = _WORD.pack
_WORD_LIMIT = 1 << 64
#: The left shift that puts a ``size``-byte int at the top of a word.
_SHIFTS = tuple(64 - 8 * size for size in range(9))
_HEAD_SIZE = _HEAD.size


def _encode_str(value: str) -> bytes:
    payload = value.encode("utf-8")
    return _pack_head(_TAG_STR, len(payload)) + payload


_encode_short_str = lru_cache(maxsize=512)(_encode_str)


def _str_bytes(value: str) -> bytes:
    if len(value) <= _MEMO_STR_CHARS:
        return _encode_short_str(value)
    return _encode_str(value)


def _compile_shape(keys: Tuple[str, ...]
                   ) -> Tuple[bytes, Tuple[str, ...], Tuple[bytes, ...]]:
    """The header of a dict with ``keys`` (exact ``str``s, in insertion
    order), its keys in encoding order and their encodings — two flat
    tuples, not a pair per key, so a kept shape holds few objects the
    collector tracks."""
    order = tuple(sorted(keys))
    return (_pack_head(_TAG_DICT, len(keys)), order,
            tuple(map(_str_bytes, order)))


#: Shapes kept: record kinds need a few dozen, and key sets seen once
#: age out.
_SHAPE_CACHE = 256
#: A dict with more keys than this is a table keyed by data (a
#: migration stream's records keyed by OID), met once: its shape is compiled
#: for the call and not kept.
_SHAPE_KEYS = 32
_dict_shape = lru_cache(maxsize=_SHAPE_CACHE)(_compile_shape)


def _put_none(out: bytearray, value: None) -> None:
    out += _NONE


def _put_bool(out: bytearray, value: bool) -> None:
    out += _TRUE if value else _FALSE


def _put_int(out: bytearray, value: int) -> None:
    # The inline int path of :func:`_put_items` and :func:`_put_dict`.
    if 0 <= value < _SMALL_INT_LIMIT:
        out += _SMALL_INTS[value]
    elif 0 < value < _WORD_LIMIT:
        size = (value.bit_length() + 7) >> 3
        out += _pack_word(_TAG_INT, size,
                          value << _SHIFTS[size])[:_HEAD_SIZE + size]
    else:
        out += _encode_int_bytes(value)


def _put_bytes(out: bytearray, value: bytes) -> None:
    out += _pack_head(_TAG_BYTES, len(value))
    out += value


def _put_str_unmemoised(out: bytearray, value: str) -> None:
    # Long strings, and str subclasses (which may hash differently
    # from their text, so they stay out of the memo).
    out += _encode_str(value)


def _put_str(out: bytearray, value: str) -> None:
    out += _str_bytes(value)


def _put_list(out: bytearray, value: Sequence[Any]) -> None:
    out += _pack_head(_TAG_LIST, len(value))
    _put_items(out, value)


def _put_items(out: bytearray, value: Sequence[Any]) -> None:
    """A list's items, behind a header already written.  Scalars of
    exact type are encoded inline, and so is a nested list's header
    (the mirror of :func:`_walk`)."""
    for item in value:
        kind = type(item)
        if kind is int:
            if 0 <= item < _SMALL_INT_LIMIT:
                out += _SMALL_INTS[item]
            elif 0 < item < _WORD_LIMIT:
                size = (item.bit_length() + 7) >> 3
                out += _pack_word(_TAG_INT, size,
                                  item << _SHIFTS[size])[:_HEAD_SIZE + size]
            else:
                out += _encode_int_bytes(item)
        elif kind is str:
            if len(item) <= _MEMO_STR_CHARS:
                out += _encode_short_str(item)
            else:
                out += _encode_str(item)
        elif item is None:
            out += _NONE
        elif kind is bool:
            out += _TRUE if item else _FALSE
        elif kind is list or kind is tuple:
            out += _pack_head(_TAG_LIST, len(item))
            _put_items(out, item)
        elif kind is dict:
            _put_dict(out, item)
        else:
            (_ENCODERS.get(kind) or _fallback(item))(out, item)


def _put_dict(out: bytearray, value: Dict[Any, Any]) -> None:
    keys = tuple(value)
    for key in keys:
        if type(key) is not str:
            _put_dict_sorted(out, value)
            return
    head, order, encoded = (_dict_shape if len(keys) <= _SHAPE_KEYS
                            else _compile_shape)(keys)
    out += head
    at = 0
    for key in order:
        out += encoded[at]
        at += 1
        item = value[key]
        kind = type(item)
        if kind is int:
            if 0 <= item < _SMALL_INT_LIMIT:
                out += _SMALL_INTS[item]
            elif 0 < item < _WORD_LIMIT:
                size = (item.bit_length() + 7) >> 3
                out += _pack_word(_TAG_INT, size,
                                  item << _SHIFTS[size])[:_HEAD_SIZE + size]
            else:
                out += _encode_int_bytes(item)
        elif kind is str:
            if len(item) <= _MEMO_STR_CHARS:
                out += _encode_short_str(item)
            else:
                out += _encode_str(item)
        elif item is None:
            out += _NONE
        elif kind is bool:
            out += _TRUE if item else _FALSE
        elif kind is list or kind is tuple:
            out += _pack_head(_TAG_LIST, len(item))
            _put_items(out, item)
        elif kind is dict:
            _put_dict(out, item)
        else:
            (_ENCODERS.get(kind) or _fallback(item))(out, item)


def _put_dict_sorted(out: bytearray, value: Dict[Any, Any]) -> None:
    """A dict with a key that is not an exact ``str``: no shape, its
    keys sorted on every call."""
    out += _pack_head(_TAG_DICT, len(value))
    for key in sorted(value):
        if type(key) is str:
            _put_str(out, key)
        elif isinstance(key, str):
            _put_str_unmemoised(out, key)
        else:
            raise TypeError(f"dict keys must be str, got {type(key).__name__}")
        item = value[key]
        (_ENCODERS.get(type(item)) or _fallback(item))(out, item)


def _put_encoded(out: bytearray, value: Encoded) -> None:
    out += value


_ENCODERS: Dict[type, _Encoder] = {
    type(None): _put_none,
    bool: _put_bool,
    int: _put_int,
    bytes: _put_bytes,
    bytearray: _put_bytes,
    str: _put_str,
    list: _put_list,
    tuple: _put_list,
    dict: _put_dict,
    Encoded: _put_encoded,
}

#: Subclass resolution order (``bool`` never reaches it: it cannot be
#: subclassed and is dispatched exactly).
_FALLBACKS: Tuple[Tuple[Union[type, Tuple[type, ...]], _Encoder], ...] = (
    (int, _put_int), (Encoded, _put_encoded), ((bytes, bytearray), _put_bytes),
    (str, _put_str_unmemoised), ((list, tuple), _put_list), (dict, _put_dict))


def _fallback(value: Any) -> _Encoder:
    """The encoder for a value whose exact type is not in the table."""
    for base, encoder in _FALLBACKS:
        if isinstance(value, base):
            return encoder
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _encode(value: Any) -> bytearray:
    out = bytearray()
    (_ENCODERS.get(type(value)) or _fallback(value))(out, value)
    return out


def fragment(value: Any) -> Encoded:
    """Encode one value to a spliceable fragment.  The value must not
    change afterwards — the fragment will not notice."""
    return Encoded(_encode(value))


def frame_list(fragments: List[Encoded]) -> Encoded:
    """The fragment of the list whose items encoded to ``fragments``."""
    return Encoded(_pack_head(_TAG_LIST, len(fragments))
                   + b"".join(fragments))


#: A shorter column stays TLV: a type scan costs more than it saves.
COLUMN_MIN_ROWS = 4


def column(values: Sequence[Any]) -> Any:
    """``values`` as a document's table column: packed if all are exact
    ``int`` values in int64 range, coded if all are exact ``str``,
    ``bool`` or ``None`` and at most 256 distinct ones each recur twice
    on average, else ``values`` (a TLV list); it decodes as ``values``."""
    if len(values) < COLUMN_MIN_ROWS:
        return values
    kinds = set(map(type, values))
    if kinds == {int} and -1 << 63 <= min(values) and max(values) < 1 << 63:
        return Encoded(_pack_head(_TAG_INTS, len(values))
                       + struct.pack(f"<{len(values)}q", *values))
    if kinds <= {str, bool, type(None)}:
        codes = dict.fromkeys(values)
        if 2 * len(codes) <= len(values) and len(codes) <= 256:
            distinct = list(codes)
            codes.update(zip(distinct, range(len(distinct))))
            return Encoded(_pack_head(_TAG_CODES, len(values))
                           + _encode(distinct)
                           + bytes(map(codes.__getitem__, values)))
    return values


def dumps(value: Any) -> bytes:
    """Serialize ``value`` to a framed, checksummed byte record."""
    body = _encode(value)
    return _FRAME.pack(MAGIC, VERSION, zlib.crc32(body), len(body)) + body


# -- decoding ---------------------------------------------------------------------------

#: A header and the eight bytes after it, read as one: an int of at
#: most eight bytes is the top ``size`` bytes of that word (shifted
#: right by ``_SHIFTS[size]``).
_unpack_word = _WORD.unpack_from
#: The fixed-size values, indexed by their tag (every tag below
#: ``_TAG_INT``).
_CONSTANTS = (None, False, True)
#: Zeros behind every body the fast walk reads: it reads a header and
#: a word even for a one-byte value, so a body's last byte must not be
#: the last byte there is.
_PAD = bytes(_HEAD_SIZE + 7)
_from_bytes = int.from_bytes


def _walk(body: bytes, pos: int) -> Tuple[Any, int]:
    """Decode the value at ``body[pos]``; returns ``(value, next pos)``.

    The fast walk: no bounds checks, and no verdicts.  ``body`` is
    padded (:data:`_PAD`) and positions only grow, so a walk over a
    damaged body raises, ends past the real body, or both; the caller
    compares the final position with the body length and hands anything
    else to :func:`_check`.  Scalars are decoded inline: a dict's keys
    and values, a list's items and the items of a list inside a list
    (pairs, page runs, index runs).  Only deeper containers recurse."""
    tag, size, word = _unpack_word(body, pos)
    if tag < _TAG_INT:
        return _CONSTANTS[tag], pos + 1
    pos += _HEAD_SIZE
    if tag == _TAG_DICT:
        result: Dict[str, Any] = {}
        for _ in range(size):
            tag, size = _unpack_head(body, pos)
            if tag != _TAG_STR:
                raise CorruptRecord("dict key is not a string")
            pos += _HEAD_SIZE + size
            key = body[pos - size:pos].decode()
            tag, size, word = _unpack_word(body, pos)
            if tag == _TAG_INT and size <= 8:
                result[key] = word >> _SHIFTS[size]
                pos += _HEAD_SIZE + size
            elif tag == _TAG_STR:
                pos += _HEAD_SIZE + size
                result[key] = body[pos - size:pos].decode()
            elif tag < _TAG_INT:
                result[key] = _CONSTANTS[tag]
                pos += 1
            else:
                result[key], pos = _walk(body, pos)
        return result, pos
    if tag == _TAG_LIST:
        items: List[Any] = []
        append = items.append
        for _ in range(size):
            tag, size, word = _unpack_word(body, pos)
            if tag == _TAG_INT and size <= 8:
                append(word >> _SHIFTS[size])
                pos += _HEAD_SIZE + size
            elif tag == _TAG_LIST:
                pos += _HEAD_SIZE
                inner: List[Any] = []
                push = inner.append
                for _ in range(size):
                    tag, size, word = _unpack_word(body, pos)
                    if tag == _TAG_INT and size <= 8:
                        push(word >> _SHIFTS[size])
                        pos += _HEAD_SIZE + size
                    elif tag == _TAG_STR:
                        pos += _HEAD_SIZE + size
                        push(body[pos - size:pos].decode())
                    elif tag < _TAG_INT:
                        push(_CONSTANTS[tag])
                        pos += 1
                    else:
                        item, pos = _walk(body, pos)
                        push(item)
                append(inner)
            elif tag == _TAG_STR:
                pos += _HEAD_SIZE + size
                append(body[pos - size:pos].decode())
            elif tag < _TAG_INT:
                append(_CONSTANTS[tag])
                pos += 1
            else:
                item, pos = _walk(body, pos)
                append(item)
        return items, pos
    if tag == _TAG_INTS:
        return list(struct.unpack_from(f"<{size}q", body, pos)), pos + 8 * size
    if tag == _TAG_CODES:    # ``list.__getitem__`` rejects a non-list
        distinct, pos = _walk(body, pos)
        return list(map(list.__getitem__, repeat(distinct),
                        body[pos:pos + size])), pos + size
    stop = pos + size
    if tag == _TAG_INT:
        if size <= 8:
            return word >> _SHIFTS[size], stop
        return _from_bytes(body[pos:stop], "big"), stop
    if tag == _TAG_STR:
        return body[pos:stop].decode(), stop
    if tag == _TAG_BYTES:
        return body[pos:stop], stop
    if tag == _TAG_NEGINT:
        return -_from_bytes(body[pos:stop], "big"), stop
    raise CorruptRecord(f"unknown tag 0x{tag:02x}")


def _check(body: bytes, pos: int, end: int) -> Tuple[Any, int]:
    """The checked walk: decode the value at ``body[pos]`` with every
    read bounded by ``end``, raising the exact verdict on damage.  Run
    only when the fast walk fails, so it has no fast paths."""
    if pos >= end:
        raise CorruptRecord("record truncated")
    tag = body[pos]
    if tag < _TAG_INT:
        return _CONSTANTS[tag], pos + 1
    if tag > _TAG_CODES:
        raise CorruptRecord(f"unknown tag 0x{tag:02x}")
    pos += _HEAD_SIZE
    if pos > end:
        raise CorruptRecord("record truncated")
    size = _unpack_head(body, pos - _HEAD_SIZE)[1]
    if tag == _TAG_CODES:
        distinct, pos = _check(body, pos, end)
        if pos + size > end:
            raise CorruptRecord("record truncated")
        codes = body[pos:pos + size]
        if type(distinct) is not list or max(codes, default=-1) >= len(distinct):
            raise CorruptRecord("malformed coded column")
        return [distinct[code] for code in codes], pos + size
    if tag == _TAG_LIST:
        items: List[Any] = []
        for _ in range(size):
            item, pos = _check(body, pos, end)
            items.append(item)
        return items, pos
    if tag == _TAG_DICT:
        result: Dict[str, Any] = {}
        for _ in range(size):
            key, pos = _check(body, pos, end)
            if type(key) is not str:
                raise CorruptRecord("dict key is not a string")
            result[key], pos = _check(body, pos, end)
        return result, pos
    stop = pos + (8 * size if tag == _TAG_INTS else size)
    if stop > end:
        raise CorruptRecord("record truncated")
    if tag == _TAG_STR:
        return body[pos:stop].decode("utf-8"), stop
    if tag == _TAG_BYTES:
        return body[pos:stop], stop
    if tag == _TAG_INTS:
        return _walk(body, pos - _HEAD_SIZE)
    magnitude = _from_bytes(body[pos:stop], "big")
    return (magnitude if tag == _TAG_INT else -magnitude), stop


def loads(data: bytes) -> Any:
    """Decode a record produced by :func:`dumps`.

    Raises :class:`~repro.errors.CorruptRecord` on any malformed input,
    including checksum mismatches — the object store relies on this to
    detect torn writes after a simulated crash.
    """
    try:
        magic, version, checksum, end = _unpack_frame(data)
    except struct.error:
        raise CorruptRecord("record shorter than header") from None
    if magic != MAGIC:
        raise CorruptRecord("bad magic")
    if version != VERSION:
        raise CorruptRecord(f"unsupported version {version}")
    body = data[_FRAME_SIZE:_FRAME_SIZE + end]
    if type(body) is not bytes:
        body = bytes(body)
    if len(body) != end:
        raise CorruptRecord("record truncated")
    if zlib.crc32(body) != checksum:
        raise CorruptRecord("checksum mismatch")
    body += _PAD
    try:
        value, pos = _walk(body, 0)
        if pos == end:
            return value
    except Exception:
        # Whatever a damaged body makes the fast walk raise (a short
        # read, a size past any index, bad UTF-8), the verdict is the
        # checked walk's.
        pass
    value, pos = _check(body, 0, end)
    if pos != end:
        raise CorruptRecord("trailing bytes after value")
    return value
