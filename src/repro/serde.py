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
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache
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

#: Tag byte + length/count of every variable-size value.
_HEAD = struct.Struct(">BQ")
_pack_head = _HEAD.pack
_unpack_head = _HEAD.unpack_from
#: Record frame: magic, version, CRC-32 of the body, body length.
_FRAME = struct.Struct(f">{len(MAGIC)}sBQQ")

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


@lru_cache(maxsize=512)
def _encode_short_str(value: str) -> bytes:
    payload = value.encode("utf-8")
    return _pack_head(_TAG_STR, len(payload)) + payload


def _put_none(out: bytearray, value: None) -> None:
    out += _NONE


def _put_bool(out: bytearray, value: bool) -> None:
    out += _TRUE if value else _FALSE


def _put_int(out: bytearray, value: int) -> None:
    if 0 <= value < _SMALL_INT_LIMIT:
        out += _SMALL_INTS[value]
    else:
        out += _encode_int_bytes(value)


def _put_bytes(out: bytearray, value: bytes) -> None:
    out += _pack_head(_TAG_BYTES, len(value))
    out += value


def _put_str_unmemoised(out: bytearray, value: str) -> None:
    # Long strings, and str subclasses (which may hash differently
    # from their text, so they stay out of the memo).
    payload = value.encode("utf-8")
    out += _pack_head(_TAG_STR, len(payload))
    out += payload


def _put_str(out: bytearray, value: str) -> None:
    if len(value) <= _MEMO_STR_CHARS:
        out += _encode_short_str(value)
    else:
        _put_str_unmemoised(out, value)


def _put_list(out: bytearray, value: Sequence[Any]) -> None:
    out += _pack_head(_TAG_LIST, len(value))
    lookup = _ENCODERS.get
    for item in value:
        (lookup(type(item)) or _fallback(item))(out, item)


def _put_dict(out: bytearray, value: Dict[Any, Any]) -> None:
    out += _pack_head(_TAG_DICT, len(value))
    lookup = _ENCODERS.get
    for key in sorted(value):
        if type(key) is str:
            _put_str(out, key)
        elif isinstance(key, str):
            _put_str_unmemoised(out, key)
        else:
            raise TypeError(f"dict keys must be str, got {type(key).__name__}")
        item = value[key]
        (lookup(type(item)) or _fallback(item))(out, item)


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


def dumps(value: Any) -> bytes:
    """Serialize ``value`` to a framed, checksummed byte record."""
    body = _encode(value)
    return _FRAME.pack(MAGIC, VERSION, zlib.crc32(body), len(body)) + body


# -- decoding ---------------------------------------------------------------------------

_HEAD_SIZE = _HEAD.size
#: The fixed-size values, indexed by their tag (every tag below
#: ``_TAG_INT``).
_CONSTANTS = (None, False, True)


def _decode(body: bytes, pos: int, end: int) -> Tuple[Any, int]:
    """Decode the value at ``body[pos]``; returns ``(value, next pos)``.

    A container decodes its well-formed scalar items (and a dict its
    string keys) in its own loop, the same steps as below, and recurses
    only into containers.  Every other item, damaged ones included,
    takes the generic path, so each verdict and message comes from one
    place."""
    if pos >= end:
        raise CorruptRecord("record truncated")
    tag = body[pos]
    if tag < _TAG_INT:
        return _CONSTANTS[tag], pos + 1
    if tag > _TAG_DICT:
        raise CorruptRecord(f"unknown tag 0x{tag:02x}")
    start = pos + _HEAD_SIZE
    if start > end:
        raise CorruptRecord("record truncated")
    size = _unpack_head(body, pos)[1]
    # In both loops ``stop`` is past ``end`` unless the item is a scalar
    # whose header and payload lie in bounds.
    if tag == _TAG_LIST:
        items: List[Any] = []
        append = items.append
        pos = start
        for _ in range(size):
            tag = body[pos] if pos < end else _TAG_LIST
            if tag < _TAG_INT:
                append(_CONSTANTS[tag])
                pos += 1
                continue
            start = pos + _HEAD_SIZE
            stop = (start + _unpack_head(body, pos)[1]
                    if tag < _TAG_LIST and start <= end else end + 1)
            if stop > end:
                item, pos = _decode(body, pos, end)
                append(item)
                continue
            if tag == _TAG_STR:
                append(body[start:stop].decode("utf-8"))
            elif tag == _TAG_INT:
                append(int.from_bytes(body[start:stop], "big"))
            elif tag == _TAG_BYTES:
                append(body[start:stop])
            else:
                append(-int.from_bytes(body[start:stop], "big"))
            pos = stop
        return items, pos
    if tag == _TAG_DICT:
        result: Dict[str, Any] = {}
        pos = start
        for _ in range(size):
            start = pos + _HEAD_SIZE
            stop = (start + _unpack_head(body, pos)[1]
                    if start <= end and body[pos] == _TAG_STR else end + 1)
            if stop > end:
                key, pos = _decode(body, pos, end)
                if type(key) is not str:
                    raise CorruptRecord("dict key is not a string")
            else:
                key = body[start:stop].decode("utf-8")
                pos = stop
            tag = body[pos] if pos < end else _TAG_LIST
            if tag < _TAG_INT:
                result[key] = _CONSTANTS[tag]
                pos += 1
                continue
            start = pos + _HEAD_SIZE
            stop = (start + _unpack_head(body, pos)[1]
                    if tag < _TAG_LIST and start <= end else end + 1)
            if stop > end:
                result[key], pos = _decode(body, pos, end)
                continue
            if tag == _TAG_STR:
                result[key] = body[start:stop].decode("utf-8")
            elif tag == _TAG_INT:
                result[key] = int.from_bytes(body[start:stop], "big")
            elif tag == _TAG_BYTES:
                result[key] = body[start:stop]
            else:
                result[key] = -int.from_bytes(body[start:stop], "big")
            pos = stop
        return result, pos
    stop = start + size
    if stop > end:
        raise CorruptRecord("record truncated")
    if tag == _TAG_STR:
        return body[start:stop].decode("utf-8"), stop
    if tag == _TAG_BYTES:
        return body[start:stop], stop
    magnitude = int.from_bytes(body[start:stop], "big")
    return (magnitude if tag == _TAG_INT else -magnitude), stop


def loads(data: bytes) -> Any:
    """Decode a record produced by :func:`dumps`.

    Raises :class:`~repro.errors.CorruptRecord` on any malformed input,
    including checksum mismatches — the object store relies on this to
    detect torn writes after a simulated crash.
    """
    if len(data) < _FRAME.size:
        raise CorruptRecord("record shorter than header")
    magic, version, checksum, body_len = _FRAME.unpack_from(data)
    if magic != MAGIC:
        raise CorruptRecord("bad magic")
    if version != VERSION:
        raise CorruptRecord(f"unsupported version {version}")
    body = bytes(data[_FRAME.size:_FRAME.size + body_len])
    if len(body) != body_len:
        raise CorruptRecord("record truncated")
    if zlib.crc32(body) != checksum:
        raise CorruptRecord("checksum mismatch")
    value, pos = _decode(body, 0, body_len)
    if pos != body_len:
        raise CorruptRecord("trailing bytes after value")
    return value
