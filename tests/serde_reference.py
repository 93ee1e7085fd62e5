"""Reference model of the :mod:`repro.serde` wire format.

The straightforward encoder and decoder the production ones must agree
with byte for byte: an ``isinstance`` chain, one ``to_bytes`` per
length, a slice per field.  Slow, obviously right, and used only as the
oracle of ``tests/test_serde.py`` — nothing under ``src/`` imports it.
"""

import zlib

from repro.errors import CorruptRecord

MAGIC, VERSION = b"ATLV", 1
NONE, FALSE, TRUE, INT, NEGINT, BYTES, STR, LIST, DICT = range(9)


def _var(tag, payload):
    return bytes([tag]) + len(payload).to_bytes(8, "big") + payload


def ref_encode(value):
    """The TLV body of ``value`` (no frame)."""
    if value is None:
        return bytes([NONE])
    if value is True or value is False:
        return bytes([TRUE if value else FALSE])
    if isinstance(value, int):
        size = max(1, (abs(value).bit_length() + 7) // 8)
        return _var(INT if value >= 0 else NEGINT,
                    abs(value).to_bytes(size, "big"))
    if isinstance(value, (bytes, bytearray)):
        return _var(BYTES, bytes(value))
    if isinstance(value, str):
        return _var(STR, value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return (bytes([LIST]) + len(value).to_bytes(8, "big")
                + b"".join(ref_encode(item) for item in value))
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("dict keys must be str")
        return (bytes([DICT]) + len(value).to_bytes(8, "big")
                + b"".join(ref_encode(key) + ref_encode(value[key])
                           for key in sorted(value)))
    raise TypeError(f"cannot serialize {type(value).__name__}")


def frame(body):
    """A record around an already-encoded body."""
    return (MAGIC + bytes([VERSION]) + zlib.crc32(body).to_bytes(8, "big")
            + len(body).to_bytes(8, "big") + body)


def ref_dumps(value):
    return frame(ref_encode(value))


class _Reader:
    def __init__(self, data):
        self.data, self.offset = data, 0

    def take(self, count):
        chunk = self.data[self.offset:self.offset + count]
        if len(chunk) != count:
            raise CorruptRecord("record truncated")
        self.offset += count
        return chunk

    def value(self):
        tag = self.take(1)[0]
        if tag in (NONE, FALSE, TRUE):
            return {NONE: None, FALSE: False, TRUE: True}[tag]
        if tag > DICT:
            raise CorruptRecord(f"unknown tag 0x{tag:02x}")
        size = int.from_bytes(self.take(8), "big")
        if tag == LIST:
            return [self.value() for _ in range(size)]
        if tag == DICT:
            out = {}
            for _ in range(size):
                key = self.value()
                if not isinstance(key, str):
                    raise CorruptRecord("dict key is not a string")
                out[key] = self.value()
            return out
        payload = self.take(size)
        if tag == STR:
            return payload.decode("utf-8")
        if tag == BYTES:
            return payload
        magnitude = int.from_bytes(payload, "big")
        return magnitude if tag == INT else -magnitude


def ref_loads(data):
    if len(data) < 21:
        raise CorruptRecord("record shorter than header")
    if data[:4] != MAGIC:
        raise CorruptRecord("bad magic")
    if data[4] != VERSION:
        raise CorruptRecord(f"unsupported version {data[4]}")
    checksum = int.from_bytes(data[5:13], "big")
    size = int.from_bytes(data[13:21], "big")
    body = bytes(data[21:21 + size])
    if len(body) != size:
        raise CorruptRecord("record truncated")
    if zlib.crc32(body) != checksum:
        raise CorruptRecord("checksum mismatch")
    reader = _Reader(body)
    value = reader.value()
    if reader.offset != len(body):
        raise CorruptRecord("trailing bytes after value")
    return value
