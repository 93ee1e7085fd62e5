"""On-disk record envelopes.

Every object record and checkpoint metadata blob the store writes is a
:mod:`repro.serde` document wrapped in a small typed envelope, so
recovery can sanity-check what it reads before trusting it.
"""

from __future__ import annotations

from typing import Any, Container, List, Optional, Sequence, Tuple

from .. import serde
from ..errors import CorruptRecord

REC_SUPERBLOCK = "superblock"
REC_CATALOG = "catalog"
REC_CKPT_META = "ckpt-meta"
REC_OBJECT = "object"
REC_OBJECT_BATCH = "object-batch"
REC_JOURNAL = "journal"
REC_SWAP = "swap"
REC_FLIGHTREC = "flightrec"

_KINDS = (REC_SUPERBLOCK, REC_CATALOG, REC_CKPT_META, REC_OBJECT,
          REC_OBJECT_BATCH, REC_JOURNAL, REC_SWAP, REC_FLIGHTREC)


def encode(kind: str, body: Any) -> bytes:
    """Wrap a body in a typed, checksummed envelope."""
    if kind not in _KINDS:
        raise CorruptRecord(f"unknown record kind {kind!r}")
    return serde.dumps({"kind": kind, "body": body})


def decode(data: bytes, expect: str) -> Any:
    """Unwrap an envelope, checking the expected kind."""
    document = serde.loads(data)
    if not isinstance(document, dict) or "kind" not in document:
        raise CorruptRecord("record missing envelope")
    if document["kind"] != expect:
        raise CorruptRecord(
            f"expected {expect!r} record, found {document['kind']!r}")
    return document["body"]


def encode_object(oid: int, otype: str, state: Any) -> bytes:
    """Envelope for one serialized kernel object."""
    return encode(REC_OBJECT, {"oid": oid, "otype": otype, "state": state})


def decode_object(data: bytes) -> Tuple[int, str, Any]:
    """(oid, otype, state) from an object record."""
    body = decode(data, REC_OBJECT)
    return body["oid"], body["otype"], body["state"]


def encode_objects(encoded_records: Sequence[bytes]) -> bytes:
    """Batch envelope wrapping pre-encoded object records.

    A checkpoint stages its records into one extent per batch instead
    of one per object; the inner payloads are the unchanged per-object
    envelopes, so the batch amortizes extent allocation and write
    submission without a second serialization format.
    """
    return encode(REC_OBJECT_BATCH, {"records": list(encoded_records)})


#: Frame header bytes in front of every record's body.
_HEADER = len(serde.dumps(None)) - len(serde.fragment(None))
_SAMPLE = serde.fragment({"body": {"oid": 0, "otype": "", "state": None},
                          "kind": REC_OBJECT})
#: An object record's body up to and including its OID's int tag: keys
#: are encoded sorted, so ``body`` comes first and ``oid`` first in it.
_OID_PREFIX = _SAMPLE[:_SAMPLE.index(serde.fragment(0)) + 1]
#: Where the OID's 8-byte length field starts.
_OID_AT = _HEADER + len(_OID_PREFIX)


def _record_oid(data: Any) -> Optional[int]:
    """The OID an encoded object record names, read off its constant
    prefix without decoding or checksumming it; None when the record
    does not start with that prefix."""
    if type(data) is not bytes or not data.startswith(_OID_PREFIX, _HEADER):
        return None
    start = _OID_AT + 8
    stop = start + int.from_bytes(data[_OID_AT:start], "big")
    if stop > len(data):
        return None
    return int.from_bytes(data[start:stop], "big")


def decode_objects(data: bytes, wanted: Optional[Container[int]] = None
                   ) -> List[Tuple[int, str, Any]]:
    """Every ``(oid, otype, state)`` in a record extent.

    Accepts both a single-object envelope (legacy extents, single-
    record checkpoints) and a batch envelope.  With ``wanted``, a
    batch's records whose prefix names another OID are skipped
    undecoded (the batch's own checksum still covers them); a record
    whose prefix does not match is decoded in full.
    """
    document = serde.loads(data)
    if not isinstance(document, dict) or "kind" not in document:
        raise CorruptRecord("record missing envelope")
    if document["kind"] == REC_OBJECT:
        body = document["body"]
        return [(body["oid"], body["otype"], body["state"])]
    if document["kind"] != REC_OBJECT_BATCH:
        raise CorruptRecord(
            f"expected object record(s), found {document['kind']!r}")
    items = document["body"]["records"]
    if wanted is not None:
        items = [item for item in items
                 if (oid := _record_oid(item)) is None or oid in wanted]
    return [decode_object(item) for item in items]
