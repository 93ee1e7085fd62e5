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


#: An object record's envelope, constant but for its three fields.
_OBJECT = serde.Shape({"kind": REC_OBJECT, "body": {
    "oid": serde.HOLE, "otype": serde.HOLE, "state": serde.HOLE}})


def decode_object(data: bytes) -> Tuple[int, str, Any]:
    """(oid, otype, state) from an object record: read off its
    constant envelope, or decoded in full when it has another."""
    fields = _OBJECT.read(data)
    if fields is None:
        return _fields(decode(data, REC_OBJECT))
    oid, otype, state = fields
    return oid, otype, state


def _fields(body: Any) -> Tuple[int, str, Any]:
    return body["oid"], body["otype"], body["state"]


def encode_objects(encoded_records: Sequence[bytes]) -> bytes:
    """Batch envelope wrapping pre-encoded object records.

    A checkpoint stages its records into one extent per batch instead
    of one per object; the inner payloads are the unchanged per-object
    envelopes, so the batch amortizes extent allocation and write
    submission without a second serialization format.
    """
    return encode(REC_OBJECT_BATCH, {"records": list(encoded_records)})


def decode_objects(data: bytes, wanted: Optional[Container[int]] = None
                   ) -> List[Tuple[int, str, Any]]:
    """Every ``(oid, otype, state)`` in a record extent.

    Accepts both a single-object envelope (legacy extents, single-
    record checkpoints) and a batch envelope.  With ``wanted``, a
    batch's records whose envelope names another OID are skipped with
    their state never walked (their checksums still checked); a record
    with another envelope is decoded in full.
    """
    document = serde.loads(data)
    if not isinstance(document, dict) or "kind" not in document:
        raise CorruptRecord("record missing envelope")
    if document["kind"] == REC_OBJECT:
        return [_fields(document["body"])]
    if document["kind"] != REC_OBJECT_BATCH:
        raise CorruptRecord(
            f"expected object record(s), found {document['kind']!r}")
    found: List[Tuple[int, str, Any]] = []
    for item in document["body"]["records"]:
        fields = _OBJECT.read(item, wanted)
        if fields is None:
            found.append(_fields(decode(item, REC_OBJECT)))
        elif fields:
            oid, otype, state = fields
            found.append((oid, otype, state))
    return found
