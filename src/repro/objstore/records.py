"""On-disk record envelopes.

Every record the store writes is a :mod:`repro.serde` document wrapped
in a small typed envelope, so recovery can sanity-check what it reads
before trusting it.

Kernel objects are written as relations: a record extent holds one
``object-batch`` document, one table per record shape — ``[otype,
keys, oids, columns]`` for each distinct ``otype`` and state key tuple,
in first-seen order, with one column per key, typed where it can be
(:func:`serde.column`).  The batch's frame CRC covers every row; a row
carries no envelope of its own.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Container, Dict, List, Optional, Sequence, Tuple

from .. import serde
from ..errors import CorruptRecord

REC_SUPERBLOCK = "superblock"
REC_CATALOG = "catalog"
REC_CKPT_META = "ckpt-meta"
REC_OBJECT_BATCH = "object-batch"
REC_JOURNAL = "journal"
REC_SWAP = "swap"
REC_FLIGHTREC = "flightrec"

_KINDS = (REC_SUPERBLOCK, REC_CATALOG, REC_CKPT_META, REC_OBJECT_BATCH,
          REC_JOURNAL, REC_SWAP, REC_FLIGHTREC)

#: One staged kernel object: ``(oid, otype, state)``, the state a dict.
Object = Tuple[int, str, Dict[str, Any]]


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


def encode_objects(objects: Sequence[Object]) -> bytes:
    """One record extent's payload: the objects as one table per
    ``(otype, key tuple)``, each state's values in its table's columns."""
    tables: Dict[Tuple[str, Tuple[str, ...]], List[Any]] = {}
    for oid, otype, state in objects:
        keys = tuple(state)
        table = tables.get((otype, keys))
        if table is None:
            table = tables[otype, keys] = [otype, keys, [],
                                           [[] for _key in keys]]
        table[2].append(oid)
        for column, value in zip(table[3], state.values()):
            column.append(value)
    body = list(tables.values())
    for table in body:
        if len(table[2]) >= serde.COLUMN_MIN_ROWS:
            table[2] = serde.column(table[2])
            table[3] = list(map(serde.column, table[3]))
    return encode(REC_OBJECT_BATCH, body)


def decode_objects(data: bytes, wanted: Optional[Container[int]] = None
                   ) -> List[Object]:
    """Every ``(oid, otype, state)`` in a record extent, table by
    table; with ``wanted``, only the rows of those OIDs."""
    found: List[Object] = []
    try:
        for otype, keys, oids, columns in decode(data, REC_OBJECT_BATCH):
            if len({len(oids), *map(len, columns)}) > 1 or \
                    len(columns) != len(keys):
                raise CorruptRecord(f"{otype!r} columns differ in length")
            rows = zip(*columns) if keys else repeat(())
            found += [(oid, otype, dict(zip(keys, row)))
                      for oid, row in zip(oids, rows)
                      if wanted is None or oid in wanted]
    except (TypeError, ValueError):
        raise CorruptRecord("malformed object table") from None
    return found
