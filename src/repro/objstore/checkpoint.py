"""Checkpoint metadata structures.

A checkpoint is a *delta*: the object records and page locators
modified since its parent.  The merged (restorable) view of an
application at checkpoint N is the newest-wins union of deltas along
the parent chain — walked by :meth:`ObjectStore.merged_view` at
restore time, exactly like reading a WAFL/ZFS snapshot through its
block-sharing ancestry.

The on-disk metadata document (:meth:`CheckpointInfo.encode_meta`) has
one format and one decoder.  Its three large maps are all columnar:
page locators as runs (:func:`encode_page_runs`), the live set as
``[start, count, step]`` OID runs, and the record index grouped by
extent with the same OID runs (:func:`encode_record_index`) — so a
delta's metadata, and the child-metadata rewrite GC does after
adopting a deleted parent's state, cost O(extents + runs), not
O(objects).  In memory every map stays per-OID / per-page.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.runs import build_arith_runs, expand_arith_runs
from ..errors import CorruptRecord


class PageLocator:
    """Where one page's checkpointed content lives.

    Synthetic pages are ``("syn", seed)`` — their content is a pure
    function of the seed; the bytes were still charged to the device.
    Real pages are ``("ext", extent_offset, byte_offset, length)``
    inside a packed data extent.
    """

    __slots__ = ("kind", "seed", "extent", "byte_off", "length")

    def __init__(self, kind: str, seed: int = 0, extent: int = 0,
                 byte_off: int = 0, length: int = 0) -> None:
        self.kind = kind
        self.seed = seed
        self.extent = extent
        self.byte_off = byte_off
        self.length = length

    @classmethod
    def synthetic(cls, seed: int) -> "PageLocator":
        """Locator for a synthetic page (content = f(seed))."""
        return cls("syn", seed=seed)

    @classmethod
    def in_extent(cls, extent: int, byte_off: int, length: int) -> "PageLocator":
        """Locator for real bytes inside a packed data extent."""
        return cls("ext", extent=extent, byte_off=byte_off, length=length)

    def encode(self) -> list:
        """Wire form of the locator."""
        if self.kind == "syn":
            return ["syn", self.seed]
        return ["ext", self.extent, self.byte_off, self.length]


def encode_page_runs(page_map: Dict[int, "PageLocator"]) -> List[list]:
    """Run-compress a page-locator map for the metadata record.

    Adjacent pages whose locators follow an arithmetic pattern —
    synthetic seeds stepping by a constant, or consecutive slots of
    one packed extent — collapse into single run entries::

        ["syn", start_pindex, count, seed0, seed_step]
        ["ext", start_pindex, count, extent, byte_off0, page_len]

    so a million-page checkpoint's metadata document holds a handful
    of runs instead of a million per-page entries.
    """
    entries: List[list] = []
    for pindex in sorted(page_map):
        loc = page_map[pindex]
        last = entries[-1] if entries else None
        if loc.kind == "syn":
            if (last is not None and last[0] == "syn"
                    and last[1] + last[2] == pindex):
                if last[2] == 1:
                    # Second element pins the run's seed step.
                    last[4] = loc.seed - last[3]
                    last[2] = 2
                    continue
                if loc.seed == last[3] + last[4] * last[2]:
                    last[2] += 1
                    continue
            entries.append(["syn", pindex, 1, loc.seed, 0])
        else:
            if (last is not None and last[0] == "ext"
                    and last[1] + last[2] == pindex
                    and last[3] == loc.extent
                    and last[5] == loc.length
                    and last[4] + last[5] * last[2] == loc.byte_off):
                last[2] += 1
                continue
            entries.append(["ext", pindex, 1, loc.extent,
                            loc.byte_off, loc.length])
    return entries


def decode_page_runs(raw: List[list]) -> Dict[int, "PageLocator"]:
    """Expand run entries back to the per-page locator map.

    The in-memory representation stays per-page — every consumer
    (restore, GC, scrub, replication) is unchanged; only the wire
    format is columnar.
    """
    page_map: Dict[int, PageLocator] = {}
    for entry in raw:
        if not entry:
            raise CorruptRecord("empty page run entry")
        if entry[0] == "syn":
            _kind, start, count, seed0, step = entry
            for i in range(count):
                page_map[start + i] = PageLocator.synthetic(seed0 + step * i)
        elif entry[0] == "ext":
            _kind, start, count, extent, byte_off0, length = entry
            for i in range(count):
                page_map[start + i] = PageLocator.in_extent(
                    extent, byte_off0 + length * i, length)
        else:
            raise CorruptRecord(f"bad page run kind {entry[0]!r}")
    return page_map


def encode_record_index(object_records: Dict[int, Tuple[int, int]]
                        ) -> List[list]:
    """Group an OID → record-extent map by extent for the metadata record.

    Batched staging puts up to 256 records in one extent, and OIDs are
    allocated from one cursor with the class tag in the high bits, so
    an extent's OIDs are a few arithmetic progressions.  Each entry is
    ``[offset, length, [[start, count, step], …]]``: the document costs
    O(extents + runs) instead of repeating one ``(offset, length)``
    pair per object.
    """
    by_extent: Dict[Tuple[int, int], List[int]] = {}
    for oid, extent in object_records.items():
        by_extent.setdefault(extent, []).append(oid)
    return [[offset, length, build_arith_runs(oids)]
            for (offset, length), oids in by_extent.items()]


def decode_record_index(raw: List[list]) -> Dict[int, Tuple[int, int]]:
    """Expand record-index entries back to the per-OID map (every OID
    of an extent shares one ``(offset, length)`` tuple)."""
    object_records: Dict[int, Tuple[int, int]] = {}
    for offset, length, runs in raw:
        object_records.update(
            dict.fromkeys(expand_arith_runs(runs), (offset, length)))
    return object_records


class CheckpointInfo:
    """In-memory (and, encoded, on-disk) description of one checkpoint."""

    def __init__(self, ckpt_id: int, group_id: int, name: str = "",
                 parent: Optional[int] = None, time_ns: int = 0,
                 partial: bool = False) -> None:
        self.ckpt_id = ckpt_id
        self.group_id = group_id
        self.name = name
        self.parent = parent
        self.time_ns = time_ns
        #: Partial checkpoints (sls_memckpt) hold one region and are
        #: composed on top of a full checkpoint at restore (§7).
        self.partial = partial
        self.complete = False
        #: oid -> (offset, length) of the extent holding its serialized
        #: record; the OIDs of one batch extent share one tuple.
        self.object_records: Dict[int, Tuple[int, int]] = {}
        #: oid -> {pindex -> PageLocator} for pages dirtied here.
        self.pages: Dict[int, Dict[int, PageLocator]] = {}
        #: Every extent this checkpoint's delta owns: (offset, length).
        self.owned_extents: List[Tuple[int, int]] = []
        #: Byte count of page data this checkpoint wrote.
        self.data_bytes = 0
        #: Extent of this checkpoint's own metadata record.
        self.meta_extent: Optional[Tuple[int, int]] = None
        #: Every OID the serializer *walked* at checkpoint time —
        #: distinguishes "unchanged" (live but not re-written here)
        #: from "deleted" (absent).  None for checkpoints made before
        #: liveness tracking and for partial (memckpt) deltas, which
        #: restores treat as "everything in the chain is live".
        self.live_oids: Optional[Set[int]] = None
        #: Records the serializer skipped as unchanged (telemetry).
        self.records_skipped = 0

    # -- on-disk encoding ---------------------------------------------------------

    def encode_meta(self) -> Dict[str, Any]:
        """The checkpoint's on-disk metadata document."""
        # OIDs are allocated from one cursor with the class tag in the
        # high bits, so each class's live OIDs form short arithmetic
        # progressions; the live set — easily the largest part of a
        # steady-state delta's metadata — compresses to a handful of
        # [start, count, step] runs.
        return {
            "live_oid_runs": (build_arith_runs(self.live_oids)
                              if self.live_oids is not None else None),
            "records_skipped": self.records_skipped,
            "ckpt_id": self.ckpt_id,
            "group_id": self.group_id,
            "name": self.name,
            "parent": self.parent,
            "time_ns": self.time_ns,
            "partial": self.partial,
            "object_records": encode_record_index(self.object_records),
            "pages": {str(oid): encode_page_runs(page_map)
                      for oid, page_map in self.pages.items()},
            "owned_extents": [[off, length]
                              for off, length in self.owned_extents],
            "data_bytes": self.data_bytes,
        }

    @classmethod
    def decode_meta(cls, raw: dict) -> "CheckpointInfo":
        """Rebuild checkpoint metadata from its document."""
        info = cls(raw["ckpt_id"], raw["group_id"], raw["name"],
                   raw["parent"], raw["time_ns"], raw["partial"])
        info.object_records = decode_record_index(raw["object_records"])
        info.pages = {int(oid): decode_page_runs(page_map)
                      for oid, page_map in raw["pages"].items()}
        info.owned_extents = [(pair[0], pair[1])
                              for pair in raw["owned_extents"]]
        info.data_bytes = raw["data_bytes"]
        live_runs = raw["live_oid_runs"]
        if live_runs is not None:
            info.live_oids = set(expand_arith_runs(live_runs))
        info.records_skipped = raw["records_skipped"]
        return info

    def __repr__(self) -> str:
        flag = "partial " if self.partial else ""
        done = "complete" if self.complete else "incomplete"
        return (f"Checkpoint({flag}id={self.ckpt_id}, group={self.group_id}, "
                f"{len(self.object_records)} objs, {done})")
