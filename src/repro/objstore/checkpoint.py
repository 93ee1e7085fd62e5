"""Checkpoint metadata structures.

A checkpoint is a *delta*: the object records and page locators
modified since its parent.  The merged (restorable) view of an
application at checkpoint N is the newest-wins union of deltas along
the parent chain — walked by :meth:`ObjectStore.merged_view` at
restore time, exactly like reading a WAFL/ZFS snapshot through its
block-sharing ancestry.

The on-disk metadata document (:meth:`CheckpointInfo.encode_meta`) has
one format and one decoder.  Its three large maps are all columnar:
page locators as runs (:class:`PageRuns`), the live set as
``[start, count, step]`` OID runs, and the record index grouped by
extent with the same OID runs (:func:`encode_record_index`) — so a
delta's metadata, and the child-metadata rewrite GC does after
adopting a deleted parent's state, cost O(extents + runs), not
O(objects).  The page-locator table stays columnar in memory too: a
:class:`PageRuns` is the decoded run list plus a start column, and
mount, :meth:`ObjectStore.merged_view`, GC adoption and eager restore
work on runs, never on one locator per page.  The live set and the
record index are per-OID in memory; a live set that did not change is
one set object shared down the chain, its OID runs computed once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.runs import (LocatorRun, append_locator_run, build_arith_runs,
                         clip_run, count_changed_pages, expand_arith_runs,
                         uncovered_runs)
from ..errors import CorruptRecord

_RUN_ARITY = {"syn": 5, "ext": 6}
_run_start = itemgetter(1)


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


def run_locators(run: Sequence[Any]) -> Iterator[Tuple[int, PageLocator]]:
    """``(pindex, locator)`` for each page of one locator run."""
    start, count = run[1], run[2]
    if run[0] == "syn":
        seed0, step = run[3], run[4]
        for i in range(count):
            yield start + i, PageLocator("syn", seed0 + step * i)
    else:
        extent, off0, length = run[3], run[4], run[5]
        for i in range(count):
            yield start + i, PageLocator("ext", 0, extent, off0 + length * i,
                                         length)


class PageRuns:
    """One object's page-locator table, kept as runs.

    The in-memory shape *is* the wire shape: ``runs`` is the list of
    ``("syn", start, count, seed0, seed_step)`` /
    ``("ext", start, count, extent, byte_off0, page_len)`` sequences
    (see :mod:`repro.core.runs`) — the very list a metadata document
    decoded to, or the commit path built — sorted by ``start``,
    pairwise disjoint, every ``count`` ≥ 1; ``starts`` is the
    bisectable start column.  The table takes the list over and nobody
    mutates it or its runs afterwards, so deltas, merged views and GC
    adopters share runs freely.  Every operation costs O(runs) or
    better; only :meth:`items` is per page.
    """

    __slots__ = ("runs", "_starts")

    def __init__(self, runs: Optional[List[LocatorRun]] = None) -> None:
        self.runs: List[LocatorRun] = [] if runs is None else runs
        self._starts: Optional[List[int]] = None

    @property
    def starts(self) -> List[int]:
        """The start column, built at the first bisect: most deltas
        are only ever encoded, or overlaid *under* a newer table."""
        if self._starts is None:
            self._starts = [run[1] for run in self.runs]
        return self._starts

    def __len__(self) -> int:
        """Pages described."""
        return sum(run[2] for run in self.runs)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PageRuns):
            return NotImplemented
        return self.encode() == other.encode()

    def __repr__(self) -> str:
        return f"PageRuns({len(self.runs)} runs, {len(self)} pages)"

    def lookup(self, pindex: int) -> Optional[PageLocator]:
        """The locator of page ``pindex`` (None when not described)."""
        page = self.slice(pindex, pindex + 1).items()
        return next((locator for _pindex, locator in page), None)

    def items(self) -> Iterator[Tuple[int, PageLocator]]:
        """``(pindex, locator)`` per page, ascending — for consumers
        that are per-page by nature (lazy-restore registration,
        ``clean_locator`` stamping)."""
        return chain.from_iterable(map(run_locators, self.runs))

    def slice(self, lo: int, hi: int) -> "PageRuns":
        """The table restricted to page indexes ``[lo, hi)``."""
        if lo >= hi or not self.runs:
            return NO_PAGES
        if lo <= self.runs[0][1] and self.runs[-1][1] + self.runs[-1][2] <= hi:
            return self
        first = bisect_right(self.starts, lo)
        if first and self.runs[first - 1][1] + self.runs[first - 1][2] > lo:
            first -= 1
        picked = self.runs[first:bisect_left(self.starts, hi)]
        if picked and picked[0][1] < lo:
            head = picked[0]
            picked[0] = clip_run(head, lo, min(head[1] + head[2], hi))
        if picked and picked[-1][1] + picked[-1][2] > hi:
            picked[-1] = clip_run(picked[-1], picked[-1][1], hi)
        return PageRuns(picked)

    def overlay(self, older: "PageRuns") -> "PageRuns":
        """Newest-wins union: this table plus the pages of ``older``
        it does not describe (interval subtraction, then a merge of
        two sorted run lists)."""
        if not self.runs:
            return older
        gained = uncovered_runs(older.runs, self.runs, self.starts)
        if not gained:
            return self
        return PageRuns(sorted(self.runs + gained, key=_run_start))

    def changed_pages(self, other: "PageRuns") -> int:
        """Pages whose locator differs from ``other``'s (or that only
        one of the two tables describes)."""
        return count_changed_pages(self.runs, other.runs)

    def extents(self) -> Set[int]:
        """The distinct data extents the table points into."""
        return {run[3] for run in self.runs if run[0] == "ext"}

    def encode(self) -> List[List[Any]]:
        """Wire form: the runs, re-coalesced so the bytes depend only
        on the page map (see :func:`append_locator_run`)."""
        entries: List[List[Any]] = []
        for run in self.runs:
            append_locator_run(entries, run)
        return entries


#: The table of an object no checkpoint holds pages for.
NO_PAGES = PageRuns()


def overlay_page_maps(newer: Dict[int, PageRuns],
                      older: Dict[int, PageRuns],
                      keep: Optional[Set[int]] = None) -> None:
    """Fold an older delta's page tables under ``newer``, in place and
    newest-wins — the one page merge behind merged views, incremental
    migration streams and GC adoption.  With ``keep``, only those OIDs
    are folded in."""
    for oid, runs in older.items():
        if keep is None or oid in keep:
            have = newer.get(oid)
            newer[oid] = runs if have is None else have.overlay(runs)


def decode_page_runs(raw: Any) -> PageRuns:
    """Validate a metadata document's run list into a :class:`PageRuns`.

    Nothing is expanded or copied: the runs are checked — kind, arity,
    integer start and positive count, ascending and disjoint — and the
    list itself becomes the table.  A violation is a
    :class:`CorruptRecord`, like any other damaged metadata, so
    recovery falls back a superblock generation and scrub reports it.
    """
    if not isinstance(raw, list):
        raise CorruptRecord("page runs are not a list")
    end = 0
    for entry in raw:
        if not isinstance(entry, list) or not entry:
            raise CorruptRecord("empty page run entry")
        arity = _RUN_ARITY.get(entry[0]) if isinstance(entry[0], str) else None
        if arity is None:
            raise CorruptRecord(f"bad page run kind {entry[0]!r}")
        if (len(entry) != arity or type(entry[1]) is not int
                or type(entry[2]) is not int):
            raise CorruptRecord(f"malformed {entry[0]!r} page run {entry!r}")
        start, count = entry[1], entry[2]
        if count < 1:
            raise CorruptRecord(f"page run at {start} has count {count}")
        if start < end:
            raise CorruptRecord(
                f"page run at {start} is unsorted or overlaps its "
                f"predecessor (which ends at {end})")
        end = start + count
    return PageRuns(raw)


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
        #: oid -> the locator table of the pages dirtied here.
        self.pages: Dict[int, PageRuns] = {}
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
        #: Read-only once set: a checkpoint whose live set equals its
        #: parent's shares the parent's set object.
        self.live_oids: Optional[Set[int]] = None
        #: ``(set, its [start, count, step] runs)`` for the set object
        #: the runs were last built from or decoded with.
        self._live_runs: Optional[Tuple[Set[int], List[List[int]]]] = None
        #: Records the serializer skipped as unchanged (telemetry).
        self.records_skipped = 0

    def share_live_oids(self, parent: "CheckpointInfo") -> None:
        """Take ``parent``'s live set — the same object, and the runs
        it already sorted it into — instead of an equal copy."""
        self.live_oids = parent.live_oids
        self._live_runs = parent._live_runs

    def live_oid_runs(self) -> Optional[List[List[int]]]:
        """The live set as ``[start, count, step]`` runs, sorted only
        when the set object is not the one the cached runs describe.

        OIDs are allocated from one cursor with the class tag in the
        high bits, so each class's live OIDs form short arithmetic
        progressions; the live set — easily the largest part of a
        steady-state delta's metadata — compresses to a handful of
        runs."""
        live = self.live_oids
        if live is None:
            return None
        if self._live_runs is None or self._live_runs[0] is not live:
            self._live_runs = (live, build_arith_runs(live))
        return self._live_runs[1]

    # -- on-disk encoding ---------------------------------------------------------

    def encode_meta(self) -> Dict[str, Any]:
        """The checkpoint's on-disk metadata document."""
        return {
            "live_oid_runs": self.live_oid_runs(),
            "records_skipped": self.records_skipped,
            "ckpt_id": self.ckpt_id,
            "group_id": self.group_id,
            "name": self.name,
            "parent": self.parent,
            "time_ns": self.time_ns,
            "partial": self.partial,
            "object_records": encode_record_index(self.object_records),
            "pages": {str(oid): runs.encode()
                      for oid, runs in self.pages.items()},
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
        info.pages = {int(oid): decode_page_runs(runs)
                      for oid, runs in raw["pages"].items()}
        info.owned_extents = [(pair[0], pair[1])
                              for pair in raw["owned_extents"]]
        info.data_bytes = raw["data_bytes"]
        live_runs = raw["live_oid_runs"]
        if live_runs is not None:
            info.live_oids = set(expand_arith_runs(live_runs))
            info._live_runs = (info.live_oids, live_runs)
        info.records_skipped = raw["records_skipped"]
        return info

    def __repr__(self) -> str:
        flag = "partial " if self.partial else ""
        done = "complete" if self.complete else "incomplete"
        return (f"Checkpoint({flag}id={self.ckpt_id}, group={self.group_id}, "
                f"{len(self.object_records)} objs, {done})")
