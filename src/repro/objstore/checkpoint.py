"""Checkpoint metadata structures.

A checkpoint is a *delta*: the object records and page locators
modified since its parent.  The merged (restorable) view of an
application at checkpoint N is the newest-wins union of deltas along
the parent chain — walked by :meth:`ObjectStore.merged_view` at
restore time, exactly like reading a WAFL/ZFS snapshot through its
block-sharing ancestry.

The on-disk metadata document (:meth:`CheckpointInfo.encode_meta`) has
one format and one decoder.  Its four large maps are all columnar:
page locators as one table of typed run columns
(:func:`encode_page_table`), the live set as
``[start, count, step]`` OID runs, the record index grouped by extent
with the same OID runs (:class:`RecordIndex`), and the owned
extents as ``[offset, count, length]`` runs (:func:`encode_extent_runs`)
— so a delta's metadata, and the child-metadata rewrite GC does after
adopting a deleted parent's state, cost O(record extents + runs), not
O(objects) or O(data extents).  The page-locator table stays columnar
in memory too: a :class:`PageRuns` is its slice of the decoded runs, and mount,
:meth:`ObjectStore.merged_view`, GC adoption, restore (eager and lazy)
and page fetches work on runs, never on one locator per page — one
page's locator is a one-page run.  So is the record index (one entry
per record extent, encoded once, shared by GC adopters).  A live set is
per-OID; one that did not change is shared down the chain, runs and all.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat, zip_longest
from operator import add, getitem, lt
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..core.runs import (LocatorRun, append_locator_run, build_arith_runs,
                         clip_run, count_changed_pages, expand_arith_runs,
                         run_at, runs_within, splice)
from ..errors import CorruptRecord
from ..serde import Encoded, column, fragment, frame_list

#: Integer fields of an "ext" run; a synthetic run has four, so its
#: decoded tuple is cut to five fields.
_INT_FIELDS = 5
_ARITY = {"syn": slice(5), "ext": slice(6)}


class PageRuns:
    """One object's page-locator table, kept as runs.

    The in-memory shape *is* the wire shape: ``runs`` is the list of
    ``("syn", start, count, seed0, seed_step)`` /
    ``("ext", start, count, extent, byte_off0, page_len)`` sequences
    (see :mod:`repro.core.runs`) — its slice of the runs a metadata
    document decoded to, or the list the commit path built — sorted by ``start``,
    pairwise disjoint, every ``count`` ≥ 1.  The table takes the list
    over and nobody mutates it or its runs afterwards, so deltas, merged
    views and GC adopters share runs freely.  Lookups bisect the list
    (:func:`~repro.core.runs.run_index`) and an overlay is one
    :func:`~repro.core.runs.splice`; nothing is per page.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Optional[List[LocatorRun]] = None) -> None:
        self.runs: List[LocatorRun] = [] if runs is None else runs

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

    def lookup(self, pindex: int) -> Optional[LocatorRun]:
        """The locator of page ``pindex`` — its one-page run — or None
        when the table does not describe it."""
        run = run_at(self.runs, pindex)
        return None if run is None else clip_run(run, pindex, pindex + 1)

    def slice(self, lo: int, hi: int) -> "PageRuns":
        """The table restricted to page indexes ``[lo, hi)``."""
        runs = self.runs
        if lo >= hi or not runs:
            return NO_PAGES
        if lo <= runs[0][1] and runs[-1][1] + runs[-1][2] <= hi:
            return self
        return PageRuns(runs_within(runs, lo, hi))

    def overlay(self, older: "PageRuns") -> "PageRuns":
        """Newest-wins union: this table laid over ``older`` — one
        :func:`~repro.core.runs.splice`."""
        if not self.runs:
            return older
        if not older.runs:
            return self
        return PageRuns(splice(older.runs, self.runs)[0])

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


def encode_page_table(pages: Dict[int, PageRuns]) -> List[Any]:
    """The page map as ``[oids, run counts, kinds, fields]``: the runs'
    five integer fields field by field in one column (a synthetic run's
    fifth is 0), transposed by one ``zip_longest``; ``[]`` if empty."""
    oids = [oid for oid, table in pages.items() if table.runs]
    tables = [pages[oid].encode() for oid in oids]
    runs = list(chain.from_iterable(tables))
    if not runs:
        return []
    kinds, *fields = zip_longest(*runs, fillvalue=0)
    fields += [(0,) * len(runs)] * (_INT_FIELDS - len(fields))
    return [column(oids), column(list(map(len, tables))), column(kinds),
            column(list(chain.from_iterable(fields)))]


def decode_page_table(raw: Any) -> Dict[int, PageRuns]:
    """Validate a page map into one :class:`PageRuns` per OID, a few C calls
    a check; damage is a :class:`CorruptRecord` (a mount falls back)."""
    if raw == []:
        return {}
    if type(raw) is not list or len(raw) != 4:
        raise CorruptRecord("malformed page table: not a list of four columns")
    oids, nruns, kinds, fields = raw
    width = len(kinds)
    if not type(oids) is type(nruns) is type(kinds) is type(fields) is list \
            or not {int} >= set(map(type, chain(oids, nruns, fields))):
        raise CorruptRecord("malformed page table column")
    if len(oids) != len(nruns) or sum(nruns) != width or len(
            fields) != _INT_FIELDS * width or len(set(oids)) != len(oids):
        raise CorruptRecord("page table columns differ in length, or an "
                            "oid repeats")
    if not oids or min(nruns) < 1:
        raise CorruptRecord("empty page run list in the page table")
    if kinds.count("syn") + kinds.count("ext") != width:
        bad = next(kind for kind in kinds if kind not in ("syn", "ext"))
        raise CorruptRecord(f"bad page run kind {bad!r}")
    starts, counts = fields[:width], fields[width:2 * width]
    if min(counts) < 1:
        at = counts.index(min(counts))
        raise CorruptRecord(f"page run at {starts[at]} has count {counts[at]}")
    # Runs ascend within an OID, and its first starts at or past 0.
    bounds = [0, *accumulate(nruns)]
    ends = list(map(add, starts, counts))
    overlaps = any(map(lt, starts[1:], ends)) and set(compress(
        count(1), map(lt, starts[1:], ends))).difference(bounds)
    if overlaps or min(starts) < 0:
        at = min(overlaps or (), default=starts.index(min(starts)))
        raise CorruptRecord(f"page run at {starts[at]} is unsorted or overlaps")
    runs = list(zip(kinds, starts, counts, fields[2 * width:3 * width],
                    fields[3 * width:4 * width], fields[4 * width:]))
    if "syn" in kinds:
        runs = list(map(getitem, runs, map(_ARITY.__getitem__, kinds)))
    return {oid: PageRuns(runs[lo:hi])
            for oid, lo, hi in zip(oids, bounds, bounds[1:])}


class RecordEntry:
    """One record extent of a record index: the extent, its OIDs in
    staged or decoded order, their set and the entry's encoding (of the
    runs it decoded, held until then, or of runs built once), each
    computed once.  Read-only, so GC shares an entry a child keeps whole."""

    def __init__(self, extent: Tuple[int, int], oids: List[int],
                 runs: Optional[List[List[int]]] = None) -> None:
        self.extent, self.oids, self.runs = extent, oids, runs

    @cached_property
    def oid_set(self) -> FrozenSet[int]:
        return frozenset(self.oids)

    @cached_property
    def fragment(self) -> Encoded:
        runs, self.runs = self.runs, None
        return fragment([*self.extent, runs or build_arith_runs(self.oids)])


class RecordIndex(Mapping[int, Tuple[int, int]]):
    """A checkpoint's record index in its media shape, one
    :class:`RecordEntry` per record extent, read as a read-only OID →
    ``(offset, length)`` mapping that iterates entry by entry.  OIDs
    come from one cursor, so an entry's are a few ``[start, count,
    step]`` runs: the document costs O(extents + runs)."""

    def __init__(self, entries: Optional[List[RecordEntry]] = None) -> None:
        self.entries: List[RecordEntry] = [] if entries is None else entries

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(entry.oids for entry in self.entries)

    def __len__(self) -> int:
        return sum(len(entry.oids) for entry in self.entries)

    def items(self) -> Iterator[Tuple[int, Tuple[int, int]]]:  # type: ignore[override]
        return chain.from_iterable(zip(entry.oids, repeat(entry.extent))
                                   for entry in self.entries)

    def __getitem__(self, oid: int) -> Tuple[int, int]:
        for entry in self.entries:
            if oid in entry.oid_set:
                return entry.extent
        raise KeyError(oid)

    def encode(self) -> Encoded:
        """``[[offset, length, runs], …]``, spliced from fragments."""
        return frame_list([entry.fragment for entry in self.entries])

    @classmethod
    def decode(cls, raw: List[list]) -> "RecordIndex":
        return cls([RecordEntry((offset, length), expand_arith_runs(runs),
                                runs) for offset, length, runs in raw])


def encode_extent_runs(extents: List[Tuple[int, int]]) -> List[List[int]]:
    """Coalesce ``(offset, length)`` extents, in list order, into
    ``[offset, count, length]`` runs of contiguous equal-length ones."""
    runs: List[List[int]] = []
    for offset, length in extents:
        run = runs[-1] if runs else None
        if run and run[2] == length and run[0] + run[1] * length == offset:
            run[1] += 1
        else:
            runs.append([offset, 1, length])
    return runs


def decode_extent_runs(raw: Any) -> List[Tuple[int, int]]:
    """Expand extent runs back to the ``(offset, length)`` list.  A run
    that is not three integers with ``count`` and ``length`` ≥ 1 is a
    :class:`CorruptRecord`, like a malformed page run."""
    if not isinstance(raw, list) or not all(
            isinstance(run, list) and list(map(type, run)) == [int] * 3
            and run[1] >= 1 and run[2] >= 1 for run in raw):
        raise CorruptRecord("malformed owned-extent run list")
    return [(offset + i * length, length)
            for offset, count, length in raw for i in range(count)]


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
        #: record, kept as one entry per record extent.
        self.object_records = RecordIndex()
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
        #: ``(meta extent, its encoded catalog entry)`` as last encoded.
        self._catalog_entry: Optional[Tuple[Tuple[int, int], Encoded]] = None

    def catalog_entry(self) -> Encoded:
        """This checkpoint's entry in the store catalog, encoded once
        per metadata extent: a GC rewrite, a rolled-back flip or a
        recovery that moves ``meta_extent`` gets a fresh entry."""
        extent = self.meta_extent
        assert extent is not None, "an uncommitted checkpoint has no entry"
        cached = self._catalog_entry
        if cached is None or cached[0] != extent:
            cached = (extent, fragment({"meta_extent": list(extent)}))
            self._catalog_entry = cached
        return cached[1]

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
            "object_records": self.object_records.encode(),
            "pages": encode_page_table(self.pages),
            "owned_extents": encode_extent_runs(self.owned_extents),
            "data_bytes": self.data_bytes,
        }

    @classmethod
    def decode_meta(cls, raw: dict) -> "CheckpointInfo":
        """Rebuild checkpoint metadata from its document."""
        info = cls(raw["ckpt_id"], raw["group_id"], raw["name"],
                   raw["parent"], raw["time_ns"], raw["partial"])
        info.object_records = RecordIndex.decode(raw["object_records"])
        info.pages = decode_page_table(raw["pages"])
        info.owned_extents = decode_extent_runs(raw["owned_extents"])
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


def chain_of(checkpoints: Dict[int, CheckpointInfo],
             ckpt_id: int) -> List[CheckpointInfo]:
    """``ckpt_id`` and its ancestors in ``checkpoints``, newest first:
    the one chain walk.  It ends at the first id the table does not
    hold, so the last entry's ``parent`` is not None exactly when an
    ancestor is missing; whether that is an error is the caller's call
    (:meth:`ObjectStore.parent_chain` raises, scrub reports the hole
    once as ``dangling``)."""
    chain: List[CheckpointInfo] = []
    info = checkpoints.get(ckpt_id)
    while info is not None:
        chain.append(info)
        parent = info.parent
        info = None if parent is None else checkpoints.get(parent)
    return chain


def live_set(chain: List[CheckpointInfo]) -> Optional[Set[int]]:
    """The OIDs a restore at the head of ``chain`` (newest first) may
    still need: the one live-set derivation.

    The newest non-partial checkpoint carrying liveness info defines
    the base set (its serializer walked every reachable object, so
    anything absent was deleted before it).  Deltas *newer* than that
    base — partials — may introduce brand-new OIDs, so their
    record/page keys are unioned in conservatively.

    Returns None ("everything along the chain is live") when no chain
    checkpoint carries liveness info, which keeps SLSFS checkpoints and
    pure-partial chains on the unfiltered semantics.  The result is
    read-only: when no newer delta added anything it *is* the base
    checkpoint's set.
    """
    newer: Set[int] = set()
    for info in chain:
        if not info.partial and info.live_oids is not None:
            base = info.live_oids
            return base if newer <= base else base | newer
        newer.update(info.object_records)
        newer.update(info.pages)
    return None
